/// \file flow_solver.hpp
/// \brief Incompressible Navier–Stokes + Boussinesq scalar time integrator:
/// the Karniadakis–Israeli–Orszag splitting scheme with BDF3/EXT3, dealiased
/// advection, GMRES+HSMG pressure solve and CG+Jacobi velocity/temperature
/// solves — the solver configuration the paper runs (§6).
///
/// Governing equations (paper eq. 1, free-fall units):
///   ∇·u = 0
///   ∂u/∂t + (u·∇)u = −∇p + √(Pr/Ra) ∇²u + T e_z
///   ∂T/∂t + (u·∇)T = 1/√(RaPr) ∇²T
///
/// One step (order k ≤ 3):
///  1. F^n     = −(u·∇)u + T e_z (+ user forcing) via the dealiased advector;
///  2. ũ       = Σ a_j u^{n+1-j} + Δt Σ e_j F^{n+1-j};
///  3. pressure A p = (∇φ, ũ)/Δt (Neumann, mean-free), GMRES + hybrid
///     Schwarz multigrid (serial or task-overlapped), residual-projection
///     initial guesses;
///  4. correction ũ ← ũ − Δt ∇p;
///  5. velocity  ((b0/Δt) B + ν A) u^{n+1} = B ũ/Δt, CG + block Jacobi;
///  6. temperature: same IMEX pattern with diffusivity κ and Dirichlet
///     plates (hot bottom, cold top) via lifting.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/params.hpp"
#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"
#include "krylov/projection.hpp"
#include "precon/hsmg.hpp"

namespace felis::fluid {

/// Optional user body force, evaluated every step at the current time:
/// fill (fx, fy, fz) with the strong-form force per local GLL node (the
/// solver handles quadrature weighting). Coordinates come from the Coef.
using ForcingFn =
    std::function<void(real_t t, const field::Coef& coef, RealVec& fx,
                       RealVec& fy, RealVec& fz)>;

/// Optional scalar (temperature) source, strong form per local GLL node —
/// e.g. uniform internal heating. Same conventions as ForcingFn.
using ScalarForcingFn =
    std::function<void(real_t t, const field::Coef& coef, RealVec& g)>;

struct FlowConfig {
  real_t dt = 1e-3;
  int max_order = 3;                  ///< BDF/EXT order after startup
  real_t viscosity = 1e-2;            ///< √(Pr/Ra) in free-fall units
  real_t conductivity = 1e-2;         ///< 1/√(Ra·Pr)
  real_t buoyancy = 1.0;              ///< coefficient of T e_z (0 disables)
  /// Rotation about e_z: adds −coriolis·(ẑ×u) to the momentum equation,
  /// i.e. coriolis = 1/Ro in free-fall units (0 disables). Treated
  /// explicitly alongside buoyancy — it depends on the current velocity, so
  /// it is recomputed from state each step and needs no extra checkpoint
  /// fields (the forcing histories already carry its lagged values).
  real_t coriolis = 0.0;
  bool solve_scalar = true;
  ForcingFn forcing;  ///< optional body force (e.g. Kolmogorov forcing)
  ScalarForcingFn forcing_scalar;  ///< optional scalar source (e.g. heating)

  /// Velocity no-slip walls (Dirichlet 0). Empty for fully periodic boxes.
  std::set<mesh::FaceTag> velocity_walls = {
      mesh::FaceTag::kWall, mesh::FaceTag::kBottom, mesh::FaceTag::kTop,
      mesh::FaceTag::kSide};
  /// Scalar Dirichlet values per tag (RBC: bottom 1, top 0); other walls
  /// are adiabatic (natural).
  std::map<mesh::FaceTag, real_t> scalar_dirichlet = {
      {mesh::FaceTag::kBottom, 1.0}, {mesh::FaceTag::kTop, 0.0}};

  krylov::SolveControl pressure_control{1e-7, 0, 200};
  krylov::SolveControl velocity_control{1e-9, 0, 200};
  krylov::SolveControl scalar_control{1e-9, 0, 200};
  int gmres_restart = 30;
  int coarse_iterations = 10;
  precon::OverlapMode overlap = precon::OverlapMode::kTaskParallel;
  bool use_projection = true;
  usize projection_vectors = 8;
  real_t max_cfl = 2.0;  ///< step() throws beyond this (blown-up run)
};

/// Per-step report.
struct StepInfo {
  std::int64_t step = 0;
  real_t time = 0;
  real_t cfl = 0;
  int pressure_iterations = 0;
  int velocity_iterations = 0;  ///< summed over the 3 components
  int scalar_iterations = 0;
  real_t pressure_residual = 0;
  real_t divergence = 0;  ///< L2 norm of strong divergence (diagnostic)
};

class FlowSolver {
 public:
  /// `fine`/`coarse` as for HsmgPrecon (same mesh, degrees N and 1).
  FlowSolver(const operators::Context& fine, const operators::Context& coarse,
             FlowConfig config);

  /// Detaches the run's trace recorder from the profiler, which lives on in
  /// the rank setup after this solver (and possibly after the recorder).
  ~FlowSolver();

  // Field access (local L-vectors).
  RealVec& u() { return u_[0]; }
  RealVec& v() { return u_[1]; }
  RealVec& w() { return u_[2]; }
  RealVec& temperature() { return temp_; }
  RealVec& pressure() { return p_; }
  const RealVec& u() const { return u_[0]; }
  const RealVec& v() const { return u_[1]; }
  const RealVec& w() const { return u_[2]; }
  const RealVec& temperature() const { return temp_; }
  const RealVec& pressure() const { return p_; }

  const FlowConfig& config() const { return config_; }
  const operators::Context& context() const { return fine_; }
  real_t time() const { return time_; }
  std::int64_t step_count() const { return step_; }

  /// Impose the Dirichlet data on the current fields (call after setting
  /// initial conditions).
  void apply_boundary_conditions();

  /// Restart interface: install history fields so integration starts at full
  /// order (used by checkpoint/restart and by convergence tests that prime
  /// with analytic states). `lag` = 1 or 2 selects u^{n-1} / u^{n-2};
  /// `f_lag` selects the explicit forcing history at entry of the next
  /// step(): 0 = F^{n-1}, 1 = F^{n-2} (strong form; F^n is recomputed
  /// internally). Finally call set_step_index(k >= max_order-1) so the
  /// startup ramp is skipped.
  void set_velocity_history(int lag, const RealVec& u, const RealVec& v,
                            const RealVec& w);
  void set_scalar_history(int lag, const RealVec& t);
  void set_forcing_history(int f_lag, const RealVec& fx, const RealVec& fy,
                           const RealVec& fz);
  void set_scalar_forcing_history(int f_lag, const RealVec& g);
  void set_step_index(std::int64_t step) { step_ = step; }
  void set_time(real_t t) { time_ = t; }

  // Read access to the history fields (checkpointing).
  const RealVec& velocity_history(int lag, int component) const {
    return u_hist_[static_cast<usize>(lag - 1)][static_cast<usize>(component)];
  }
  const RealVec& scalar_history(int lag) const {
    return t_hist_[static_cast<usize>(lag - 1)];
  }
  const RealVec& forcing_history(int f_lag, int component) const {
    return f_hist_[static_cast<usize>(f_lag)][static_cast<usize>(component)];
  }
  const RealVec& scalar_forcing_history(int f_lag) const {
    return g_hist_[static_cast<usize>(f_lag)];
  }

  /// Advance one time step.
  StepInfo step();

  /// Access to the pressure preconditioner (ablations / tracing).
  precon::HsmgPrecon& pressure_preconditioner() { return *hsmg_; }

  /// Pressure residual-projection space, or nullptr when use_projection is
  /// off. Exposed so checkpointing can round-trip the basis — it feeds the
  /// initial guesses, so dropping it on restart breaks bitwise equality.
  krylov::ResidualProjection* pressure_projection() {
    return pressure_projection_.get();
  }
  const krylov::ResidualProjection* pressure_projection() const {
    return pressure_projection_.get();
  }

  /// Statistics of the most recent step() (zero-initialized before the first
  /// step). Checkpointed so restart-time decisions keyed on them — adaptive
  /// tolerances, logging cadence — see the same values as an uninterrupted
  /// run.
  const StepInfo& last_step_info() const { return last_info_; }
  void set_last_step_info(const StepInfo& info) { last_info_ = info; }

 private:
  void compute_forcing(std::array<RealVec, 3>& f_weak, RealVec& g_weak);

  operators::Context fine_;
  FlowConfig config_;
  std::int64_t step_ = 0;
  real_t time_ = 0;
  StepInfo last_info_;

  // Current and history fields: u_[c] current; histories hold previous steps
  // (index 0 = n-1 after rotation).
  std::array<RealVec, 3> u_;
  RealVec temp_, p_;
  std::vector<std::array<RealVec, 3>> u_hist_;   ///< velocity at n-1, n-2
  std::vector<RealVec> t_hist_;
  std::vector<std::array<RealVec, 3>> f_hist_;   ///< momentum forcing (strong)
  std::vector<RealVec> g_hist_;                  ///< scalar forcing (strong)

  // Discretization helpers.
  operators::Advector advector_;
  std::vector<lidx_t> vel_mask_, scalar_mask_;
  RealVec scalar_bc_;           ///< Dirichlet lifting field for T
  RealVec assembled_mass_inv_;  ///< 1 / gs(B) for weak→strong conversion

  // Solvers.
  std::unique_ptr<krylov::HelmholtzOperator> pressure_op_, velocity_op_, scalar_op_;
  std::unique_ptr<precon::HsmgPrecon> hsmg_;
  std::unique_ptr<krylov::JacobiPrecon> velocity_pc_, scalar_pc_;
  real_t velocity_pc_h2_ = -1, scalar_pc_h2_ = -1;  ///< rebuilt on change
  krylov::GmresSolver gmres_;
  krylov::CgSolver cg_;
  std::unique_ptr<krylov::ResidualProjection> pressure_projection_;
};

/// Apply the solver-tuning keys of a parsed case file onto `config`:
///   fluid.max_order, fluid.overlap (bool), fluid.use_projection,
///   fluid.pressure_tol, fluid.velocity_tol, fluid.gmres_restart,
///   fluid.coarse_iterations.
/// Missing keys keep their current values, so cases can layer their own
/// defaults first. Physics keys (ν, κ, buoyancy, dt) are owned by the case.
void apply_flow_params(const ParamMap& params, FlowConfig& config);

}  // namespace felis::fluid
