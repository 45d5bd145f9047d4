#include "fluid/flow_solver.hpp"

#include <cmath>

#include "device/workspace.hpp"
#include "field/bc.hpp"
#include "fluid/time_scheme.hpp"
#include "telemetry/telemetry.hpp"

namespace felis::fluid {

namespace {
constexpr real_t kUnsetBc = -1e300;
}

FlowSolver::FlowSolver(const operators::Context& fine,
                       const operators::Context& coarse, FlowConfig config)
    : fine_(fine),
      config_(std::move(config)),
      advector_(fine),
      gmres_(fine, config_.gmres_restart),
      cg_(fine) {
  const usize nd = fine_.num_dofs();
  for (auto& c : u_) c.assign(nd, 0.0);
  temp_.assign(nd, 0.0);
  p_.assign(nd, 0.0);
  u_hist_.assign(2, {RealVec(nd, 0.0), RealVec(nd, 0.0), RealVec(nd, 0.0)});
  t_hist_.assign(2, RealVec(nd, 0.0));
  f_hist_.assign(3, {RealVec(nd, 0.0), RealVec(nd, 0.0), RealVec(nd, 0.0)});
  g_hist_.assign(3, RealVec(nd, 0.0));

  vel_mask_ = krylov::make_mask(fine_, config_.velocity_walls);
  std::set<mesh::FaceTag> scalar_tags;
  for (const auto& [tag, value] : config_.scalar_dirichlet) scalar_tags.insert(tag);
  scalar_mask_ = krylov::make_mask(fine_, scalar_tags);

  // Dirichlet lifting field for the scalar: per-tag values propagated to all
  // duplicates via a gather-scatter max (unset = -inf sentinel).
  scalar_bc_.assign(nd, kUnsetBc);
  for (const auto& [tag, value] : config_.scalar_dirichlet) {
    const auto dofs = field::boundary_dofs(*fine_.lmesh, *fine_.space, {tag});
    field::set_at(scalar_bc_, dofs, value);
  }
  fine_.gs->apply(scalar_bc_, gs::GsOp::kMax);
  for (real_t& v : scalar_bc_)
    if (v <= kUnsetBc) v = 0.0;

  // Assembled lumped mass for weak→strong conversion.
  assembled_mass_inv_ = fine_.coef->mass;
  fine_.gs->apply(assembled_mass_inv_, gs::GsOp::kAdd);
  for (real_t& v : assembled_mass_inv_) v = 1.0 / v;

  pressure_op_ = std::make_unique<krylov::HelmholtzOperator>(
      fine_, 1.0, 0.0, std::vector<lidx_t>{});
  velocity_op_ = std::make_unique<krylov::HelmholtzOperator>(
      fine_, config_.viscosity, 1.0 / config_.dt, vel_mask_);
  scalar_op_ = std::make_unique<krylov::HelmholtzOperator>(
      fine_, config_.conductivity, 1.0 / config_.dt, scalar_mask_);
  hsmg_ = std::make_unique<precon::HsmgPrecon>(fine_, coarse, config_.overlap,
                                               config_.coarse_iterations);
  if (config_.use_projection)
    pressure_projection_ = std::make_unique<krylov::ResidualProjection>(
        fine_, config_.projection_vectors, /*singular_operator=*/true);
  FELIS_CHECK_MSG(fine_.prof != nullptr,
                  "FlowSolver requires an instrumented context (prof != null)");

  // A traced run records the profiler's regions and the preconditioner's
  // stream intervals into its one recorder, next to the step marks.
  if (telemetry::Telemetry* tel = fine_.telemetry;
      tel != nullptr && tel->enabled() && tel->config().trace) {
    TraceRecorder* trace = &tel->trace_recorder();
    fine_.prof->set_trace(trace);
    hsmg_->set_trace(trace);
  }
}

FlowSolver::~FlowSolver() {
  fine_.prof->set_trace(nullptr);
  hsmg_->set_trace(nullptr);
}

void FlowSolver::apply_boundary_conditions() {
  for (auto& c : u_) krylov::apply_mask(c, vel_mask_);
  krylov::apply_mask(temp_, scalar_mask_);
  for (const lidx_t d : scalar_mask_)
    temp_[static_cast<usize>(d)] = scalar_bc_[static_cast<usize>(d)];
}

void FlowSolver::set_velocity_history(int lag, const RealVec& u, const RealVec& v,
                                      const RealVec& w) {
  FELIS_CHECK(lag == 1 || lag == 2);
  auto& slot = u_hist_[static_cast<usize>(lag - 1)];
  slot[0] = u;
  slot[1] = v;
  slot[2] = w;
}

void FlowSolver::set_scalar_history(int lag, const RealVec& t) {
  FELIS_CHECK(lag == 1 || lag == 2);
  t_hist_[static_cast<usize>(lag - 1)] = t;
}

void FlowSolver::set_forcing_history(int f_lag, const RealVec& fx,
                                     const RealVec& fy, const RealVec& fz) {
  FELIS_CHECK(f_lag >= 0 && f_lag <= 2);
  auto& slot = f_hist_[static_cast<usize>(f_lag)];
  slot[0] = fx;
  slot[1] = fy;
  slot[2] = fz;
}

void FlowSolver::set_scalar_forcing_history(int f_lag, const RealVec& g) {
  FELIS_CHECK(f_lag >= 0 && f_lag <= 2);
  g_hist_[static_cast<usize>(f_lag)] = g;
}

void FlowSolver::compute_forcing(std::array<RealVec, 3>& f_weak,
                                 RealVec& g_weak) {
  const usize nd = fine_.num_dofs();
  device::Backend& dev = fine_.dev();
  advector_.set_velocity(u_[0], u_[1], u_[2]);
  for (int c = 0; c < 3; ++c) {
    f_weak[static_cast<usize>(c)].assign(nd, 0.0);
    advector_.apply(u_[static_cast<usize>(c)], f_weak[static_cast<usize>(c)], -1.0);
  }
  if (config_.buoyancy != 0.0) {
    const RealVec& mass = fine_.coef->mass;
    RealVec& fz = f_weak[2];
    dev.parallel_for_blocked(static_cast<lidx_t>(nd), /*grain=*/0,
                             [&](lidx_t begin, lidx_t end, int /*worker*/) {
                               for (lidx_t i = begin; i < end; ++i) {
                                 const usize u = static_cast<usize>(i);
                                 fz[u] += config_.buoyancy * mass[u] * temp_[u];
                               }
                             });
  }
  if (config_.coriolis != 0.0) {
    // −(1/Ro) ẑ×u = (1/Ro)(v, −u, 0): explicit like buoyancy. Recomputed
    // from the current velocity, so checkpoint closure needs no new fields.
    const real_t c = config_.coriolis;
    const RealVec& mass = fine_.coef->mass;
    const RealVec& uu = u_[0];
    const RealVec& vv = u_[1];
    dev.parallel_for_blocked(static_cast<lidx_t>(nd), /*grain=*/0,
                             [&](lidx_t begin, lidx_t end, int /*worker*/) {
                               for (lidx_t i = begin; i < end; ++i) {
                                 const usize u = static_cast<usize>(i);
                                 const real_t b = c * mass[u];
                                 f_weak[0][u] += b * vv[u];
                                 f_weak[1][u] -= b * uu[u];
                               }
                             });
  }
  if (config_.forcing) {
    RealVec fx(nd, 0.0), fy(nd, 0.0), fz(nd, 0.0);
    config_.forcing(time_, *fine_.coef, fx, fy, fz);
    const RealVec& mass = fine_.coef->mass;
    dev.parallel_for_blocked(static_cast<lidx_t>(nd), /*grain=*/0,
                             [&](lidx_t begin, lidx_t end, int /*worker*/) {
                               for (lidx_t i = begin; i < end; ++i) {
                                 const usize u = static_cast<usize>(i);
                                 const real_t b = mass[u];
                                 f_weak[0][u] += b * fx[u];
                                 f_weak[1][u] += b * fy[u];
                                 f_weak[2][u] += b * fz[u];
                               }
                             });
  }
  if (config_.solve_scalar) {
    g_weak.assign(nd, 0.0);
    advector_.apply(temp_, g_weak, -1.0);
    if (config_.forcing_scalar) {
      RealVec src(nd, 0.0);
      config_.forcing_scalar(time_, *fine_.coef, src);
      const RealVec& mass = fine_.coef->mass;
      dev.parallel_for_blocked(static_cast<lidx_t>(nd), /*grain=*/0,
                               [&](lidx_t begin, lidx_t end, int /*worker*/) {
                                 for (lidx_t i = begin; i < end; ++i) {
                                   const usize u = static_cast<usize>(i);
                                   g_weak[u] += mass[u] * src[u];
                                 }
                               });
    }
  }
}

StepInfo FlowSolver::step() {
  Profiler* prof = fine_.prof;
  ScopedRegion step_region(*prof, "step");
  const usize nd = fine_.num_dofs();
  const real_t dt = config_.dt;
  const ImexCoefficients coeff =
      imex_coefficients(startup_order(step_, config_.max_order));

  StepInfo info;
  info.step = step_ + 1;
  info.cfl = operators::cfl(fine_, u_[0], u_[1], u_[2], dt);
  FELIS_CHECK_MSG(info.cfl <= config_.max_cfl,
                  "CFL " << info.cfl << " exceeds limit " << config_.max_cfl
                         << " at step " << step_);

  // --- 1. explicit forcing at t^n (weak), converted to strong form --------
  std::array<RealVec, 3> f_weak;
  RealVec g_weak;
  {
    ScopedRegion r(*prof, "forcing");
    compute_forcing(f_weak, g_weak);
    for (int c = 0; c < 3; ++c) {
      RealVec& f = f_weak[static_cast<usize>(c)];
      fine_.gs->apply(f, gs::GsOp::kAdd, prof);
      operators::vec_mul(fine_.dev(), assembled_mass_inv_, f);
    }
    if (config_.solve_scalar) {
      fine_.gs->apply(g_weak, gs::GsOp::kAdd, prof);
      operators::vec_mul(fine_.dev(), assembled_mass_inv_, g_weak);
    }
  }
  // Rotate forcing history: f_hist_[0] ← F^n.
  f_hist_[2] = std::move(f_hist_[1]);
  f_hist_[1] = std::move(f_hist_[0]);
  f_hist_[0] = std::move(f_weak);
  if (config_.solve_scalar) {
    g_hist_[2] = std::move(g_hist_[1]);
    g_hist_[1] = std::move(g_hist_[0]);
    g_hist_[0] = std::move(g_weak);
  }

  // --- 2. explicit extrapolated state ũ -----------------------------------
  std::array<RealVec, 3> u_tilde;
  RealVec t_tilde;
  for (int c = 0; c < 3; ++c) {
    RealVec& ut = u_tilde[static_cast<usize>(c)];
    ut.assign(nd, 0.0);
    const RealVec* uh[3] = {&u_[static_cast<usize>(c)],
                            &u_hist_[0][static_cast<usize>(c)],
                            &u_hist_[1][static_cast<usize>(c)]};
    for (int j = 0; j < coeff.order; ++j) {
      const real_t aj = coeff.a[static_cast<usize>(j)];
      const real_t ej = coeff.e[static_cast<usize>(j)];
      const RealVec& fj = f_hist_[static_cast<usize>(j)][static_cast<usize>(c)];
      const RealVec& uj = *uh[j];
      fine_.dev().parallel_for_blocked(
          static_cast<lidx_t>(nd), /*grain=*/0,
          [&](lidx_t begin, lidx_t end, int /*worker*/) {
            for (lidx_t i = begin; i < end; ++i) {
              const usize u = static_cast<usize>(i);
              ut[u] += aj * uj[u] + dt * ej * fj[u];
            }
          });
    }
  }
  if (config_.solve_scalar) {
    t_tilde.assign(nd, 0.0);
    const RealVec* th[3] = {&temp_, &t_hist_[0], &t_hist_[1]};
    for (int j = 0; j < coeff.order; ++j) {
      const real_t aj = coeff.a[static_cast<usize>(j)];
      const real_t ej = coeff.e[static_cast<usize>(j)];
      const RealVec& tj = *th[j];
      const RealVec& gj = g_hist_[static_cast<usize>(j)];
      fine_.dev().parallel_for_blocked(
          static_cast<lidx_t>(nd), /*grain=*/0,
          [&](lidx_t begin, lidx_t end, int /*worker*/) {
            for (lidx_t i = begin; i < end; ++i) {
              const usize u = static_cast<usize>(i);
              t_tilde[u] += aj * tj[u] + dt * ej * gj[u];
            }
          });
    }
  }

  // --- 3. pressure Poisson -------------------------------------------------
  {
    ScopedRegion r(*prof, "pressure");
    RealVec rhs(nd);
    operators::div_weak(fine_, u_tilde[0], u_tilde[1], u_tilde[2], rhs);
    fine_.gs->apply(rhs, gs::GsOp::kAdd, prof);
    operators::vec_scale(fine_.dev(), 1.0 / dt, rhs);
    // Project onto range(A): the Poisson operator's null space is the
    // constants, and the projection/deflation below must never see them.
    operators::remove_null_component(fine_, rhs);

    RealVec x0, dx = p_;  // warm start from previous pressure
    if (pressure_projection_) {
      pressure_projection_->pre_solve(rhs, x0);
      // The projection guess replaces the warm start.
      dx.assign(nd, 0.0);
    }
    const auto stats = gmres_.solve(*pressure_op_, *hsmg_, rhs, dx,
                                    config_.pressure_control, true);
    info.pressure_iterations = stats.iterations;
    info.pressure_residual = stats.final_residual;
    if (pressure_projection_) {
      pressure_projection_->post_solve(*pressure_op_, x0, dx, p_);
    } else {
      p_ = dx;
    }
    operators::remove_mean(fine_, p_);
  }

  // --- 4. correction and velocity Helmholtz solves -------------------------
  {
    ScopedRegion r(*prof, "velocity");
    RealVec dpx(nd), dpy(nd), dpz(nd);
    operators::grad(fine_, p_, dpx, dpy, dpz);
    const RealVec* dp[3] = {&dpx, &dpy, &dpz};
    const real_t h2 = coeff.b0 / dt;
    velocity_op_->set_coefficients(config_.viscosity, h2);
    if (h2 != velocity_pc_h2_) {
      velocity_pc_ = std::make_unique<krylov::JacobiPrecon>(
          operators::diag_helmholtz(fine_, config_.viscosity, h2),
          fine_.backend);
      velocity_pc_h2_ = h2;
    }
    for (int c = 0; c < 3; ++c) {
      RealVec rhs(nd);
      const RealVec& ut = u_tilde[static_cast<usize>(c)];
      const RealVec& dpc = *dp[c];
      const RealVec& mass = fine_.coef->mass;
      fine_.dev().parallel_for_blocked(
          static_cast<lidx_t>(nd), /*grain=*/0,
          [&](lidx_t begin, lidx_t end, int /*worker*/) {
            for (lidx_t i = begin; i < end; ++i) {
              const usize u = static_cast<usize>(i);
              rhs[u] = mass[u] * (ut[u] / dt - dpc[u]);
            }
          });
      fine_.gs->apply(rhs, gs::GsOp::kAdd, prof);
      krylov::apply_mask(rhs, vel_mask_);
      // Keep u^n as history, then solve into the current field (warm start).
      RealVec& uc = u_[static_cast<usize>(c)];
      u_hist_[1][static_cast<usize>(c)] = u_hist_[0][static_cast<usize>(c)];
      u_hist_[0][static_cast<usize>(c)] = uc;
      krylov::apply_mask(uc, vel_mask_);
      const auto stats =
          cg_.solve(*velocity_op_, *velocity_pc_, rhs, uc, config_.velocity_control);
      info.velocity_iterations += stats.iterations;
    }
  }

  // --- 5. scalar (temperature) ---------------------------------------------
  if (config_.solve_scalar) {
    ScopedRegion r(*prof, "scalar");
    const real_t h2 = coeff.b0 / dt;
    scalar_op_->set_coefficients(config_.conductivity, h2);
    if (h2 != scalar_pc_h2_) {
      scalar_pc_ = std::make_unique<krylov::JacobiPrecon>(
          operators::diag_helmholtz(fine_, config_.conductivity, h2),
          fine_.backend);
      scalar_pc_h2_ = h2;
    }
    RealVec rhs(nd);
    const RealVec& mass = fine_.coef->mass;
    fine_.dev().parallel_for_blocked(
        static_cast<lidx_t>(nd), /*grain=*/0,
        [&](lidx_t begin, lidx_t end, int /*worker*/) {
          for (lidx_t i = begin; i < end; ++i) {
            const usize u = static_cast<usize>(i);
            rhs[u] = mass[u] * t_tilde[u] / dt;
          }
        });
    fine_.gs->apply(rhs, gs::GsOp::kAdd, prof);
    // Dirichlet lifting: subtract A_full(T_bc), solve homogeneous, add back.
    RealVec a_bc(nd);
    operators::ax_helmholtz(fine_, scalar_bc_, a_bc, config_.conductivity, h2);
    fine_.gs->apply(a_bc, gs::GsOp::kAdd, prof);
    operators::vec_axpy(fine_.dev(), -1.0, a_bc, rhs);
    krylov::apply_mask(rhs, scalar_mask_);
    t_hist_[1] = t_hist_[0];
    t_hist_[0] = temp_;
    // Warm start: homogeneous part of the previous temperature.
    RealVec th = temp_;
    operators::vec_axpy(fine_.dev(), -1.0, scalar_bc_, th);
    krylov::apply_mask(th, scalar_mask_);
    const auto stats =
        cg_.solve(*scalar_op_, *scalar_pc_, rhs, th, config_.scalar_control);
    info.scalar_iterations = stats.iterations;
    operators::vec_copy(fine_.dev(), th, temp_);
    operators::vec_add(fine_.dev(), scalar_bc_, temp_);
  }

  // --- diagnostics ----------------------------------------------------------
  {
    RealVec div(nd);
    operators::div_strong(fine_, u_[0], u_[1], u_[2], div);
    const RealVec& w = fine_.gs->inverse_multiplicity();
    const RealVec& mass = fine_.coef->mass;
    real_t s = fine_.dev().reduce_sum(
        static_cast<lidx_t>(nd), [&](lidx_t begin, lidx_t end) {
          real_t acc = 0;
          for (lidx_t i = begin; i < end; ++i) {
            const usize u = static_cast<usize>(i);
            acc += div[u] * div[u] * mass[u] * w[u];
          }
          return acc;
        });
    fine_.comm->allreduce(&s, 1, comm::ReduceOp::kSum);
    info.divergence = std::sqrt(s);
  }

  ++step_;
  time_ += dt;
  info.time = time_;
  last_info_ = info;

  // Telemetry charging is read-only with respect to solver state, so the
  // simulated fields are bitwise identical with telemetry on or off.
  if (telemetry::Telemetry* tel = fine_.telemetry;
      tel != nullptr && tel->enabled()) {
    telemetry::MetricsRegistry& m = tel->metrics();
    m.set("solver.cfl", info.cfl);
    m.set("solver.dt", dt);
    m.set("solver.time", time_);
    m.set("solver.pressure_iterations", info.pressure_iterations);
    m.set("solver.velocity_iterations", info.velocity_iterations);
    m.set("solver.scalar_iterations", info.scalar_iterations);
    m.set("solver.pressure_residual", info.pressure_residual);
    m.set("solver.divergence", info.divergence);
    m.set("solver.projection_basis",
          pressure_projection_
              ? static_cast<double>(pressure_projection_->basis_size())
              : 0.0);
    // This rank's own work since its setup was built (the Fig. 4 and
    // perfmodel counts), charged by every layer through the Context.
    const OpCounters work = fine_.prof->root().inclusive_counters();
    m.set("profile.flops", work.flops);
    m.set("profile.bytes", work.bytes);
    m.set("profile.messages", work.messages);
    m.set("profile.message_bytes", work.msg_bytes);
    m.set("profile.reductions", work.reductions);
    m.set("device.arena_bytes",
          static_cast<double>(device::Workspace::process_bytes()));
    m.set("device.arena_high_water",
          static_cast<double>(device::Workspace::process_high_water()));
  }
  return info;
}

void apply_flow_params(const ParamMap& params, FlowConfig& config) {
  config.max_order = params.get_int("fluid.max_order", config.max_order);
  config.overlap = params.get_bool("fluid.overlap", true)
                       ? precon::OverlapMode::kTaskParallel
                       : precon::OverlapMode::kSerial;
  config.use_projection =
      params.get_bool("fluid.use_projection", config.use_projection);
  config.pressure_control.abs_tol =
      params.get_real("fluid.pressure_tol", config.pressure_control.abs_tol);
  config.velocity_control.abs_tol =
      params.get_real("fluid.velocity_tol", config.velocity_control.abs_tol);
  config.gmres_restart =
      params.get_int("fluid.gmres_restart", config.gmres_restart);
  config.coarse_iterations =
      params.get_int("fluid.coarse_iterations", config.coarse_iterations);
}

}  // namespace felis::fluid
