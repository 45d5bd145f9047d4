#include "case/ihc.hpp"

#include <algorithm>

namespace felis::ihc {

namespace {

/// The non-rotating RBC flow with both plates cold (T = 0) and heat
/// entering as a uniform source q = κ/H² (strong form), chosen so the
/// diffusive equilibrium is T = z(H−z)/(2H²) with ⟨T⟩ = 1/12.
fluid::FlowConfig heated_flow(const rbc::RbcConfig& config, real_t height) {
  fluid::FlowConfig flow = rbc::flow_config(config);
  flow.coriolis = 0.0;
  flow.scalar_dirichlet = {{mesh::FaceTag::kBottom, 0.0},
                           {mesh::FaceTag::kTop, 0.0}};
  const real_t q = flow.conductivity / (height * height);
  flow.forcing_scalar = [q](real_t /*t*/, const field::Coef& /*coef*/,
                            RealVec& g) {
    std::fill(g.begin(), g.end(), q);
  };
  return flow;
}

/// The diffusive equilibrium at height fraction z.
real_t diffusive_profile(real_t z) { return 0.5 * z * (1.0 - z); }

}  // namespace

InternallyHeatedSimulation::InternallyHeatedSimulation(
    const operators::Context& fine, const operators::Context& coarse,
    const rbc::RbcConfig& config, real_t height, std::string type)
    : cases::Case(std::move(type), fine, coarse, heated_flow(config, height),
                  height),
      config_(config) {}

void InternallyHeatedSimulation::set_initial_conditions() {
  rbc::seed(solver(), config_, height(), diffusive_profile);
}

cases::Observables InternallyHeatedSimulation::observables() const {
  const fluid::FlowSolver& solver = this->solver();
  const operators::Context& fine = this->fine();
  const usize nd = fine.num_dofs();
  const RealVec& temp = solver.temperature();

  // Plate heat balance: out-flux is −κ∂T/∂n with outward normals, i.e.
  // κ·(I_top − I_bot) for I = ∫−∂T/∂z dA per plate; injected power is q·V.
  RealVec dtdx(nd), dtdy(nd), dtdz(nd);
  operators::grad(fine, temp, dtdx, dtdy, dtdz);
  const cases::SurfaceFluxZ top =
      cases::surface_flux_z(fine, dtdz, mesh::FaceTag::kTop);
  const cases::SurfaceFluxZ bottom =
      cases::surface_flux_z(fine, dtdz, mesh::FaceTag::kBottom);

  // Unassembled mass: the plain sum is the exact quadrature (see rbc.cpp).
  const RealVec& mass = fine.coef->mass;
  const RealVec& u = solver.u();
  const RealVec& v = solver.v();
  const RealVec& w = solver.w();
  real_t sums[3] = {0, 0, 0};  // T, |u|², volume
  fine.dev().reduce_sum(
      static_cast<lidx_t>(nd), 3, sums,
      [&](lidx_t begin, lidx_t end, real_t* acc) {
        for (lidx_t idx = begin; idx < end; ++idx) {
          const usize i = static_cast<usize>(idx);
          const real_t bw = mass[i];
          acc[0] += bw * temp[i];
          acc[1] += bw * (u[i] * u[i] + v[i] * v[i] + w[i] * w[i]);
          acc[2] += bw;
        }
      });
  fine.comm->allreduce(sums, 3, comm::ReduceOp::kSum);
  const real_t vol = sums[2];
  const real_t mean_t = sums[0] / vol;
  const real_t kappa = solver.config().conductivity;
  const real_t q = kappa / (height() * height());
  const real_t out_flux = kappa * (top.integral - bottom.integral);
  return {{"nu_plate", (vol > 0) ? out_flux / (q * vol) : 0.0},
          {"nu_volume", (mean_t > 0) ? (1.0 / 12.0) / mean_t : 0.0},
          {"kinetic_energy", 0.5 * sums[1] / vol},
          {"temperature_mean", mean_t}};
}

cases::Observables InternallyHeatedSimulation::parameters() const {
  return {{"Ra", config_.rayleigh}, {"Pr", config_.prandtl}};
}

}  // namespace felis::ihc
