#include "case/rbc.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "case/registry.hpp"

namespace felis::rbc {

RbcConfig config_from_params(const ParamMap& params, RbcConfig defaults) {
  using namespace cases;
  RbcConfig config = std::move(defaults);
  config.rayleigh = kRa.get(params, config.rayleigh);
  config.prandtl = kPr.get(params, config.prandtl);
  config.dt = kDt.get(params, config.dt);
  config.rossby = kRo.get(params, config.rossby);
  config.perturbation = kPerturbation.get(params, config.perturbation);
  config.perturbation_lx = kPerturbLx.get(params, config.perturbation_lx);
  config.perturbation_ly = kPerturbLy.get(params, config.perturbation_ly);
  config.seed = static_cast<unsigned>(
      kSeed.get(params, static_cast<int>(config.seed)));
  fluid::apply_flow_params(params, config.flow);
  return config;
}

fluid::FlowConfig flow_config(const RbcConfig& config) {
  fluid::FlowConfig flow = config.flow;
  flow.dt = config.dt;
  flow.viscosity = rbc_viscosity(config.rayleigh, config.prandtl);
  flow.conductivity = rbc_conductivity(config.rayleigh, config.prandtl);
  flow.buoyancy = 1.0;
  flow.coriolis = (config.rossby > 0) ? 1.0 / config.rossby : 0.0;
  flow.solve_scalar = true;
  return flow;
}

void seed(fluid::FlowSolver& solver, const RbcConfig& config, real_t height,
          Profile profile) {
  const operators::Context& fine = solver.context();
  const usize nd = fine.num_dofs();
  RealVec& temp = solver.temperature();
  // The same phases are drawn either way so rbc2d differs from rbc only by
  // the dropped y-modes, not by a shifted random stream.
  std::mt19937 gen(config.seed);
  std::uniform_real_distribution<real_t> phase(0.0, 2 * M_PI);
  const real_t p1 = phase(gen), p2 = phase(gen), p3 = phase(gen);
  const real_t kx = 2 * M_PI / config.perturbation_lx;
  const real_t ky = 2 * M_PI / config.perturbation_ly;
  const bool flat_y = config.y_invariant;
  fine.dev().parallel_for_blocked(
      static_cast<lidx_t>(nd), /*grain=*/0,
      [&](lidx_t begin, lidx_t end, int /*worker*/) {
        for (lidx_t idx = begin; idx < end; ++idx) {
          const usize i = static_cast<usize>(idx);
          const real_t x = fine.coef->x[i];
          const real_t y = fine.coef->y[i];
          const real_t z = fine.coef->z[i] / height;
          const real_t envelope = std::sin(M_PI * z);
          const real_t noise =
              flat_y ? std::sin(kx * x + p1) + 0.5 * std::sin(2 * kx * x + p3)
                     : std::sin(kx * x + p1) * std::cos(ky * y + p2) +
                           0.5 * std::sin(2 * kx * x + p3) +
                           0.25 * std::cos(ky * y - p1);
          temp[i] = profile(z) + config.perturbation * envelope * noise;
        }
      });
  // Reconcile duplicates so the seed field is exactly continuous (relevant
  // across periodic seams).
  fine.gs->apply(temp, gs::GsOp::kAdd);
  operators::vec_mul(fine.dev(), fine.gs->inverse_multiplicity(), temp);
  for (auto* c : {&solver.u(), &solver.v(), &solver.w()})
    std::fill(c->begin(), c->end(), 0.0);
  solver.apply_boundary_conditions();
}

namespace {

/// Conduction between a hot bottom and a cold top plate.
real_t conduction_profile(real_t z) { return 1.0 - z; }

}  // namespace

RbcSimulation::RbcSimulation(const operators::Context& fine,
                             const operators::Context& coarse,
                             const RbcConfig& config, real_t height,
                             std::string type)
    : cases::Case(std::move(type), fine, coarse, flow_config(config), height),
      config_(config) {}

void RbcSimulation::set_initial_conditions() {
  seed(solver(), config_, height(), conduction_profile);
}

cases::Observables RbcSimulation::observables() const {
  const RbcDiagnostics d = diagnostics();
  return {{"nu_plate", 0.5 * (d.nusselt_bottom + d.nusselt_top)},
          {"nu_volume", d.nusselt_volume},
          {"kinetic_energy", d.kinetic_energy},
          {"temperature_mean", d.temperature_mean}};
}

cases::Observables RbcSimulation::parameters() const {
  cases::Observables p = {{"Ra", config_.rayleigh}, {"Pr", config_.prandtl}};
  if (config_.rossby > 0) p["Ro"] = config_.rossby;
  return p;
}

RbcDiagnostics RbcSimulation::diagnostics() const {
  RbcDiagnostics d;
  const fluid::FlowSolver& solver = this->solver();
  const operators::Context& fine = this->fine();
  const real_t height = this->height();
  const usize nd = fine.num_dofs();
  const RealVec& temp = solver.temperature();
  const RealVec& w = solver.w();

  // Plate Nusselt numbers: area-weighted −∂T/∂z (top flux is −∂T/∂z too;
  // both equal Nu in steady state). Flux normalized by ΔT/H = 1/H.
  RealVec dtdx(nd), dtdy(nd), dtdz(nd);
  operators::grad(fine, temp, dtdx, dtdy, dtdz);
  for (const mesh::FaceTag tag : {mesh::FaceTag::kBottom, mesh::FaceTag::kTop}) {
    const cases::SurfaceFluxZ flux = cases::surface_flux_z(fine, dtdz, tag);
    const real_t nu =
        (flux.area > 0) ? height * flux.integral / flux.area : 0.0;
    if (tag == mesh::FaceTag::kBottom)
      d.nusselt_bottom = nu;
    else
      d.nusselt_top = nu;
  }

  // Volume averages. coef->mass is unassembled (element-local), so the plain
  // sum is already the exact quadrature: every element integrates its own
  // sub-volume and the fields are continuous across interfaces. Do NOT weight
  // by inverse multiplicity — that under-counts interface nodes, whose
  // per-copy mass is only a partial weight.
  const RealVec& mass = fine.coef->mass;
  real_t sums[4] = {0, 0, 0, 0};  // wT, |u|², T, volume
  const RealVec& u = solver.u();
  const RealVec& v = solver.v();
  fine.dev().reduce_sum(
      static_cast<lidx_t>(nd), 4, sums,
      [&](lidx_t begin, lidx_t end, real_t* acc) {
        for (lidx_t idx = begin; idx < end; ++idx) {
          const usize i = static_cast<usize>(idx);
          const real_t bw = mass[i];
          acc[0] += bw * w[i] * temp[i];
          acc[1] += bw * (u[i] * u[i] + v[i] * v[i] + w[i] * w[i]);
          acc[2] += bw * temp[i];
          acc[3] += bw;
        }
      });
  fine.comm->allreduce(sums, 4, comm::ReduceOp::kSum);
  const real_t vol = sums[3];
  d.nusselt_volume = 1.0 + std::sqrt(config_.rayleigh * config_.prandtl) *
                               sums[0] / vol * height;
  d.kinetic_energy = 0.5 * sums[1] / vol;
  d.temperature_mean = sums[2] / vol;
  return d;
}

}  // namespace felis::rbc
