// Serial-vs-OpenMP backend equivalence: the blocked-dispatch contract and the
// deterministic blocked reductions promise that every kernel produces the
// SAME BITS on every backend and thread count. These tests hold the code to
// that promise — element kernels, the dealiased advector, dots/CFL, and a
// full multi-step RBC solve are compared bitwise between a SerialBackend
// setup and OpenMpBackend setups at 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>

#include "case/rbc.hpp"
#include "device/backend.hpp"
#include "operators/ops.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"

namespace felis {
namespace {

mesh::HexMesh test_mesh() {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.lx = cfg.ly = 2.0;
  cfg.lz = 1.0;
  cfg.periodic_x = cfg.periodic_y = true;
  return make_box_mesh(cfg);
}

/// Smooth deterministic field from the node coordinates (identical for two
/// setups over the same mesh, regardless of backend).
RealVec smooth_field(const operators::Context& ctx, real_t mode) {
  RealVec f(ctx.num_dofs());
  for (usize i = 0; i < f.size(); ++i) {
    f[i] = std::sin(mode * ctx.coef->x[i] + 0.3) *
               std::cos(0.7 * mode * ctx.coef->y[i]) +
           0.25 * ctx.coef->z[i] * ctx.coef->z[i];
  }
  return f;
}

void expect_bitwise(const RealVec& a, const RealVec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " differs at dof " << i;
}

/// One serial and one OpenMP discretization of the same mesh; everything a
/// kernel-equivalence test needs.
class BackendEquivalence : public ::testing::TestWithParam<int> {
 protected:
  BackendEquivalence()
      : omp_(GetParam()),
        mesh_(test_mesh()),
        s_setup_(operators::make_rank_setup(mesh_, 5, comm_, true, true,
                                            &serial_)),
        p_setup_(operators::make_rank_setup(mesh_, 5, comm_, true, true,
                                            &omp_)) {}

  comm::SelfComm comm_;
  device::SerialBackend serial_;
  device::OpenMpBackend omp_;
  mesh::HexMesh mesh_;
  operators::RankSetup s_setup_;
  operators::RankSetup p_setup_;
};

TEST_P(BackendEquivalence, AxHelmholtzBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec u = smooth_field(sc, 2.0);
  RealVec a(sc.num_dofs()), b(pc.num_dofs());
  operators::ax_helmholtz(sc, u, a, 1.3, 0.4);
  operators::ax_helmholtz(pc, u, b, 1.3, 0.4);
  expect_bitwise(a, b, "ax_helmholtz");
}

TEST_P(BackendEquivalence, GradBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec u = smooth_field(sc, 3.0);
  const usize nd = sc.num_dofs();
  RealVec ax(nd), ay(nd), az(nd), bx(nd), by(nd), bz(nd);
  operators::grad(sc, u, ax, ay, az);
  operators::grad(pc, u, bx, by, bz);
  expect_bitwise(ax, bx, "grad.x");
  expect_bitwise(ay, by, "grad.y");
  expect_bitwise(az, bz, "grad.z");
}

TEST_P(BackendEquivalence, DivWeakBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec ux = smooth_field(sc, 1.0);
  const RealVec uy = smooth_field(sc, 2.0);
  const RealVec uz = smooth_field(sc, 3.0);
  RealVec a(sc.num_dofs()), b(pc.num_dofs());
  operators::div_weak(sc, ux, uy, uz, a);
  operators::div_weak(pc, ux, uy, uz, b);
  expect_bitwise(a, b, "div_weak");
}

TEST_P(BackendEquivalence, DiagHelmholtzBitwise) {
  const RealVec a = operators::diag_helmholtz(s_setup_.ctx(), 0.7, 1.9);
  const RealVec b = operators::diag_helmholtz(p_setup_.ctx(), 0.7, 1.9);
  expect_bitwise(a, b, "diag_helmholtz");
}

TEST_P(BackendEquivalence, AdvectorBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec cx = smooth_field(sc, 1.0);
  const RealVec cy = smooth_field(sc, 1.5);
  const RealVec cz = smooth_field(sc, 2.0);
  const RealVec u = smooth_field(sc, 2.5);
  operators::Advector adv_s(sc), adv_p(pc);
  adv_s.set_velocity(cx, cy, cz);
  adv_p.set_velocity(cx, cy, cz);
  RealVec a(sc.num_dofs(), 0.1), b(pc.num_dofs(), 0.1);
  adv_s.apply(u, a, -1.0);
  adv_p.apply(u, b, -1.0);
  expect_bitwise(a, b, "advector");
}

TEST_P(BackendEquivalence, DotsAndCflBitwise) {
  const operators::Context sc = s_setup_.ctx(), pc = p_setup_.ctx();
  const RealVec x = smooth_field(sc, 2.0);
  const RealVec y = smooth_field(sc, 4.0);
  EXPECT_EQ(operators::gdot(sc, x, y), operators::gdot(pc, x, y));
  EXPECT_EQ(operators::cfl(sc, x, y, x, 1e-2), operators::cfl(pc, x, y, x, 1e-2));
  RealVec ms = x, mp = x;
  operators::remove_mean(sc, ms);
  operators::remove_mean(pc, mp);
  expect_bitwise(ms, mp, "remove_mean");
}

TEST_P(BackendEquivalence, FullRbcStepBitwise) {
  // End-to-end: pressure GMRES + HSMG, velocity/temperature CG, advection,
  // forcing — a few full time steps must be bit-identical across backends.
  auto cs_setup = precon::make_coarse_setup(mesh_, comm_);
  auto cp_setup = precon::make_coarse_setup(mesh_, comm_);
  rbc::RbcConfig config;
  config.rayleigh = 1e4;
  config.dt = 2e-2;
  config.perturbation_lx = config.perturbation_ly = 2.0;
  config.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
  rbc::RbcSimulation sim_s(s_setup_.ctx(), cs_setup.ctx(), config);
  rbc::RbcSimulation sim_p(p_setup_.ctx(), cp_setup.ctx(), config);
  sim_s.set_initial_conditions();
  sim_p.set_initial_conditions();
  for (int s = 0; s < 3; ++s) {
    const fluid::StepInfo is = sim_s.step();
    const fluid::StepInfo ip = sim_p.step();
    EXPECT_EQ(is.cfl, ip.cfl) << "step " << s;
    EXPECT_EQ(is.divergence, ip.divergence) << "step " << s;
  }
  expect_bitwise(sim_s.solver().temperature(), sim_p.solver().temperature(),
                 "temperature");
  expect_bitwise(sim_s.solver().u(), sim_p.solver().u(), "u");
  expect_bitwise(sim_s.solver().v(), sim_p.solver().v(), "v");
  expect_bitwise(sim_s.solver().w(), sim_p.solver().w(), "w");
}

INSTANTIATE_TEST_SUITE_P(Threads, BackendEquivalence,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace felis
