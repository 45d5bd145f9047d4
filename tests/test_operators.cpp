// Tests for the matrix-free operators: mass/stiffness exactness, operator
// symmetry on curved meshes, gradient/divergence identities, the exact
// assembled diagonal, CFL, and the dealiased advection operator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>

#include "fluid/flow_solver.hpp"
#include "operators/ops.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"

namespace felis::operators {
namespace {

RealVec continuous_random_field(const Context& ctx, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<real_t> dist(-1.0, 1.0);
  RealVec f(ctx.num_dofs());
  for (real_t& v : f) v = dist(gen);
  // Average duplicates to make the field continuous.
  ctx.gs->apply(f, gs::GsOp::kAdd);
  const RealVec& inv = ctx.gs->inverse_multiplicity();
  for (usize i = 0; i < f.size(); ++i) f[i] *= inv[i];
  return f;
}

RealVec eval(const Context& ctx, real_t (*fn)(real_t, real_t, real_t)) {
  RealVec f(ctx.num_dofs());
  for (usize i = 0; i < f.size(); ++i)
    f[i] = fn(ctx.coef->x[i], ctx.coef->y[i], ctx.coef->z[i]);
  return f;
}

TEST(MassMatrix, IntegratesPolynomialsExactly) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  comm::SelfComm comm;
  const auto setup = make_rank_setup(mesh, 5, comm, false);
  const Context ctx = setup.ctx();
  // ∫ x² y z over [0,1]³ = (1/3)(1/2)(1/2) = 1/12.
  const RealVec f = eval(ctx, [](real_t x, real_t y, real_t z) { return x * x * y * z; });
  real_t integral = 0;
  for (usize i = 0; i < f.size(); ++i) integral += ctx.coef->mass[i] * f[i];
  EXPECT_NEAR(integral, 1.0 / 12.0, 1e-13);
}

TEST(AxHelmholtz, StiffnessAnnihilatesConstants) {
  mesh::CylinderMeshConfig ccfg;
  ccfg.nc = 2;
  ccfg.nr = 2;
  ccfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_cylinder_mesh(ccfg), 4, comm, false);
  const Context ctx = setup.ctx();
  RealVec u(ctx.num_dofs(), 2.5), out(ctx.num_dofs());
  ax_helmholtz(ctx, u, out, 1.0, 0.0);
  for (const real_t v : out) EXPECT_NEAR(v, 0.0, 1e-11);
}

TEST(AxHelmholtz, MatchesAnalyticEnergyOnBox) {
  // Energy <u, A u> = ∫|∇u|² for u = x² on [0,1]³ equals ∫ 4x² = 4/3.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_box_mesh(cfg), 4, comm, false);
  const Context ctx = setup.ctx();
  const RealVec u = eval(ctx, [](real_t x, real_t, real_t) { return x * x; });
  RealVec au(ctx.num_dofs());
  ax_helmholtz(ctx, u, au, 1.0, 0.0);
  // Local moments: Σ u_i (A u)_i over L-vector equals the global energy.
  real_t energy = 0;
  for (usize i = 0; i < u.size(); ++i) energy += u[i] * au[i];
  EXPECT_NEAR(energy, 4.0 / 3.0, 1e-12);
}

class OperatorSymmetry : public ::testing::TestWithParam<int> {};

TEST_P(OperatorSymmetry, AssembledHelmholtzIsSymmetricOnCurvedMesh) {
  const int N = GetParam();
  mesh::CylinderMeshConfig ccfg;
  ccfg.nc = 2;
  ccfg.nr = 2;
  ccfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_cylinder_mesh(ccfg), N, comm, false);
  const Context ctx = setup.ctx();
  const RealVec u = continuous_random_field(ctx, 1);
  const RealVec v = continuous_random_field(ctx, 2);
  RealVec au(ctx.num_dofs()), av(ctx.num_dofs());
  ax_helmholtz(ctx, u, au, 0.7, 1.3);
  ax_helmholtz(ctx, v, av, 0.7, 1.3);
  ctx.gs->apply(au, gs::GsOp::kAdd);
  ctx.gs->apply(av, gs::GsOp::kAdd);
  const real_t uav = gdot(ctx, u, av);
  const real_t vau = gdot(ctx, v, au);
  EXPECT_NEAR(uav, vau, 1e-10 * std::max(std::abs(uav), real_t(1)));
}

INSTANTIATE_TEST_SUITE_P(Orders, OperatorSymmetry, ::testing::Values(2, 4, 7));

TEST(Grad, ExactForPolynomialsOnBox) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  cfg.lx = 2;
  cfg.ly = 1;
  cfg.lz = 1;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_box_mesh(cfg), 4, comm, false);
  const Context ctx = setup.ctx();
  const RealVec u =
      eval(ctx, [](real_t x, real_t y, real_t z) { return x * x * y + z * z * z; });
  RealVec dx(ctx.num_dofs()), dy(ctx.num_dofs()), dz(ctx.num_dofs());
  grad(ctx, u, dx, dy, dz);
  for (usize i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(dx[i], 2 * ctx.coef->x[i] * ctx.coef->y[i], 1e-11);
    EXPECT_NEAR(dy[i], ctx.coef->x[i] * ctx.coef->x[i], 1e-11);
    EXPECT_NEAR(dz[i], 3 * ctx.coef->z[i] * ctx.coef->z[i], 1e-11);
  }
}

TEST(Grad, ConvergesOnCurvedCylinder) {
  // Non-polynomial mapping: errors should fall fast with N.
  real_t prev_err = 1e30;
  for (const int N : {3, 5, 7}) {
    mesh::CylinderMeshConfig ccfg;
    ccfg.nc = 2;
    ccfg.nr = 2;
    ccfg.nz = 2;
    comm::SelfComm comm;
    const auto setup = make_rank_setup(make_cylinder_mesh(ccfg), N, comm, false);
    const Context ctx = setup.ctx();
    const RealVec u =
        eval(ctx, [](real_t x, real_t y, real_t z) { return std::sin(x + 2 * y) + z; });
    RealVec dx(ctx.num_dofs()), dy(ctx.num_dofs()), dz(ctx.num_dofs());
    grad(ctx, u, dx, dy, dz);
    real_t err = 0;
    for (usize i = 0; i < u.size(); ++i) {
      err = std::max(err, std::abs(dx[i] - std::cos(ctx.coef->x[i] + 2 * ctx.coef->y[i])));
      err = std::max(err, std::abs(dz[i] - 1.0));
    }
    EXPECT_LT(err, prev_err * 0.5) << "N=" << N;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-5);
}

TEST(DivWeak, MomentsMatchAnalyticIntegral) {
  // Σ_i φ_i · div_weak(u)_i = ∫ ∇φ·u for the interpolants; with φ = x + y
  // and u = (x, y, z) on [0,1]³ the exact value is ∫ (x + y) = 1.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_box_mesh(cfg), 4, comm, false);
  const Context ctx = setup.ctx();
  const RealVec phi = eval(ctx, [](real_t x, real_t y, real_t) { return x + y; });
  const RealVec ux = eval(ctx, [](real_t x, real_t, real_t) { return x; });
  const RealVec uy = eval(ctx, [](real_t, real_t y, real_t) { return y; });
  const RealVec uz = eval(ctx, [](real_t, real_t, real_t z) { return z; });
  RealVec m(ctx.num_dofs());
  div_weak(ctx, ux, uy, uz, m);
  real_t total = 0;
  for (usize i = 0; i < m.size(); ++i) total += phi[i] * m[i];
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DivStrong, ExactForLinearField) {
  mesh::CylinderMeshConfig ccfg;
  ccfg.nc = 2;
  ccfg.nr = 2;
  ccfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_cylinder_mesh(ccfg), 5, comm, false);
  const Context ctx = setup.ctx();
  const RealVec ux = eval(ctx, [](real_t x, real_t, real_t) { return 2 * x; });
  const RealVec uy = eval(ctx, [](real_t, real_t y, real_t) { return -3 * y; });
  const RealVec uz = eval(ctx, [](real_t, real_t, real_t z) { return z; });
  RealVec d(ctx.num_dofs());
  div_strong(ctx, ux, uy, uz, d);
  for (const real_t v : d) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(DiagHelmholtz, MatchesExplicitAssembledDiagonal) {
  mesh::CylinderMeshConfig ccfg;
  ccfg.nc = 2;
  ccfg.nr = 2;
  ccfg.nz = 2;
  comm::SelfComm comm;
  const int N = 3;
  const auto setup = make_rank_setup(make_cylinder_mesh(ccfg), N, comm, false);
  const Context ctx = setup.ctx();
  const real_t h1 = 0.9, h2 = 2.0;
  const RealVec diag = diag_helmholtz(ctx, h1, h2);
  // Probe a handful of global dofs: e_i as an L-vector is 1 on all
  // duplicates; (A e_i)_i assembled is the diagonal.
  std::mt19937 gen(3);
  std::uniform_int_distribution<usize> pick(0, ctx.num_dofs() - 1);
  for (int probe = 0; probe < 12; ++probe) {
    const usize dof = pick(gen);
    RealVec e(ctx.num_dofs(), 0.0);
    e[dof] = 1.0;
    ctx.gs->apply(e, gs::GsOp::kMax);  // 1 on every duplicate
    RealVec ae(ctx.num_dofs());
    ax_helmholtz(ctx, e, ae, h1, h2);
    ctx.gs->apply(ae, gs::GsOp::kAdd);
    EXPECT_NEAR(ae[dof], diag[dof], 1e-10 * std::max(std::abs(diag[dof]), real_t(1)))
        << "dof " << dof;
  }
}

TEST(Cfl, ScalesLinearlyWithVelocityAndDt) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_box_mesh(cfg), 5, comm, false);
  const Context ctx = setup.ctx();
  RealVec ux(ctx.num_dofs(), 1.0), uy(ctx.num_dofs(), 0.0), uz(ctx.num_dofs(), 0.0);
  const real_t c1 = cfl(ctx, ux, uy, uz, 0.01);
  EXPECT_GT(c1, 0.0);
  const real_t c2 = cfl(ctx, ux, uy, uz, 0.02);
  EXPECT_NEAR(c2, 2 * c1, 1e-12);
  for (real_t& v : ux) v = 3.0;
  EXPECT_NEAR(cfl(ctx, ux, uy, uz, 0.01), 3 * c1, 1e-12);
}

// NaN loses every comparison, so a max-reduction silently drops it: one NaN
// velocity node must still make cfl() +inf on every backend, and the
// solver's CFL guard must then stop the step.
TEST(Cfl, NonFiniteVelocityIsInfiniteAndStopsTheSolver) {
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  comm::SelfComm comm;
  device::SerialBackend serial;
  device::OpenMpBackend openmp(2);
  for (device::Backend* backend : {static_cast<device::Backend*>(&serial),
                                   static_cast<device::Backend*>(&openmp)}) {
    const auto setup = make_rank_setup(mesh, 5, comm, false, true, backend);
    const Context ctx = setup.ctx();
    RealVec ux(ctx.num_dofs(), 1.0), uy(ctx.num_dofs(), 0.0), uz(ctx.num_dofs(), 0.0);
    ux[ctx.num_dofs() / 2] = nan;
    EXPECT_EQ(cfl(ctx, ux, uy, uz, 0.01), std::numeric_limits<real_t>::infinity())
        << backend->name();
  }

  auto fine = make_rank_setup(mesh, 3, comm, true);
  auto coarse = precon::make_coarse_setup(mesh, comm);
  fluid::FlowSolver solver(fine.ctx(), coarse.ctx(), fluid::FlowConfig{});
  solver.u()[0] = nan;
  try {
    solver.step();
    ADD_FAILURE() << "step() ran with a NaN velocity";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos)
        << e.what();
  }
}

TEST(AdvectorTest, WeakMomentsExactForPolynomials) {
  // c = (1,0,0), u = x² → (c·∇)u = 2x; the weak moments must equal the mass
  // moments of 2x (dealiased quadrature is exact here).
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_box_mesh(cfg), 4, comm, true);
  const Context ctx = setup.ctx();
  Advector adv(ctx);
  const RealVec cx(ctx.num_dofs(), 1.0), cy(ctx.num_dofs(), 0.0),
      cz(ctx.num_dofs(), 0.0);
  adv.set_velocity(cx, cy, cz);
  const RealVec u = eval(ctx, [](real_t x, real_t, real_t) { return x * x; });
  RealVec out(ctx.num_dofs(), 0.0);
  adv.apply(u, out, 1.0);
  for (usize i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out[i], ctx.coef->mass[i] * 2.0 * ctx.coef->x[i], 1e-12);
}

TEST(AdvectorTest, EnergyConservationPeriodicBox) {
  // For divergence-free advecting velocity on a periodic domain,
  // ∫ u (c·∇u) = 0: the dealiased weak operator conserves energy to
  // quadrature accuracy.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.periodic_x = cfg.periodic_y = cfg.periodic_z = true;
  cfg.lx = cfg.ly = cfg.lz = 2 * M_PI;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_box_mesh(cfg), 6, comm, true);
  const Context ctx = setup.ctx();
  Advector adv(ctx);
  // Taylor–Green velocity (periodic, divergence free).
  const RealVec cx =
      eval(ctx, [](real_t x, real_t y, real_t) { return std::sin(x) * std::cos(y); });
  const RealVec cy =
      eval(ctx, [](real_t x, real_t y, real_t) { return -std::cos(x) * std::sin(y); });
  const RealVec cz(ctx.num_dofs(), 0.0);
  adv.set_velocity(cx, cy, cz);
  RealVec conv(ctx.num_dofs(), 0.0);
  adv.apply(cx, conv, 1.0);
  // Energy moment: Σ u_i conv_i over the L-vector (each element counted once).
  real_t energy = 0, scale = 0;
  for (usize i = 0; i < conv.size(); ++i) {
    energy += cx[i] * conv[i];
    scale += std::abs(cx[i] * conv[i]);
  }
  EXPECT_LT(std::abs(energy), 1e-8 * std::max(scale, real_t(1)));
}

TEST(RemoveMean, ZeroesVolumeMean) {
  mesh::CylinderMeshConfig ccfg;
  ccfg.nc = 2;
  ccfg.nr = 2;
  ccfg.nz = 2;
  comm::SelfComm comm;
  const auto setup = make_rank_setup(make_cylinder_mesh(ccfg), 3, comm, false);
  const Context ctx = setup.ctx();
  RealVec f = eval(ctx, [](real_t x, real_t y, real_t z) { return 1 + x + y * z; });
  remove_mean(ctx, f);
  const RealVec& inv = ctx.gs->inverse_multiplicity();
  real_t mean = 0;
  for (usize i = 0; i < f.size(); ++i) mean += ctx.coef->mass[i] * inv[i] * f[i];
  EXPECT_NEAR(mean, 0.0, 1e-12);
}

}  // namespace
}  // namespace felis::operators
