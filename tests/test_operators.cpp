// Tests for the matrix-free operators: mass/stiffness exactness, operator
// symmetry on curved meshes, gradient/divergence identities, the exact
// assembled diagonal, CFL, and the dealiased advection operator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>

#include "field/kernel_cost.hpp"
#include "fluid/flow_solver.hpp"
#include "krylov/gmres.hpp"
#include "operators/ops.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"
#include "precon/fdm.hpp"

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

/// One rank's kernels on a fully periodic 3×3×3 box: every element face is
/// shared, so the gather–scatter's active dofs and ids are exactly
/// field::cost::gather_scatter_conforming's, with no id shared with another
/// rank.
struct KernelBench {
  comm::SelfComm comm;
  mesh::HexMesh mesh;
  RankSetup fine, coarse;
  RealVec a, b, c, out, dx, dy, dz, coarse_vec;

  explicit KernelBench(int degree) {
    mesh::BoxMeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 3;
    cfg.periodic_x = cfg.periodic_y = cfg.periodic_z = true;
    mesh = make_box_mesh(cfg);
    fine = make_rank_setup(mesh, degree, comm, true);
    coarse = precon::make_coarse_setup(mesh, comm);
    const Context ctx = fine.ctx();
    a = continuous_random_field(ctx, 1);
    b = continuous_random_field(ctx, 2);
    c = continuous_random_field(ctx, 3);
    for (RealVec* v : {&out, &dx, &dy, &dz}) v->assign(ctx.num_dofs(), 0.0);
    coarse_vec.assign(coarse.ctx().num_dofs(), 1.0);
  }
};

TEST(KernelCost, EachKernelChargesItsDeclaration) {
  namespace cost = field::cost;
  // Per element, in flops and 8-byte words, at n = 4 (m = 6) and n = 8
  // (m = 12), derived from each kernel's loops under kernel_cost.hpp's
  // convention; dof-wise kernels sweep n³ points per element.
  struct Row {
    const char* kernel;
    double flops[2];
    double words[2];
    double reductions;
    OpCounters (*declared)(double n, double m);
    /// Runs the kernel once; returns what else the call charges.
    OpCounters (*run)(KernelBench&);
  };
  const Row rows[] = {
      // x·y·w: 2 multiplies + 1 add, three arrays read: 3n³ each.
      {"glsc3", {192, 1536}, {192, 1536}, 1,
       [](double n, double) { return cost::glsc3(n * n * n); },
       [](KernelBench& k) {
         (void)glsc3(k.fine.ctx(), k.a, k.b, k.c);
         return OpCounters{};
       }},
      // mass·w, Σ·x, Σ (4) + shift (1); mass, w, x read + x updated: 5n³.
      {"remove_mean", {320, 2560}, {320, 2560}, 1,
       [](double n, double) { return cost::remove_mean(n * n * n); },
       [](KernelBench& k) {
         remove_mean(k.fine.ctx(), k.a);
         return OpCounters{};
       }},
      // Σ b·w, Σ w (3) + shift (1); b, w read + b updated: 4n³.
      {"remove_null_component", {256, 2048}, {256, 2048}, 1,
       [](double n, double) { return cost::remove_null_component(n * n * n); },
       [](KernelBench& k) {
         remove_null_component(k.fine.ctx(), k.a);
         return OpCounters{};
       }},
      // Six n×n sweeps 12n⁴, metric products 15n³, scaled sum 5n³; u and
      // six metrics read, out written: 8n³.
      {"ax_helmholtz", {4352, 59392}, {512, 4096}, 0,
       [](double n, double) { return cost::ax_helmholtz(n, 1, false); },
       [](KernelBench& k) {
         ax_helmholtz(k.fine.ctx(), k.a, k.out, 1.0, 0.0);
         return OpCounters{};
       }},
      // With h2 ≠ 0: + h2·B·u (3n³) and the mass read.
      {"ax_helmholtz+mass", {4544, 60928}, {576, 4608}, 0,
       [](double n, double) { return cost::ax_helmholtz(n, 1, true); },
       [](KernelBench& k) {
         ax_helmholtz(k.fine.ctx(), k.a, k.out, 1.0, 0.5);
         return OpCounters{};
       }},
      // Three n×n sweeps 6n⁴, three components of 5 flops; u and nine drdx
      // read, three components written: 13n³.
      {"grad", {2496, 32256}, {832, 6656}, 0,
       [](double n, double) { return cost::grad(n, 1); },
       [](KernelBench& k) {
         grad(k.fine.ctx(), k.a, k.dx, k.dy, k.dz);
         return OpCounters{};
       }},
      // Fluxes 18n³, mass scaling 3n³, three sweeps 6n⁴, sum 2n³; three
      // components, nine drdx and mass read, out written: 14n³.
      {"div_weak", {3008, 36352}, {896, 7168}, 0,
       [](double n, double) { return cost::div_weak(n, 1); },
       [](KernelBench& k) {
         div_weak(k.fine.ctx(), k.a, k.b, k.c, k.out);
         return OpCounters{};
       }},
      // Three n-term D² sums 6n⁴, cross terms 12n³, h1·v + h2·B 3n³; six
      // metrics and mass read, diagonal written: 8n³. Assembled by a
      // gather–scatter.
      {"diag_helmholtz", {2496, 32256}, {512, 4096}, 0,
       [](double n, double) { return cost::diag_helmholtz(n, 1); },
       [](KernelBench& k) {
         (void)diag_helmholtz(k.fine.ctx(), 1.0, 0.5);
         return cost::gather_scatter_conforming(
             k.fine.space.n, k.fine.ctx().num_elements(), 0);
       }},
      // Per axis 3 multiply-adds and |u|/Δr + sum: 24n³; velocity and nine
      // drdx read: 12n³.
      {"cfl", {1536, 12288}, {768, 6144}, 1,
       [](double n, double) { return cost::cfl(n, 1); },
       [](KernelBench& k) {
         (void)cfl(k.fine.ctx(), k.a, k.b, k.c, 0.1);
         return OpCounters{};
       }},
      // 3·(2mn³ + 2m²n² + 2m³n) + 21m³; three components, wjac and nine
      // drdx on the Gauss grid read, three fluxes written: 3n³ + 13m³.
      {"advector_set_velocity", {15480, 211392}, {3000, 24000}, 0,
       [](double n, double m) { return cost::advector_set_velocity(n, m, 1); },
       [](KernelBench& k) {
         Advector adv(k.fine.ctx());
         adv.set_velocity(k.a, k.b, k.c);
         return OpCounters{};
       }},
      // 6mn³ + 8m²n² + 8m³n + 5m³ + 2n³; u and three fluxes read, out
      // updated: 3n³ + 3m³. (set_velocity's charge is removed first.)
      {"advector_apply", {15032, 230848}, {840, 6720}, 0,
       [](double n, double m) { return cost::advector_apply(n, m, 1); },
       [](KernelBench& k) {
         Advector adv(k.fine.ctx());
         adv.set_velocity(k.a, k.b, k.c);
         adv.apply(k.a, k.out, 1.0);
         const field::Space& sp = k.fine.space;
         return cost::advector_set_velocity(sp.n, sp.nd,
                                            k.fine.ctx().num_elements());
       }},
      // Two transforms of three n×n sweeps 12n⁴, λ sum and divide 3n³; r
      // read, z written, six n×n matrices and three λ vectors: 2n³+6n²+3n.
      {"fdm_apply", {3264, 50688}, {236, 1432}, 0,
       [](double n, double) { return cost::fdm_apply(n, 1); },
       [](KernelBench& k) {
         const precon::FdmSolver fdm(k.fine.ctx());
         k.fine.prof->reset();
         fdm.apply(k.a, k.out);
         return OpCounters{};
       }},
      // Surface nodes n³ − (n−2)³ active, 3(n−2)² + 3(n−2) + 1 ids:
      // dofs − ids combines; every dof read and written: 2·dofs. One rank
      // shares no id, so no partial is written and read back.
      {"gather_scatter_local", {37, 169}, {112, 592}, 0,
       [](double n, double) { return cost::gather_scatter_conforming(n, 1, 0); },
       [](KernelBench& k) {
         k.fine.gs->apply(k.a, gs::GsOp::kAdd, k.fine.prof.get());
         return OpCounters{};
       }},
      // Weighting n³, Jᵀ sweeps 4n³ + 8n² + 16n; r and w read, 8 vertex
      // values written: 2n³ + 8. Assembled by the coarse gather–scatter.
      {"coarse_restrict", {512, 3200}, {136, 1032}, 0,
       [](double n, double) { return cost::coarse_restrict(n, 1); },
       [](KernelBench& k) {
         const precon::CoarseSolver solver(k.fine.ctx(), k.coarse.ctx());
         k.fine.prof->reset();
         solver.restrict_residual(k.a, k.coarse_vec);
         return cost::gather_scatter_conforming(
             2, k.fine.ctx().num_elements(), 0);
       }},
      // J sweeps 16n + 8n² + 4n³; 8 vertex values read, n³ written.
      {"coarse_prolong", {448, 2688}, {72, 520}, 0,
       [](double n, double) { return cost::coarse_prolong(n, 1); },
       [](KernelBench& k) {
         const precon::CoarseSolver solver(k.fine.ctx(), k.coarse.ctx());
         k.fine.prof->reset();
         solver.prolong(k.coarse_vec, k.out);
         return OpCounters{};
       }},
      // One basis vector: w·v·weight, 3n³ flops and words. One GMRES
      // iteration also applies the operator twice and takes two norms.
      {"gmres_batched_dots", {192, 1536}, {192, 1536}, 1,
       [](double n, double) { return cost::gmres_batched_dots(n * n * n, 1); },
       [](KernelBench& k) {
         const Context ctx = k.fine.ctx();
         krylov::HelmholtzOperator op(ctx, 1.0, 0.0, {});
         krylov::JacobiPrecon jacobi(diag_helmholtz(ctx, 1.0, 0.0));
         k.fine.prof->reset();
         const krylov::GmresSolver gmres(ctx);
         (void)gmres.solve(op, jacobi, k.a, k.out, {0.0, 0.0, 1}, false);
         const double e = ctx.num_elements(), n = k.fine.space.n;
         return (cost::ax_helmholtz(n, e, false) +
                 cost::gather_scatter_conforming(n, e, 0) +
                 cost::glsc3(e * n * n * n)) *
                2;
       }},
  };
  for (const int degree : {3, 7}) {
    KernelBench bench(degree);
    const double n = bench.fine.space.n, m = bench.fine.space.nd;
    const double elements = bench.fine.ctx().num_elements();
    const usize d = degree == 3 ? 0 : 1;
    for (const Row& row : rows) {
      SCOPED_TRACE(std::string(row.kernel) + " at degree " +
                   std::to_string(degree));
      const OpCounters declared = row.declared(n, m);
      EXPECT_EQ(declared.flops, row.flops[d]);
      EXPECT_EQ(declared.bytes, row.words[d] * sizeof(real_t));
      EXPECT_EQ(declared.reductions, row.reductions);
      bench.fine.prof->reset();
      const OpCounters also = row.run(bench);
      const OpCounters charged = bench.fine.prof->root().inclusive_counters();
      EXPECT_EQ(charged.flops - also.flops, elements * row.flops[d]);
      EXPECT_EQ(charged.bytes - also.bytes,
                elements * row.words[d] * sizeof(real_t));
      EXPECT_EQ(charged.reductions - also.reductions, row.reductions);
    }
  }
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
