// Validation of the flow solver:
//  * IMEX coefficient tables;
//  * analytic Taylor–Green vortex decay in a periodic box (exercises the full
//    splitting: dealiased convection, pressure projection, viscous solve);
//  * temporal convergence of the splitting scheme;
//  * hydrostatic balance of the conduction state (buoyancy absorbed into
//    pressure, velocity stays zero);
//  * onset of Rayleigh–Bénard convection around the critical Rayleigh number
//    (decay below, growth above — the classic linear-stability check);
//  * multi-rank runs match the serial solution.
#include <gtest/gtest.h>

#include <cmath>

#include "case/rbc.hpp"
#include "fluid/flow_solver.hpp"
#include "fluid/time_scheme.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"

namespace felis::fluid {
namespace {

TEST(ImexCoefficients, ConsistencyConditions) {
  for (int order = 1; order <= 3; ++order) {
    const ImexCoefficients c = imex_coefficients(order);
    // BDF consistency: b0 = Σ a_j (constants are preserved) and first-order
    // condition Σ j·a_j = b0... (equivalently the scheme differentiates
    // polynomials up to `order` exactly).
    real_t sum_a = 0, sum_e = 0;
    for (int j = 0; j < order; ++j) {
      sum_a += c.a[static_cast<usize>(j)];
      sum_e += c.e[static_cast<usize>(j)];
    }
    EXPECT_NEAR(sum_a, c.b0, 1e-14) << "order " << order;
    EXPECT_NEAR(sum_e, 1.0, 1e-14) << "order " << order;
    // Exact differentiation of u(t) = t: (b0·t_{n+1} − Σ a_j t_{n+1-j}) = dt.
    real_t deriv = c.b0 * 3.0;
    for (int j = 0; j < order; ++j)
      deriv -= c.a[static_cast<usize>(j)] * (3.0 - (j + 1));
    EXPECT_NEAR(deriv, 1.0, 1e-13) << "order " << order;
    // EXT extrapolates polynomials of degree order-1 exactly: u(t)=t at
    // t_{n+1}=3 from history 2,1,0.
    if (order >= 2) {
      real_t extrap = 0;
      for (int j = 0; j < order; ++j)
        extrap += c.e[static_cast<usize>(j)] * (3.0 - (j + 1));
      EXPECT_NEAR(extrap, 3.0, 1e-13) << "order " << order;
    }
  }
  EXPECT_THROW(imex_coefficients(4), Error);
  EXPECT_EQ(startup_order(0, 3), 1);
  EXPECT_EQ(startup_order(1, 3), 2);
  EXPECT_EQ(startup_order(5, 3), 3);
}

struct TgSetup {
  operators::RankSetup fine;
  operators::RankSetup coarse;
  std::unique_ptr<FlowSolver> solver;
};

/// Periodic 2π box with the 2-D Taylor–Green initial condition, an exact
/// Navier–Stokes solution: u = sin x cos y·e^{-2νt}, v = -cos x sin y·e^{-2νt}.
TgSetup make_taylor_green(comm::Communicator& comm, int degree, real_t dt,
                          real_t viscosity) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.lx = cfg.ly = cfg.lz = 2 * M_PI;
  cfg.periodic_x = cfg.periodic_y = cfg.periodic_z = true;
  const mesh::HexMesh mesh = make_box_mesh(cfg);

  TgSetup tg;
  tg.fine = operators::make_rank_setup(mesh, degree, comm, true);
  tg.coarse = precon::make_coarse_setup(mesh, comm);
  FlowConfig flow;
  flow.dt = dt;
  flow.viscosity = viscosity;
  flow.buoyancy = 0;
  flow.solve_scalar = false;
  flow.velocity_walls = {};
  flow.scalar_dirichlet = {};
  flow.pressure_control.abs_tol = 1e-10;
  flow.velocity_control.abs_tol = 1e-12;
  tg.solver = std::make_unique<FlowSolver>(tg.fine.ctx(), tg.coarse.ctx(), flow);

  const operators::Context ctx = tg.fine.ctx();
  RealVec& u = tg.solver->u();
  RealVec& v = tg.solver->v();
  for (usize i = 0; i < u.size(); ++i) {
    u[i] = std::sin(ctx.coef->x[i]) * std::cos(ctx.coef->y[i]);
    v[i] = -std::cos(ctx.coef->x[i]) * std::sin(ctx.coef->y[i]);
  }
  return tg;
}

real_t taylor_green_error(const TgSetup& tg, real_t viscosity, real_t time) {
  const operators::Context ctx = tg.fine.ctx();
  const real_t decay = std::exp(-2 * viscosity * time);
  real_t err = 0;
  const RealVec& u = tg.solver->u();
  const RealVec& v = tg.solver->v();
  const RealVec& w = tg.solver->w();
  for (usize i = 0; i < u.size(); ++i) {
    const real_t ue = std::sin(ctx.coef->x[i]) * std::cos(ctx.coef->y[i]) * decay;
    const real_t ve = -std::cos(ctx.coef->x[i]) * std::sin(ctx.coef->y[i]) * decay;
    err = std::max(err, std::abs(u[i] - ue));
    err = std::max(err, std::abs(v[i] - ve));
    err = std::max(err, std::abs(w[i]));
  }
  return err;
}

TEST(TaylorGreen, MatchesAnalyticDecay) {
  comm::SelfComm comm;
  const real_t nu = 0.1, dt = 0.01;
  TgSetup tg = make_taylor_green(comm, 6, dt, nu);
  StepInfo info;
  for (int s = 0; s < 20; ++s) info = tg.solver->step();
  EXPECT_LT(info.cfl, 0.5);
  // The non-rotational splitting leaves O(ν·dt) divergence in u^{n+1}
  // (the viscous solve perturbs the projected field); this is inherent,
  // not a solver failure.
  EXPECT_LT(info.divergence, 5e-3);
  const real_t err = taylor_green_error(tg, nu, tg.solver->time());
  EXPECT_LT(err, 2e-4) << "max error after 20 steps";
}

TEST(TaylorGreen, TemporalConvergenceOfSplitting) {
  // Prime the BDF/EXT histories with analytic states (via the restart
  // interface) so the run starts at full order, and self-converge against a
  // fine-dt reference on the SAME mesh. At high spatial resolution the
  // temporal error of the BDF3/EXT3 splitting dominates; at the smallest
  // steps a spectrally-small O(ν·dt·ε_h) splitting deposit remains (the
  // equal-order PN–PN velocity/pressure inconsistency, shared by the
  // Nek-family schemes) — hence the convergence assertion targets the
  // large-step regime and absolute accuracy.
  comm::SelfComm comm;
  const real_t nu = 0.1;
  const real_t t_end = 0.36;
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.lx = cfg.ly = cfg.lz = 2 * M_PI;
  cfg.periodic_x = cfg.periodic_y = cfg.periodic_z = true;
  const mesh::HexMesh mesh = make_box_mesh(cfg);

  const auto run = [&](real_t dt) {
    auto fine = operators::make_rank_setup(mesh, 9, comm, true);
    auto coarse = precon::make_coarse_setup(mesh, comm);
    FlowConfig flow;
    flow.dt = dt;
    flow.viscosity = nu;
    flow.buoyancy = 0;
    flow.solve_scalar = false;
    flow.velocity_walls = {};
    flow.scalar_dirichlet = {};
    flow.pressure_control.abs_tol = 1e-12;
    flow.velocity_control.abs_tol = 1e-13;
    flow.max_cfl = 3.0;
    FlowSolver solver(fine.ctx(), coarse.ctx(), flow);
    const operators::Context ctx = fine.ctx();
    const usize nd = ctx.num_dofs();
    RealVec u(nd), v(nd), fx(nd), fy(nd);
    const RealVec zero(nd, 0.0);
    const auto fill = [&](real_t t, RealVec& uu, RealVec& vv, RealVec& ffx,
                          RealVec& ffy) {
      const real_t d = std::exp(-2 * nu * t);
      for (usize i = 0; i < nd; ++i) {
        const real_t x = ctx.coef->x[i], y = ctx.coef->y[i];
        uu[i] = std::sin(x) * std::cos(y) * d;
        vv[i] = -std::cos(x) * std::sin(y) * d;
        // Analytic convection term −(u·∇)u of the TG field.
        ffx[i] = -std::sin(x) * std::cos(x) * d * d;
        ffy[i] = -std::sin(y) * std::cos(y) * d * d;
      }
    };
    fill(0, solver.u(), solver.v(), fx, fy);
    fill(-dt, u, v, fx, fy);
    solver.set_velocity_history(1, u, v, zero);
    solver.set_forcing_history(0, fx, fy, zero);
    fill(-2 * dt, u, v, fx, fy);
    solver.set_velocity_history(2, u, v, zero);
    solver.set_forcing_history(1, fx, fy, zero);
    solver.set_step_index(10);  // skip the startup order ramp
    const int steps = static_cast<int>(std::round(t_end / dt));
    for (int s = 0; s < steps; ++s) solver.step();
    return solver.u();
  };

  const RealVec ref = run(0.0075);
  const RealVec a = run(0.12);
  const RealVec b = run(0.06);
  real_t ea = 0, eb = 0;
  for (usize i = 0; i < ref.size(); ++i) {
    ea = std::max(ea, std::abs(a[i] - ref[i]));
    eb = std::max(eb, std::abs(b[i] - ref[i]));
  }
  // Large steps are already very accurate (BDF3/EXT3) ...
  EXPECT_LT(ea, 2e-6);
  EXPECT_LT(eb, 5e-7);
  // ... and halving the step cuts the error by well over 2×.
  EXPECT_LT(eb, ea / 3.0) << "err(0.12)=" << ea << " err(0.06)=" << eb;
}

TEST(TaylorGreen, KineticEnergyNeverIncreases) {
  comm::SelfComm comm;
  TgSetup tg = make_taylor_green(comm, 5, 0.02, 0.05);
  const operators::Context ctx = tg.fine.ctx();
  const auto energy = [&] {
    return operators::glsc3(ctx, tg.solver->u(), tg.solver->u(),
                            ctx.gs->inverse_multiplicity()) +
           operators::glsc3(ctx, tg.solver->v(), tg.solver->v(),
                            ctx.gs->inverse_multiplicity());
  };
  real_t prev = energy();
  for (int s = 0; s < 10; ++s) {
    tg.solver->step();
    const real_t now = energy();
    EXPECT_LT(now, prev * (1 + 1e-10)) << "step " << s;
    prev = now;
  }
}

struct RbcSetup {
  operators::RankSetup fine;
  operators::RankSetup coarse;
  std::unique_ptr<rbc::RbcSimulation> sim;
};

/// Periodic-in-x-and-y slab at the critical wavelength of the no-slip RBC
/// problem (λ_c = 2π/3.117), plates at z = 0, 1.
RbcSetup make_rbc_slab(comm::Communicator& comm, real_t rayleigh, real_t dt,
                       real_t perturbation, int degree = 4) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = 3;
  cfg.ny = 3;
  cfg.nz = 3;
  cfg.lx = 2 * M_PI / 3.117;
  cfg.ly = 2 * M_PI / 3.117;
  cfg.lz = 1.0;
  cfg.periodic_x = cfg.periodic_y = true;
  cfg.grading_z = mesh::Grading::kUniform;
  const mesh::HexMesh mesh = make_box_mesh(cfg);

  RbcSetup s;
  s.fine = operators::make_rank_setup(mesh, degree, comm, true);
  s.coarse = precon::make_coarse_setup(mesh, comm);
  rbc::RbcConfig rc;
  rc.rayleigh = rayleigh;
  rc.prandtl = 1.0;
  rc.dt = dt;
  rc.perturbation = perturbation;
  rc.perturbation_lx = cfg.lx;
  rc.perturbation_ly = cfg.ly;
  rc.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
  s.sim = std::make_unique<rbc::RbcSimulation>(s.fine.ctx(), s.coarse.ctx(), rc);
  s.sim->set_initial_conditions();
  return s;
}

TEST(Rbc, ConductionStateIsHydrostaticEquilibrium) {
  // Pure conduction (no perturbation): T = 1 − z gives a curl-free buoyancy
  // absorbed entirely by the pressure; velocity must stay ~0 and Nu = 1.
  comm::SelfComm comm;
  RbcSetup s = make_rbc_slab(comm, 1e4, 0.02, /*perturbation=*/0.0);
  for (int step = 0; step < 15; ++step) s.sim->step();
  const rbc::RbcDiagnostics d = s.sim->diagnostics();
  EXPECT_LT(d.kinetic_energy, 1e-10);
  EXPECT_NEAR(d.nusselt_bottom, 1.0, 1e-6);
  EXPECT_NEAR(d.nusselt_top, 1.0, 1e-6);
  EXPECT_NEAR(d.nusselt_volume, 1.0, 1e-6);
  EXPECT_NEAR(d.temperature_mean, 0.5, 1e-10);
}

TEST(Rbc, PerturbationDecaysBelowCriticalRayleigh) {
  // Ra = 1000 << Ra_c = 1708: kinetic energy must decay.
  comm::SelfComm comm;
  RbcSetup s = make_rbc_slab(comm, 1000, 0.05, 1e-3);
  real_t ke_early = 0;
  for (int step = 0; step < 80; ++step) {
    s.sim->step();
    if (step == 19) ke_early = s.sim->diagnostics().kinetic_energy;
  }
  const real_t ke_late = s.sim->diagnostics().kinetic_energy;
  EXPECT_LT(ke_late, 0.3 * ke_early)
      << "early " << ke_early << " late " << ke_late;
}

TEST(Rbc, PerturbationGrowsAboveCriticalRayleigh) {
  // Ra = 4000 > Ra_c: convection sets in, kinetic energy grows.
  comm::SelfComm comm;
  RbcSetup s = make_rbc_slab(comm, 4000, 0.05, 1e-3);
  real_t ke_early = 0;
  for (int step = 0; step < 200; ++step) {
    s.sim->step();
    if (step == 19) ke_early = s.sim->diagnostics().kinetic_energy;
  }
  const real_t ke_late = s.sim->diagnostics().kinetic_energy;
  EXPECT_GT(ke_late, 3.0 * ke_early)
      << "early " << ke_early << " late " << ke_late;
}

class FluidRanks : public ::testing::TestWithParam<int> {};

TEST_P(FluidRanks, MultiRankMatchesSerialDiagnostics) {
  const int nranks = GetParam();
  // Run the same supercritical RBC case serially and distributed; compare
  // the (deterministic) diagnostics after a handful of steps.
  rbc::RbcDiagnostics serial_diag;
  {
    comm::SelfComm comm;
    RbcSetup s = make_rbc_slab(comm, 5000, 0.02, 1e-2, 3);
    for (int step = 0; step < 5; ++step) s.sim->step();
    serial_diag = s.sim->diagnostics();
  }
  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    RbcSetup s = make_rbc_slab(comm, 5000, 0.02, 1e-2, 3);
    for (int step = 0; step < 5; ++step) s.sim->step();
    const rbc::RbcDiagnostics d = s.sim->diagnostics();
    EXPECT_NEAR(d.kinetic_energy, serial_diag.kinetic_energy,
                1e-9 * std::max(serial_diag.kinetic_energy, real_t(1e-12)));
    EXPECT_NEAR(d.nusselt_volume, serial_diag.nusselt_volume, 1e-7);
    EXPECT_NEAR(d.nusselt_bottom, serial_diag.nusselt_bottom, 1e-7);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FluidRanks, ::testing::Values(2, 4));

TEST(FlowSolverTest, ProfilerRecordsPhaseTree) {
  comm::SelfComm comm;
  RbcSetup s = make_rbc_slab(comm, 2000, 0.02, 1e-3, 3);
  s.fine.prof->reset();
  s.sim->step();
  const RegionNode* step = s.fine.prof->find("step");
  ASSERT_NE(step, nullptr);
  EXPECT_NE(s.fine.prof->find("step/pressure"), nullptr);
  EXPECT_NE(s.fine.prof->find("step/velocity"), nullptr);
  EXPECT_NE(s.fine.prof->find("step/scalar"), nullptr);
  EXPECT_NE(s.fine.prof->find("step/forcing"), nullptr);
  // Counters flowed in.
  EXPECT_GT(step->inclusive_counters().flops, 0.0);
}

TEST(FlowSolverTest, CflGuardThrowsOnBlowup) {
  comm::SelfComm comm;
  TgSetup tg = make_taylor_green(comm, 4, 5.0 /* huge dt */, 0.01);
  EXPECT_THROW(tg.solver->step(), Error);
}

TEST(CaseFile, ConfigFromParams) {
  const auto p = ParamMap::parse(R"(
    case.Ra = 3e7
    case.Pr = 0.7
    case.dt = 5e-3
    case.perturbation = 0.05
    fluid.overlap = false
    fluid.use_projection = false
    fluid.gmres_restart = 40
    fluid.pressure_tol = 1e-6
  )");
  const rbc::RbcConfig config = rbc::config_from_params(p);
  EXPECT_DOUBLE_EQ(config.rayleigh, 3e7);
  EXPECT_DOUBLE_EQ(config.prandtl, 0.7);
  EXPECT_DOUBLE_EQ(config.dt, 5e-3);
  EXPECT_DOUBLE_EQ(config.perturbation, 0.05);
  EXPECT_EQ(config.flow.overlap, precon::OverlapMode::kSerial);
  EXPECT_FALSE(config.flow.use_projection);
  EXPECT_EQ(config.flow.gmres_restart, 40);
  EXPECT_DOUBLE_EQ(config.flow.pressure_control.abs_tol, 1e-6);
  // Defaults survive for unspecified keys.
  EXPECT_EQ(config.flow.coarse_iterations, 10);
  EXPECT_EQ(config.flow.max_order, 3);
}

TEST(CaseFile, MissingFlowKeysKeepTheCurrentValues) {
  // A case that layers its own solver defaults first keeps them for every
  // fluid.* key the file leaves out, the overlap mode included.
  FlowConfig config;
  config.overlap = precon::OverlapMode::kSerial;
  config.gmres_restart = 7;
  apply_flow_params(ParamMap::parse("fluid.use_projection = false"), config);
  EXPECT_EQ(config.overlap, precon::OverlapMode::kSerial);
  EXPECT_EQ(config.gmres_restart, 7);
  EXPECT_FALSE(config.use_projection);
  apply_flow_params(ParamMap::parse("fluid.overlap = true"), config);
  EXPECT_EQ(config.overlap, precon::OverlapMode::kTaskParallel);
}

}  // namespace
}  // namespace felis::fluid
