// Tests for the pressure preconditioner stack: FDM element solves, the
// coarse-grid solver, and the two-level hybrid Schwarz multigrid (serial and
// task-overlapped) — including the key acceptance test: GMRES+HSMG must beat
// GMRES+Jacobi on iteration count for the pressure Poisson problem, and the
// overlapped variant must be exactly equivalent to the serial one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "krylov/gmres.hpp"
#include "precon/hsmg.hpp"

namespace felis::precon {
namespace {

using operators::Context;

struct PressureProblem {
  operators::RankSetup fine;
  operators::RankSetup coarse;
  RealVec rhs;
  RealVec exact;
};

/// All-Neumann Poisson on the unit box: p* = cos(πx)cos(2πy)cos(πz).
PressureProblem make_problem(const mesh::HexMesh& mesh, int degree,
                             comm::Communicator& comm) {
  PressureProblem prob;
  prob.fine = operators::make_rank_setup(mesh, degree, comm, false);
  prob.coarse = make_coarse_setup(mesh, comm);
  const Context ctx = prob.fine.ctx();
  prob.exact.resize(ctx.num_dofs());
  prob.rhs.resize(ctx.num_dofs());
  for (usize i = 0; i < prob.exact.size(); ++i) {
    const real_t p = std::cos(M_PI * ctx.coef->x[i]) *
                     std::cos(2 * M_PI * ctx.coef->y[i]) *
                     std::cos(M_PI * ctx.coef->z[i]);
    prob.exact[i] = p;
    prob.rhs[i] = ctx.coef->mass[i] * 6 * M_PI * M_PI * p;
  }
  ctx.gs->apply(prob.rhs, gs::GsOp::kAdd);
  return prob;
}

TEST(Fdm, SolvesSeparableProblemOnSingleBrick) {
  // One cube element with pure-Neumann ends: the FDM operator (without the
  // ghost coupling, since all faces are boundaries) is the exact spectral
  // operator, so FDM must invert ax_helmholtz on the mean-zero space.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 1;
  cfg.lx = cfg.ly = cfg.lz = 2.0;  // reference-size cube, length scale 1:1
  comm::SelfComm comm;
  const auto setup = operators::make_rank_setup(mesh::make_box_mesh(cfg), 6, comm, false);
  const Context ctx = setup.ctx();
  const FdmSolver fdm(ctx);
  // Build r = A u for a mean-zero u, then check FDM recovers u.
  RealVec u(ctx.num_dofs());
  for (usize i = 0; i < u.size(); ++i)
    u[i] = std::cos(M_PI * ctx.coef->x[i] / 2.0);
  operators::remove_mean(ctx, u);
  RealVec r(ctx.num_dofs()), z(ctx.num_dofs());
  operators::ax_helmholtz(ctx, u, r, 1.0, 0.0);
  fdm.apply(r, z);
  operators::remove_mean(ctx, z);
  for (usize i = 0; i < u.size(); ++i) EXPECT_NEAR(z[i], u[i], 1e-8);
}

TEST(Fdm, ApplyIsLinearAndBounded) {
  mesh::CylinderMeshConfig ccfg;
  ccfg.nc = 2;
  ccfg.nr = 2;
  ccfg.nz = 2;
  comm::SelfComm comm;
  const auto setup =
      operators::make_rank_setup(mesh::make_cylinder_mesh(ccfg), 5, comm, false);
  const Context ctx = setup.ctx();
  const FdmSolver fdm(ctx);
  RealVec r1(ctx.num_dofs()), r2(ctx.num_dofs());
  for (usize i = 0; i < r1.size(); ++i) {
    r1[i] = std::sin(0.1 * static_cast<real_t>(i));
    r2[i] = std::cos(0.07 * static_cast<real_t>(i));
  }
  RealVec z1(ctx.num_dofs()), z2(ctx.num_dofs()), z12(ctx.num_dofs());
  fdm.apply(r1, z1);
  fdm.apply(r2, z2);
  RealVec r12(ctx.num_dofs());
  for (usize i = 0; i < r12.size(); ++i) r12[i] = 2 * r1[i] - 3 * r2[i];
  fdm.apply(r12, z12);
  for (usize i = 0; i < z12.size(); ++i)
    EXPECT_NEAR(z12[i], 2 * z1[i] - 3 * z2[i], 1e-9);
}

TEST(Coarse, TransfersReproduceTrilinearFields) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  auto fine = operators::make_rank_setup(mesh::make_box_mesh(cfg), 5, comm, false);
  auto coarse = make_coarse_setup(mesh::make_box_mesh(cfg), comm);
  const Context fctx = fine.ctx();
  const Context cctx = coarse.ctx();
  CoarseSolver cs(fctx, cctx, 10);
  // Prolongation of the coarse nodal field x+2y-z is the same trilinear
  // function on the fine grid.
  RealVec zc(cctx.num_dofs());
  for (usize i = 0; i < zc.size(); ++i)
    zc[i] = cctx.coef->x[i] + 2 * cctx.coef->y[i] - cctx.coef->z[i];
  RealVec zf;
  cs.prolong(zc, zf);
  for (usize i = 0; i < zf.size(); ++i)
    EXPECT_NEAR(zf[i], fctx.coef->x[i] + 2 * fctx.coef->y[i] - fctx.coef->z[i], 1e-12);
}

TEST(Coarse, RestrictionIsTransposeOfProlongation) {
  // <R r, z>_c = <r, P z>_f with the inverse-multiplicity weighting folded
  // into the fine-side inner product.
  mesh::CylinderMeshConfig ccfg;
  ccfg.nc = 2;
  ccfg.nr = 2;
  ccfg.nz = 2;
  comm::SelfComm comm;
  const mesh::HexMesh mesh = make_cylinder_mesh(ccfg);
  auto fine = operators::make_rank_setup(mesh, 4, comm, false);
  auto coarse = make_coarse_setup(mesh, comm);
  const Context fctx = fine.ctx();
  const Context cctx = coarse.ctx();
  CoarseSolver cs(fctx, cctx, 10);
  RealVec r(fctx.num_dofs()), zc(cctx.num_dofs());
  for (usize i = 0; i < r.size(); ++i) r[i] = std::sin(0.3 * static_cast<real_t>(i));
  fctx.gs->apply(r, gs::GsOp::kAdd);  // assembled residual
  for (usize i = 0; i < zc.size(); ++i) zc[i] = std::cos(0.2 * static_cast<real_t>(i));
  cctx.gs->apply(zc, gs::GsOp::kAdd);
  const RealVec& winv_c = cctx.gs->inverse_multiplicity();
  for (usize i = 0; i < zc.size(); ++i) zc[i] *= winv_c[i];  // continuous field

  RealVec rc;
  cs.restrict_residual(r, rc);
  RealVec pz;
  cs.prolong(zc, pz);
  // Adjoint identity: Σ_unique rc·zc = Σ_local (Jᵀ W r)·zc = Σ_local (W r)·(J zc)
  // because rc is the gather-scattered sum and zc is continuous.
  const real_t lhs = operators::gdot(cctx, rc, zc);
  const RealVec& winv_f = fctx.gs->inverse_multiplicity();
  real_t rhs = 0;
  for (usize i = 0; i < r.size(); ++i) rhs += r[i] * winv_f[i] * pz[i];
  EXPECT_NEAR(lhs, rhs, 1e-10 * std::max(std::abs(lhs), real_t(1)));
}

TEST(Coarse, SolveReducesResidualOfSmoothError) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  comm::SelfComm comm;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  PressureProblem prob = make_problem(mesh, 4, comm);
  const Context fctx = prob.fine.ctx();
  const Context cctx = prob.coarse.ctx();
  CoarseSolver cs(fctx, cctx, 10);
  RealVec z;
  cs.solve(prob.rhs, z);
  // The coarse term R₀ᵀA₀⁻¹R₀ eliminates the *coarse-space* residual: after
  // the correction, the restriction of (rhs − A z) must be much smaller than
  // the restriction of rhs. (It need not shrink the full fine-space
  // residual — high-frequency content is the Schwarz smoother's job.)
  RealVec az(fctx.num_dofs());
  operators::ax_helmholtz(fctx, z, az, 1.0, 0.0);
  fctx.gs->apply(az, gs::GsOp::kAdd);
  RealVec res(fctx.num_dofs());
  for (usize i = 0; i < res.size(); ++i) res[i] = prob.rhs[i] - az[i];
  RealVec rc0, rc1;
  cs.restrict_residual(prob.rhs, rc0);
  cs.restrict_residual(res, rc1);
  operators::remove_mean(cctx, rc0);
  operators::remove_mean(cctx, rc1);
  const real_t norm0 = std::sqrt(operators::gdot(cctx, rc0, rc0));
  const real_t norm1 = std::sqrt(operators::gdot(cctx, rc1, rc1));
  // The reduction is substantial but not exact: A₀ is the *discretized*
  // degree-1 operator (as in Nek), not the Galerkin projection RᵀAP, and the
  // solve is a fixed 10-iteration PCG. End-to-end effectiveness is asserted
  // by the GMRES iteration-count test below.
  EXPECT_LT(norm1, 0.75 * norm0);
}

class HsmgRanks : public ::testing::TestWithParam<int> {};

TEST_P(HsmgRanks, GmresHsmgSolvesPressurePoissonFasterThanJacobi) {
  const int nranks = GetParam();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 4;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    PressureProblem prob = make_problem(mesh, 5, comm);
    const Context fctx = prob.fine.ctx();
    krylov::HelmholtzOperator op(fctx, 1.0, 0.0, {});
    krylov::GmresSolver gmres(fctx, 30);
    krylov::SolveControl control;
    control.abs_tol = 1e-9;
    control.max_iterations = 600;

    krylov::JacobiPrecon jacobi(operators::diag_helmholtz(fctx, 1.0, 0.0));
    RealVec x1(fctx.num_dofs(), 0.0);
    const auto s1 = gmres.solve(op, jacobi, prob.rhs, x1, control, true);

    HsmgPrecon hsmg(fctx, prob.coarse.ctx(), OverlapMode::kSerial);
    RealVec x2(fctx.num_dofs(), 0.0);
    const auto s2 = gmres.solve(op, hsmg, prob.rhs, x2, control, true);

    EXPECT_TRUE(s1.converged);
    EXPECT_TRUE(s2.converged);
    // The whole point of HSMG: far fewer Krylov iterations.
    EXPECT_LT(s2.iterations, s1.iterations / 2)
        << "jacobi=" << s1.iterations << " hsmg=" << s2.iterations;
    // And the answer is right.
    operators::remove_mean(fctx, x2);
    real_t err = 0;
    for (usize i = 0; i < x2.size(); ++i)
      err = std::max(err, std::abs(x2[i] - prob.exact[i]));
    EXPECT_LT(err, 5e-3);
  });
}

TEST_P(HsmgRanks, OverlappedVariantMatchesSerialExactly) {
  const int nranks = GetParam();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    PressureProblem prob = make_problem(mesh, 4, comm);
    const Context fctx = prob.fine.ctx();
    HsmgPrecon serial(fctx, prob.coarse.ctx(), OverlapMode::kSerial);
    HsmgPrecon overlapped(fctx, prob.coarse.ctx(), OverlapMode::kTaskParallel);
    RealVec z1, z2;
    Profiler& prof = *prob.fine.prof;
    prof.reset();
    serial.apply(prob.rhs, z1);
    const OpCounters by_serial = prof.root().inclusive_counters();
    prof.reset();
    overlapped.apply(prob.rhs, z2);
    const OpCounters by_overlapped = prof.root().inclusive_counters();
    ASSERT_EQ(z1.size(), z2.size());
    for (usize i = 0; i < z1.size(); ++i)
      ASSERT_NEAR(z1[i], z2[i], 1e-13) << "dof " << i;
    // Both modes charge the same work to the rank's Profiler, the coarse
    // grid's included: its CG's reductions (the fine term reduces nothing)
    // and, across ranks, its messages beyond the fine term's one exchange.
    EXPECT_EQ(by_serial.flops, by_overlapped.flops);
    EXPECT_EQ(by_serial.bytes, by_overlapped.bytes);
    EXPECT_EQ(by_serial.messages, by_overlapped.messages);
    EXPECT_EQ(by_serial.msg_bytes, by_overlapped.msg_bytes);
    EXPECT_EQ(by_serial.reductions, by_overlapped.reductions);
    EXPECT_GT(by_serial.reductions, 0.0);
    if (nranks > 1) {
      EXPECT_GT(by_serial.messages,
                static_cast<double>(prob.fine.gs->num_neighbors()));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HsmgRanks, ::testing::Values(1, 2, 4));

TEST(Hsmg, TraceRecordsBothTerms) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  comm::SelfComm comm;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  PressureProblem prob = make_problem(mesh, 4, comm);
  const Context fctx = prob.fine.ctx();
  HsmgPrecon hsmg(fctx, prob.coarse.ctx(), OverlapMode::kTaskParallel);
  device::TraceRecorder trace;
  hsmg.set_trace(&trace);
  trace.start();
  RealVec z;
  hsmg.apply(prob.rhs, z);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  bool has_coarse = false, has_schwarz = false;
  for (const auto& e : events) {
    if (e.name == "coarse") {
      has_coarse = true;
      EXPECT_EQ(e.stream, 1);
    }
    if (e.name == "schwarz") {
      has_schwarz = true;
      EXPECT_EQ(e.stream, 0);
    }
  }
  EXPECT_TRUE(has_coarse);
  EXPECT_TRUE(has_schwarz);
}

/// Rank 0's communicator, counting the receives and allreduces it enters
/// once armed, so that rank 1 can tell when they are pending.
class PendingCounter final : public comm::Communicator {
 public:
  PendingCounter(comm::Communicator& inner, std::atomic<int>& entered)
      : inner_(inner), entered_(entered) {}
  void arm() { armed_ = true; }

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  void barrier() override { inner_.barrier(); }
  void allreduce(real_t* data, usize count, comm::ReduceOp op) override {
    enter();
    inner_.allreduce(data, count, op);
  }
  void allreduce(gidx_t* data, usize count, comm::ReduceOp op) override {
    enter();
    inner_.allreduce(data, count, op);
  }
  std::vector<std::vector<std::byte>> allgatherv_bytes(
      const std::vector<std::byte>& mine) override {
    return inner_.allgatherv_bytes(mine);
  }
  void send_bytes(int dest, int tag, const void* data, usize bytes) override {
    inner_.send_bytes(dest, tag, data, bytes);
  }
  std::vector<std::byte> recv_bytes(int source, int tag) override {
    enter();
    return inner_.recv_bytes(source, tag);
  }

 private:
  void enter() {
    if (armed_) entered_.fetch_add(1);
  }
  comm::Communicator& inner_;
  std::atomic<int>& entered_;
  std::atomic<bool> armed_{false};
};

TEST(Hsmg, AFailedPeerUnblocksBothOverlappedTerms) {
  // Rank 1 fails instead of calling apply while rank 0 is inside the
  // task-overlapped apply: its coarse task (coarse stream) and its fine term
  // (rank thread) each wait for rank 1 in a gather-scatter receive. Both
  // must unblock, apply must wait for the coarse task (which reads the
  // residual) before it unwinds, and run_parallel must rethrow rank 1's error.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  std::atomic<int> pending{0};
  try {
    comm::run_parallel(2, [&](comm::Communicator& world) {
      PendingCounter counted(world, pending);
      comm::Communicator& comm = world.rank() == 0 ? counted : world;
      PressureProblem prob = make_problem(mesh, 4, comm);
      HsmgPrecon hsmg(prob.fine.ctx(), prob.coarse.ctx(), OverlapMode::kTaskParallel);
      if (comm.rank() == 1) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (pending.load() < 2 && std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        EXPECT_EQ(pending.load(), 2);
        throw Error("rank 1 failed");
      }
      counted.arm();
      RealVec z;
      EXPECT_THROW(hsmg.apply(prob.rhs, z), comm::PeerFailed);
    });
    ADD_FAILURE() << "run_parallel returned normally";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 1 failed");
  }
}

}  // namespace
}  // namespace felis::precon
