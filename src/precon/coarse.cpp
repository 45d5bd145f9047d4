#include "precon/coarse.hpp"

#include "device/workspace.hpp"
#include "field/kernel_cost.hpp"
#include "quadrature/basis.hpp"

namespace felis::precon {

namespace {
/// The coarse context charging `prof`: the coarse grid's work is part of the
/// fine solve that calls it.
operators::Context charging(operators::Context coarse, Profiler* prof) {
  coarse.prof = prof;
  return coarse;
}
}  // namespace

operators::RankSetup make_coarse_setup(const mesh::HexMesh& global_mesh,
                                       comm::Communicator& comm) {
  static device::SerialBackend serial;
  operators::RankSetup s;
  auto locals = mesh::distribute_mesh(global_mesh, 1, comm.size());
  s.lmesh = std::move(locals[static_cast<usize>(comm.rank())]);
  s.space = field::Space::make(1);
  s.coef = field::build_coef(s.lmesh, s.space, false);
  // Channel 1: the coarse GS runs concurrently with the fine GS inside the
  // task-overlapped preconditioner and must use its own message stream.
  s.gs = std::make_unique<gs::GatherScatter>(s.lmesh, comm, /*channel=*/1,
                                             &serial);
  s.comm = &comm;
  s.backend = &serial;
  s.kernels = field::TensorKernels::for_order(s.space.n);
  return s;
}

operators::RankSetup make_coarse_setup(const mesh::HexMesh& global_mesh,
                                       comm::Communicator& comm,
                                       device::Backend* /*backend*/) {
  return make_coarse_setup(global_mesh, comm);
}

CoarseSolver::CoarseSolver(const operators::Context& fine,
                           const operators::Context& coarse, int iterations)
    : fine_(fine),
      coarse_(charging(coarse, fine.prof)),
      iterations_(iterations),
      cg_(coarse_) {
  FELIS_CHECK_MSG(fine_.num_elements() == coarse_.num_elements(),
                  "fine/coarse partitions disagree");
  FELIS_CHECK(coarse_.space->degree == 1);
  // Degree-1 nodal basis at the fine GLL points.
  const linalg::Matrix j =
      quadrature::interp_matrix({-1.0, 1.0}, fine_.space->gll_pts);
  j_.rows = j.rows();
  j_.cols = j.cols();
  j_.a.resize(static_cast<usize>(j_.rows) * static_cast<usize>(j_.cols));
  for (lidx_t r = 0; r < j.rows(); ++r)
    for (lidx_t c = 0; c < j.cols(); ++c)
      j_.a[static_cast<usize>(r) * static_cast<usize>(j_.cols) + static_cast<usize>(c)] =
          j(r, c);
  jt_.rows = j_.cols;
  jt_.cols = j_.rows;
  jt_.a.resize(j_.a.size());
  for (int r = 0; r < jt_.rows; ++r)
    for (int c = 0; c < jt_.cols; ++c)
      jt_.a[static_cast<usize>(r) * static_cast<usize>(jt_.cols) + static_cast<usize>(c)] =
          j_(c, r);

  op_ = std::make_unique<krylov::HelmholtzOperator>(coarse_, 1.0, 0.0,
                                                    std::vector<lidx_t>{});
  jacobi_ = std::make_unique<krylov::JacobiPrecon>(
      operators::diag_helmholtz(coarse_, 1.0, 0.0), coarse_.backend);
  rc_.resize(coarse_.num_dofs());
  zc_.resize(coarse_.num_dofs());
}

void CoarseSolver::restrict_residual(const RealVec& r_fine,
                                     RealVec& r_coarse) const {
  const int n = fine_.space->n;
  const lidx_t npe_f = fine_.space->nodes_per_element();
  const field::TensorKernels& kern = fine_.kern();
  const RealVec& w = fine_.gs->inverse_multiplicity();
  r_coarse.assign(coarse_.num_dofs(), 0.0);
  coarse_.dev().parallel_for_blocked(
      fine_.num_elements(), /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        device::WorkspaceFrame scratch;
        RealVec& rw = scratch.vec(static_cast<usize>(npe_f));
        RealVec& t1 = scratch.vec(static_cast<usize>(2 * n * n));
        RealVec& t2 = scratch.vec(static_cast<usize>(4 * n));
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base_f = static_cast<usize>(e) * static_cast<usize>(npe_f);
          const usize base_c = static_cast<usize>(e) * 8;
          for (lidx_t q = 0; q < npe_f; ++q)
            rw[static_cast<usize>(q)] = r_fine[base_f + static_cast<usize>(q)] *
                                        w[base_f + static_cast<usize>(q)];
          // Jᵀ along each axis: n×n×n → 2×n×n → 2×2×n → 2×2×2.
          kern.axis0(jt_, rw.data(), t1.data(), n, n);
          kern.axis1(jt_, t1.data(), t2.data(), 2, n);
          kern.axis2(jt_, t2.data(), r_coarse.data() + base_c, 2, 2);
        }
      });
  if (fine_.prof)
    fine_.prof->add(field::cost::coarse_restrict(n, fine_.num_elements()));
  coarse_.gs->apply(r_coarse, gs::GsOp::kAdd, coarse_.prof);
}

void CoarseSolver::prolong(const RealVec& z_coarse, RealVec& z_fine) const {
  const int n = fine_.space->n;
  const lidx_t npe_f = fine_.space->nodes_per_element();
  const field::TensorKernels& kern = fine_.kern();
  z_fine.resize(fine_.num_dofs());
  coarse_.dev().parallel_for_blocked(
      fine_.num_elements(), /*grain=*/0, [&](lidx_t e0, lidx_t e1, int /*worker*/) {
        device::WorkspaceFrame scratch;
        RealVec& t1 = scratch.vec(static_cast<usize>(n) * 4);
        RealVec& t2 =
            scratch.vec(static_cast<usize>(n) * static_cast<usize>(n) * 2);
        for (lidx_t e = e0; e < e1; ++e) {
          const usize base_f = static_cast<usize>(e) * static_cast<usize>(npe_f);
          const usize base_c = static_cast<usize>(e) * 8;
          // J along each axis: 2×2×2 → n×2×2 → n×n×2 → n×n×n.
          kern.axis0(j_, z_coarse.data() + base_c, t1.data(), 2, 2);
          kern.axis1(j_, t1.data(), t2.data(), n, 2);
          kern.axis2(j_, t2.data(), z_fine.data() + base_f, n, n);
        }
      });
  if (fine_.prof)
    fine_.prof->add(field::cost::coarse_prolong(n, fine_.num_elements()));
}

void CoarseSolver::solve(const RealVec& r_fine, RealVec& z_fine) {
  restrict_residual(r_fine, rc_);
  // The all-Neumann coarse problem carries the constant null space; project
  // the right-hand side onto range(A₀) or the fixed-iteration CG diverges
  // along constants.
  operators::remove_null_component(coarse_, rc_);
  std::fill(zc_.begin(), zc_.end(), 0.0);
  krylov::SolveControl control;
  // Approximate fixed-iteration solve (≈10 per the paper), but with a
  // relative stopping test: on small coarse grids CG can hit machine-zero
  // residual in fewer iterations, after which further iterations amplify
  // null-space roundoff of the singular all-Neumann operator.
  control.abs_tol = 0;
  control.rel_tol = 1e-8;
  control.max_iterations = iterations_;
  cg_.solve(*op_, *jacobi_, rc_, zc_, control);
  operators::remove_null_component(coarse_, zc_);
  prolong(zc_, z_fine);
}

}  // namespace felis::precon
