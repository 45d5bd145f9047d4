#include "krylov/cg.hpp"

#include <cmath>

namespace felis::krylov {

SolveStats CgSolver::solve(LinearOperator& op, Preconditioner& precon,
                           const RealVec& b, RealVec& x,
                           const SolveControl& control) const {
  const usize nd = ctx_.num_dofs();
  FELIS_CHECK(b.size() == nd && x.size() == nd);
  SolveStats stats;

  device::Backend& dev = ctx_.dev();
  RealVec r(nd), z(nd), p(nd), w(nd);
  op.apply(x, w);
  operators::vec_sub(dev, b, w, r);

  stats.initial_residual = std::sqrt(operators::gdot(ctx_, r, r));
  stats.final_residual = stats.initial_residual;
  const real_t target = std::max(
      control.abs_tol, control.rel_tol > 0 ? control.rel_tol * stats.initial_residual
                                           : real_t(0));
  if (stats.initial_residual <= target) {
    stats.converged = true;
    return stats;
  }

  precon.apply(r, z);
  p = z;
  real_t rz = operators::gdot(ctx_, r, z);

  for (int it = 0; it < control.max_iterations; ++it) {
    op.apply(p, w);
    const real_t pw = operators::gdot(ctx_, p, w);
    if (pw == 0.0) {
      // p = 0 ⇒ the (preconditioned) residual is exactly zero: converged.
      stats.converged = true;
      return stats;
    }
    const real_t alpha = rz / pw;
    operators::vec_axpy(dev, alpha, p, x);
    operators::vec_axpy(dev, -alpha, w, r);
    stats.iterations = it + 1;
    stats.final_residual = std::sqrt(operators::gdot(ctx_, r, r));
    if (stats.final_residual <= target) {
      stats.converged = true;
      return stats;
    }
    precon.apply(r, z);
    const real_t rz_new = operators::gdot(ctx_, r, z);
    const real_t beta = rz_new / rz;
    rz = rz_new;
    operators::vec_xpay(dev, z, beta, p);
  }
  return stats;
}

}  // namespace felis::krylov
