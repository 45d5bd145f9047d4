#include "krylov/gmres.hpp"

#include <cmath>

namespace felis::krylov {

SolveStats GmresSolver::solve(LinearOperator& op, Preconditioner& precon,
                              const RealVec& b, RealVec& x,
                              const SolveControl& control,
                              bool null_space_mean) const {
  const usize nd = ctx_.num_dofs();
  FELIS_CHECK(b.size() == nd && x.size() == nd);
  const int m = restart_;
  SolveStats stats;

  RealVec b_eff = b;
  if (null_space_mean) {
    // Project the RHS onto range(A) (constants are null): without this the
    // iteration diverges along the constant vector.
    operators::remove_null_component(ctx_, b_eff);
    operators::remove_mean(ctx_, x);
  }

  // Krylov basis (m+1 vectors) and Hessenberg in Givens-rotated form.
  std::vector<RealVec> v(static_cast<usize>(m) + 1, RealVec(nd));
  std::vector<RealVec> z(static_cast<usize>(m), RealVec(nd));
  std::vector<RealVec> h(static_cast<usize>(m),
                         RealVec(static_cast<usize>(m) + 1, 0.0));
  RealVec cs(static_cast<usize>(m), 0.0), sn(static_cast<usize>(m), 0.0),
      gamma(static_cast<usize>(m) + 1, 0.0);
  RealVec w(nd);
  device::Backend& dev = ctx_.dev();

  real_t target = -1;
  for (int outer = 0; outer * m < control.max_iterations || outer == 0; ++outer) {
    // r = b - A x.
    op.apply(x, w);
    operators::vec_sub(dev, b_eff, w, v[0]);
    if (null_space_mean) operators::remove_null_component(ctx_, v[0]);
    const real_t beta = std::sqrt(operators::gdot(ctx_, v[0], v[0]));
    if (outer == 0) {
      stats.initial_residual = beta;
      target = std::max(control.abs_tol,
                        control.rel_tol > 0 ? control.rel_tol * beta : real_t(0));
    }
    stats.final_residual = beta;
    if (beta <= target) {
      stats.converged = true;
      return stats;
    }
    const real_t inv_beta = 1.0 / beta;
    operators::vec_scale(dev, inv_beta, v[0]);
    gamma[0] = beta;
    std::fill(gamma.begin() + 1, gamma.end(), 0.0);

    int k = 0;
    bool happy = false;    ///< breakdown with exact solution in the space
    bool stalled = false;  ///< degenerate breakdown with no progress possible
    for (; k < m && stats.iterations < control.max_iterations; ++k) {
      // w = A M⁻¹ v_k  (right preconditioning).
      precon.apply(v[static_cast<usize>(k)], z[static_cast<usize>(k)]);
      op.apply(z[static_cast<usize>(k)], w);
      if (null_space_mean) operators::remove_null_component(ctx_, w);
      if (batched_orthogonalization_) {
        // Classical Gram–Schmidt: all k+1 basis dots in ONE reduction.
        const RealVec& weight = ctx_.gs->inverse_multiplicity();
        RealVec dots(static_cast<usize>(k) + 1, 0.0);
        for (int j = 0; j <= k; ++j) {
          const RealVec& vj = v[static_cast<usize>(j)];
          dots[static_cast<usize>(j)] =
              dev.reduce_sum(static_cast<lidx_t>(nd), [&](lidx_t begin,
                                                          lidx_t end) {
                real_t s = 0;
                for (lidx_t i = begin; i < end; ++i) {
                  const usize u = static_cast<usize>(i);
                  s += w[u] * vj[u] * weight[u];
                }
                return s;
              });
        }
        ctx_.comm->allreduce(dots.data(), dots.size(), comm::ReduceOp::kSum);
        if (ctx_.prof) ctx_.prof->add_reduction();
        for (int j = 0; j <= k; ++j) {
          h[static_cast<usize>(k)][static_cast<usize>(j)] = dots[static_cast<usize>(j)];
          operators::vec_axpy(dev, -dots[static_cast<usize>(j)],
                              v[static_cast<usize>(j)], w);
        }
      } else {
        // Modified Gram–Schmidt (one reduction per basis vector).
        for (int j = 0; j <= k; ++j) {
          const real_t hjk = operators::gdot(ctx_, w, v[static_cast<usize>(j)]);
          h[static_cast<usize>(k)][static_cast<usize>(j)] = hjk;
          operators::vec_axpy(dev, -hjk, v[static_cast<usize>(j)], w);
        }
      }
      const real_t hk1 = std::sqrt(operators::gdot(ctx_, w, w));
      h[static_cast<usize>(k)][static_cast<usize>(k) + 1] = hk1;
      if (hk1 > 0) {
        operators::vec_scaled(dev, 1.0 / hk1, w, v[static_cast<usize>(k) + 1]);
      }
      // Apply previous Givens rotations to the new column.
      for (int j = 0; j < k; ++j) {
        const real_t t = cs[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j)] +
                         sn[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j) + 1];
        h[static_cast<usize>(k)][static_cast<usize>(j) + 1] =
            -sn[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j)] +
            cs[static_cast<usize>(j)] * h[static_cast<usize>(k)][static_cast<usize>(j) + 1];
        h[static_cast<usize>(k)][static_cast<usize>(j)] = t;
      }
      // New rotation annihilating h(k+1,k).
      const real_t a = h[static_cast<usize>(k)][static_cast<usize>(k)];
      const real_t bb = h[static_cast<usize>(k)][static_cast<usize>(k) + 1];
      const real_t rho = std::hypot(a, bb);
      if (rho == 0) {
        // Degenerate breakdown: the rotated column vanished entirely, so
        // A·z_k added no information (only reachable for a singular
        // operator). The first k columns already hold the least-squares
        // optimum — back-substitute those; with k == 0 no progress is
        // possible at all and the solve must return instead of spinning.
        stalled = (k == 0);
        break;
      }
      cs[static_cast<usize>(k)] = a / rho;
      sn[static_cast<usize>(k)] = bb / rho;
      h[static_cast<usize>(k)][static_cast<usize>(k)] = rho;
      h[static_cast<usize>(k)][static_cast<usize>(k) + 1] = 0.0;
      gamma[static_cast<usize>(k) + 1] = -sn[static_cast<usize>(k)] * gamma[static_cast<usize>(k)];
      gamma[static_cast<usize>(k)] = cs[static_cast<usize>(k)] * gamma[static_cast<usize>(k)];
      ++stats.iterations;
      stats.final_residual = std::abs(gamma[static_cast<usize>(k) + 1]);
      if (hk1 == 0) {
        // Happy breakdown: A M⁻¹ v_k ∈ span{v_0..v_k}, so the small
        // least-squares residual is exactly zero and the true solution lies
        // in the current space (v[k+1] was never formed — w is zero).
        // Back-substitute the k+1 columns and return converged.
        stats.final_residual = 0.0;
        happy = true;
        ++k;
        break;
      }
      if (stats.final_residual <= target) {
        ++k;
        break;
      }
    }
    // Back-substitute y and update x += Σ y_j z_j.
    RealVec y(static_cast<usize>(k), 0.0);
    for (int i = k - 1; i >= 0; --i) {
      real_t s = gamma[static_cast<usize>(i)];
      for (int j = i + 1; j < k; ++j)
        s -= h[static_cast<usize>(j)][static_cast<usize>(i)] * y[static_cast<usize>(j)];
      y[static_cast<usize>(i)] = s / h[static_cast<usize>(i)][static_cast<usize>(i)];
    }
    for (int j = 0; j < k; ++j)
      operators::vec_axpy(dev, y[static_cast<usize>(j)],
                          z[static_cast<usize>(j)], x);
    if (null_space_mean) operators::remove_mean(ctx_, x);
    if (happy || stats.final_residual <= target) {
      stats.converged = true;
      return stats;
    }
    if (stalled || stats.iterations >= control.max_iterations) return stats;
  }
  return stats;
}

}  // namespace felis::krylov
