#include "insitu/streaming_pod.hpp"

#include <algorithm>
#include <cmath>

namespace felis::insitu {

StreamingPod::StreamingPod(RealVec weights, usize max_rank)
    : max_rank_(max_rank) {
  FELIS_CHECK(max_rank >= 1);
  sqrt_w_ = std::move(weights);
  for (real_t& w : sqrt_w_) {
    FELIS_CHECK_MSG(w > 0, "StreamingPod weights must be positive");
    w = std::sqrt(w);
  }
}

void StreamingPod::add_snapshot(const RealVec& snapshot) {
  const lidx_t n = static_cast<lidx_t>(sqrt_w_.size());
  FELIS_CHECK(snapshot.size() == sqrt_w_.size());
  // Work in weighted coordinates: x̃ = √w ⊙ x.
  RealVec x(snapshot.size());
  for (usize i = 0; i < x.size(); ++i) x[i] = snapshot[i] * sqrt_w_[i];
  ++count_;

  const lidx_t r = static_cast<lidx_t>(sigma_.size());
  if (r == 0) {
    const real_t norm = linalg::norm2(x);
    if (norm == 0) return;
    u_ = linalg::Matrix(n, 1);
    for (lidx_t i = 0; i < n; ++i) u_(i, 0) = x[static_cast<usize>(i)] / norm;
    sigma_ = {norm};
    return;
  }

  // Brand's rank-one update: project, form the small core matrix, re-SVD.
  const RealVec c = linalg::matvec_t(u_, x);  // r coefficients
  RealVec e = x;
  for (lidx_t j = 0; j < r; ++j)
    for (lidx_t i = 0; i < n; ++i)
      e[static_cast<usize>(i)] -= u_(i, j) * c[static_cast<usize>(j)];
  // One re-orthogonalization pass keeps the basis clean over long streams.
  const RealVec c2 = linalg::matvec_t(u_, e);
  for (lidx_t j = 0; j < r; ++j)
    for (lidx_t i = 0; i < n; ++i)
      e[static_cast<usize>(i)] -= u_(i, j) * c2[static_cast<usize>(j)];
  const real_t rho = linalg::norm2(e);

  // Core matrix K = [diag(σ) c; 0 ρ], size (r+1)×(r+1).
  linalg::Matrix k(r + 1, r + 1);
  for (lidx_t j = 0; j < r; ++j) {
    k(j, j) = sigma_[static_cast<usize>(j)];
    k(j, r) = c[static_cast<usize>(j)] + c2[static_cast<usize>(j)];
  }
  k(r, r) = rho;
  const linalg::Svd ksvd = linalg::svd(k);

  // Extended basis [U, e/ρ] rotated by the left singular vectors.
  const lidx_t new_rank = std::min<lidx_t>(r + 1, static_cast<lidx_t>(max_rank_));
  linalg::Matrix u_new(n, new_rank);
  const real_t inv_rho = rho > 1e-14 ? 1.0 / rho : 0.0;
  for (lidx_t col = 0; col < new_rank; ++col) {
    for (lidx_t i = 0; i < n; ++i) {
      real_t s = 0;
      for (lidx_t j = 0; j < r; ++j) s += u_(i, j) * ksvd.u(j, col);
      s += e[static_cast<usize>(i)] * inv_rho * ksvd.u(r, col);
      u_new(i, col) = s;
    }
  }
  // Track the energy of truncated directions for captured_energy().
  for (lidx_t col = new_rank; col <= r; ++col)
    discarded_energy_ +=
        ksvd.sigma[static_cast<usize>(col)] * ksvd.sigma[static_cast<usize>(col)];

  u_ = std::move(u_new);
  sigma_.assign(ksvd.sigma.begin(), ksvd.sigma.begin() + new_rank);
}

RealVec StreamingPod::mode(usize k) const {
  FELIS_CHECK(k < sigma_.size());
  RealVec m(sqrt_w_.size());
  for (usize i = 0; i < m.size(); ++i)
    m[i] = u_(static_cast<lidx_t>(i), static_cast<lidx_t>(k)) / sqrt_w_[i];
  return m;
}

PodState StreamingPod::capture() const {
  PodState state;
  state.count = count_;
  state.rows = sqrt_w_.size();
  state.discarded_energy = discarded_energy_;
  state.sigma = sigma_;
  if (!sigma_.empty())
    state.modes.assign(u_.data(), u_.data() + sqrt_w_.size() * sigma_.size());
  return state;
}

void StreamingPod::restore(const PodState& state) {
  FELIS_CHECK_MSG(state.rows == sqrt_w_.size(),
                  "StreamingPod::restore: state has " << state.rows
                      << " rows, pod has " << sqrt_w_.size());
  const usize rank = state.sigma.size();
  FELIS_CHECK_MSG(state.modes.size() == state.rows * rank,
                  "StreamingPod::restore: mode matrix shape mismatch");
  count_ = state.count;
  discarded_energy_ = state.discarded_energy;
  sigma_ = state.sigma;
  u_ = linalg::Matrix(static_cast<lidx_t>(state.rows),
                      static_cast<lidx_t>(rank));
  std::copy(state.modes.begin(), state.modes.end(), u_.data());
}

real_t StreamingPod::captured_energy(usize k) const {
  real_t head = 0, total = discarded_energy_;
  for (usize i = 0; i < sigma_.size(); ++i) {
    total += sigma_[i] * sigma_[i];
    if (i < k) head += sigma_[i] * sigma_[i];
  }
  return total > 0 ? head / total : 0.0;
}

DirectPod direct_pod(const std::vector<RealVec>& snapshots, const RealVec& weights,
                     usize max_modes) {
  FELIS_CHECK(!snapshots.empty());
  const lidx_t n = static_cast<lidx_t>(snapshots.front().size());
  const lidx_t m = static_cast<lidx_t>(snapshots.size());
  linalg::Matrix x(n, m);
  for (lidx_t j = 0; j < m; ++j) {
    FELIS_CHECK(snapshots[static_cast<usize>(j)].size() == weights.size());
    for (lidx_t i = 0; i < n; ++i)
      x(i, j) = snapshots[static_cast<usize>(j)][static_cast<usize>(i)] *
                std::sqrt(weights[static_cast<usize>(i)]);
  }
  const linalg::Svd s = linalg::svd(std::move(x));
  const lidx_t k = std::min<lidx_t>(static_cast<lidx_t>(max_modes), m);
  DirectPod pod;
  pod.modes = linalg::Matrix(n, k);
  pod.sigma.assign(s.sigma.begin(), s.sigma.begin() + k);
  for (lidx_t j = 0; j < k; ++j)
    for (lidx_t i = 0; i < n; ++i) pod.modes(i, j) = s.u(i, j);
  return pod;
}

}  // namespace felis::insitu
