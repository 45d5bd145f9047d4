#include "gs/gather_scatter.hpp"

#include <algorithm>
#include <numeric>

#include "device/workspace.hpp"

namespace felis::gs {

namespace {
constexpr int kGsTagBase = 0x6500;

real_t combine(GsOp op, real_t a, real_t b) {
  switch (op) {
    case GsOp::kAdd: return a + b;
    case GsOp::kMin: return a < b ? a : b;
    case GsOp::kMax: return a > b ? a : b;
  }
  return a;
}
}  // namespace

GatherScatter::GatherScatter(const std::vector<gidx_t>& node_ids,
                             comm::Communicator& comm, int channel,
                             device::Backend* backend)
    : comm_(comm),
      backend_(backend),
      num_dofs_(node_ids.size()),
      tag_(kGsTagBase + channel) {
  // Sort (id, dof) pairs by id to derive unique ids and their dof lists.
  std::vector<lidx_t> order(node_ids.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](lidx_t a, lidx_t b) {
    return node_ids[static_cast<usize>(a)] < node_ids[static_cast<usize>(b)];
  });

  std::vector<gidx_t> unique_ids;
  dof_start_.clear();
  dofs_.resize(node_ids.size());
  for (usize i = 0; i < order.size(); ++i) {
    const gidx_t id = node_ids[static_cast<usize>(order[i])];
    if (unique_ids.empty() || unique_ids.back() != id) {
      unique_ids.push_back(id);
      dof_start_.push_back(static_cast<lidx_t>(i));
    }
    dofs_[i] = order[i];
  }
  dof_start_.push_back(static_cast<lidx_t>(order.size()));

  // Detect sharing: exchange unique id lists and intersect. (A production
  // code restricts this to element-boundary ids and uses a distributed
  // directory; the result is identical.)
  const auto all_ids = comm_.allgatherv(unique_ids);
  for (int r = 0; r < comm_.size(); ++r) {
    if (r == comm_.rank()) continue;
    std::vector<gidx_t> shared;
    std::set_intersection(unique_ids.begin(), unique_ids.end(),
                          all_ids[static_cast<usize>(r)].begin(),
                          all_ids[static_cast<usize>(r)].end(),
                          std::back_inserter(shared));
    if (shared.empty()) continue;
    neighbors_.push_back(r);
    std::vector<lidx_t> pos(shared.size());
    for (usize i = 0; i < shared.size(); ++i) {
      const auto it =
          std::lower_bound(unique_ids.begin(), unique_ids.end(), shared[i]);
      pos[i] = static_cast<lidx_t>(it - unique_ids.begin());
    }
    shared_pos_.push_back(std::move(pos));
  }

  // Mark unique ids that actually need work: duplicated locally or shared.
  active_.assign(dof_start_.size() - 1, false);
  for (usize u = 0; u + 1 < dof_start_.size(); ++u)
    if (dof_start_[u + 1] - dof_start_[u] > 1) active_[u] = true;
  for (const auto& pos : shared_pos_)
    for (const lidx_t p : pos) active_[static_cast<usize>(p)] = true;
}

usize GatherScatter::send_doubles_per_apply() const {
  usize total = 0;
  for (const auto& pos : shared_pos_) total += pos.size();
  return total;
}

void GatherScatter::apply(RealVec& field, GsOp op, Profiler* prof) const {
  FELIS_CHECK_MSG(field.size() == num_dofs_,
                  "gather-scatter field size mismatch: " << field.size()
                                                         << " != " << num_dofs_);
  const usize num_unique = dof_start_.size() - 1;
  device::WorkspaceFrame scratch;
  RealVec& val = scratch.vec(num_unique);

  // Phase 1 — local gather: combine duplicates within this rank. Unique ids
  // have disjoint dof lists, so chunks over u never touch the same entry.
  dev().parallel_for_blocked(
      static_cast<lidx_t>(num_unique), /*grain=*/0,
      [&](lidx_t u0, lidx_t u1, int /*worker*/) {
        for (lidx_t uu = u0; uu < u1; ++uu) {
          const usize u = static_cast<usize>(uu);
          if (!active_[u]) continue;
          const lidx_t begin = dof_start_[u];
          const lidx_t end = dof_start_[u + 1];
          real_t v = field[static_cast<usize>(dofs_[static_cast<usize>(begin)])];
          for (lidx_t i = begin + 1; i < end; ++i)
            v = combine(op, v,
                        field[static_cast<usize>(dofs_[static_cast<usize>(i)])]);
          val[u] = v;
        }
      });

  // Phase 2 — shared exchange: buffered sends of my partials, then combine
  // partials received from every neighbour.
  for (usize ni = 0; ni < neighbors_.size(); ++ni) {
    const auto& pos = shared_pos_[ni];
    RealVec sendbuf(pos.size());
    for (usize i = 0; i < pos.size(); ++i) sendbuf[i] = val[static_cast<usize>(pos[i])];
    comm_.send_vec(neighbors_[ni], tag_, sendbuf);
    if (prof) prof->add_message(static_cast<double>(sendbuf.size() * sizeof(real_t)));
  }
  for (usize ni = 0; ni < neighbors_.size(); ++ni) {
    const RealVec recvbuf = comm_.recv_vec<real_t>(neighbors_[ni], tag_);
    const auto& pos = shared_pos_[ni];
    FELIS_CHECK(recvbuf.size() == pos.size());
    for (usize i = 0; i < pos.size(); ++i) {
      real_t& v = val[static_cast<usize>(pos[i])];
      v = combine(op, v, recvbuf[i]);
    }
  }

  // Phase 3 — scatter combined values back to every duplicate (same
  // disjointness argument as the gather).
  dev().parallel_for_blocked(
      static_cast<lidx_t>(num_unique), /*grain=*/0,
      [&](lidx_t u0, lidx_t u1, int /*worker*/) {
        for (lidx_t uu = u0; uu < u1; ++uu) {
          const usize u = static_cast<usize>(uu);
          if (!active_[u]) continue;
          const lidx_t begin = dof_start_[u];
          const lidx_t end = dof_start_[u + 1];
          for (lidx_t i = begin; i < end; ++i)
            field[static_cast<usize>(dofs_[static_cast<usize>(i)])] = val[u];
        }
      });
  if (prof) prof->add_bytes(2.0 * static_cast<double>(num_dofs_ * sizeof(real_t)));
}

const RealVec& GatherScatter::inverse_multiplicity() const {
  if (inv_mult_.empty()) {
    RealVec ones(num_dofs_, 1.0);
    apply(ones, GsOp::kAdd);
    for (real_t& v : ones) v = 1.0 / v;
    inv_mult_ = std::move(ones);
  }
  return inv_mult_;
}

}  // namespace felis::gs
