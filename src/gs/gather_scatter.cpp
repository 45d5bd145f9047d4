#include "gs/gather_scatter.hpp"

#include <algorithm>
#include <numeric>

#include "device/workspace.hpp"
#include "field/kernel_cost.hpp"

namespace felis::gs {

namespace {
constexpr int kGsTagBase = 0x6500;
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

  // Unique ids, CSR-style: unique id u holds order[begin[u] .. begin[u+1]).
  std::vector<gidx_t> unique_ids;
  std::vector<lidx_t> begin;
  for (usize i = 0; i < order.size(); ++i) {
    const gidx_t id = node_ids[static_cast<usize>(order[i])];
    if (unique_ids.empty() || unique_ids.back() != id) {
      unique_ids.push_back(id);
      begin.push_back(static_cast<lidx_t>(i));
    }
  }
  begin.push_back(static_cast<lidx_t>(order.size()));

  // Detect sharing: exchange unique id lists and intersect. (A production
  // code restricts this to element-boundary ids and uses a distributed
  // directory; the result is identical.) shared_pos_ holds positions in
  // unique_ids until the shared list exists; shared_index is −1 for an id
  // no other rank holds, and becomes a shared id's group in shared_.
  const auto all_ids = comm_.allgatherv(unique_ids);
  std::vector<lidx_t> shared_index(unique_ids.size(), -1);
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
      shared_index[static_cast<usize>(pos[i])] = 0;
    }
    shared_pos_.push_back(std::move(pos));
  }

  // Split the ids that need work into the two lists, keeping sort order.
  for (usize u = 0; u < unique_ids.size(); ++u) {
    const bool shared = shared_index[u] >= 0;
    if (!shared && begin[u + 1] - begin[u] < 2) continue;
    Groups& groups = shared ? shared_ : local_;
    if (shared) shared_index[u] = groups.size();
    groups.dofs.insert(groups.dofs.end(), order.begin() + begin[u],
                       order.begin() + begin[u + 1]);
    groups.start.push_back(static_cast<lidx_t>(groups.dofs.size()));
  }
  for (auto& pos : shared_pos_)
    for (lidx_t& p : pos) p = shared_index[static_cast<usize>(p)];

  local_cost_ = field::cost::gather_scatter_local(
      static_cast<double>(local_.dofs.size() + shared_.dofs.size()),
      local_.size() + shared_.size(), shared_.size());
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
  switch (op) {
    case GsOp::kAdd:
      apply_op(field, [](real_t a, real_t b) { return a + b; }, prof);
      break;
    case GsOp::kMin:
      apply_op(field, [](real_t a, real_t b) { return a < b ? a : b; }, prof);
      break;
    case GsOp::kMax:
      apply_op(field, [](real_t a, real_t b) { return a > b ? a : b; }, prof);
      break;
  }
  if (prof) prof->add(local_cost_);
}

template <typename Combine>
void GatherScatter::apply_op(RealVec& field, Combine combine,
                             Profiler* prof) const {
  real_t* f = field.data();
  // A group's dofs combined in list order. Groups have disjoint dof lists,
  // so chunks over groups never touch the same entry.
  const auto gather = [f, &combine](const Groups& groups, lidx_t g) {
    const lidx_t* dof = groups.dofs.data();
    const lidx_t end = groups.start[static_cast<usize>(g) + 1];
    lidx_t i = groups.start[static_cast<usize>(g)];
    real_t v = f[dof[i]];
    while (++i < end) v = combine(v, f[dof[i]]);
    return v;
  };
  const auto scatter = [f](const Groups& groups, lidx_t g, real_t v) {
    const lidx_t* dof = groups.dofs.data();
    const lidx_t end = groups.start[static_cast<usize>(g) + 1];
    for (lidx_t i = groups.start[static_cast<usize>(g)]; i < end; ++i)
      f[dof[i]] = v;
  };

  // Rank-local groups: gather and scatter in one pass.
  dev().parallel_for_blocked(
      local_.size(), /*grain=*/0, [&](lidx_t g0, lidx_t g1, int /*worker*/) {
        for (lidx_t g = g0; g < g1; ++g) scatter(local_, g, gather(local_, g));
      });
  if (neighbors_.empty()) return;

  // Shared groups: my partials, buffered sends of them, then the partials
  // received from every neighbour in neighbour order, then the scatter.
  device::WorkspaceFrame scratch;
  RealVec& partial = scratch.vec(static_cast<usize>(shared_.size()));
  dev().parallel_for_blocked(
      shared_.size(), /*grain=*/0, [&](lidx_t g0, lidx_t g1, int /*worker*/) {
        for (lidx_t g = g0; g < g1; ++g)
          partial[static_cast<usize>(g)] = gather(shared_, g);
      });
  RealVec& sendbuf = scratch.vec(static_cast<usize>(shared_.size()));
  for (usize ni = 0; ni < neighbors_.size(); ++ni) {
    const auto& pos = shared_pos_[ni];
    for (usize i = 0; i < pos.size(); ++i)
      sendbuf[i] = partial[static_cast<usize>(pos[i])];
    const usize bytes = pos.size() * sizeof(real_t);
    comm_.send_bytes(neighbors_[ni], tag_, sendbuf.data(), bytes);
    if (prof) prof->add_message(static_cast<double>(bytes));
  }
  for (usize ni = 0; ni < neighbors_.size(); ++ni) {
    const RealVec theirs = comm_.recv_vec<real_t>(neighbors_[ni], tag_);
    const auto& pos = shared_pos_[ni];
    FELIS_CHECK(theirs.size() == pos.size());
    for (usize i = 0; i < pos.size(); ++i) {
      real_t& v = partial[static_cast<usize>(pos[i])];
      v = combine(v, theirs[i]);
    }
  }
  dev().parallel_for_blocked(
      shared_.size(), /*grain=*/0, [&](lidx_t g0, lidx_t g1, int /*worker*/) {
        for (lidx_t g = g0; g < g1; ++g)
          scatter(shared_, g, partial[static_cast<usize>(g)]);
      });
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
