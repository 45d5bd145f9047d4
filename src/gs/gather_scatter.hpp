/// \file gather_scatter.hpp
/// \brief Two-phase gather–scatter ensuring C⁰ continuity across elements.
///
/// "The key component of the scalability in Neko is due to the so-called
/// gather-scatter operation, performing the communication along element
/// boundaries and enabling a fast evaluation of differential operators in a
/// matrix-free fashion. [...] the gather-scatter operation [is] carried out
/// in two phases, one for the local and one for the shared elements between
/// different MPI ranks." (§6)
///
/// felis implements exactly this, over two index lists built once:
///  * rank-local groups (an id duplicated within the rank and on no other
///    rank) are gathered and scattered in one pass over their dofs;
///  * shared groups (an id some other rank also holds) are gathered into a
///    partial per group, exchanged with the neighbours (canonically ordered
///    by global id so both sides agree), combined and scattered back.
/// Ids held by one dof and no other rank are in neither list. Every group
/// combines its dofs in ascending-id sort order, then (shared groups) the
/// neighbours' partials in ascending rank order, so the result is the same
/// bits on any backend and at any thread count.
///
/// The operator also reports its communication footprint (neighbour count,
/// doubles exchanged), which feeds the strong-scaling performance model.
#pragma once

#include <vector>

#include "comm/comm.hpp"
#include "common/profiler.hpp"
#include "device/backend.hpp"
#include "mesh/partition.hpp"

namespace felis::gs {

enum class GsOp { kAdd, kMin, kMax };

class GatherScatter {
 public:
  /// Build from an arbitrary per-dof global id array (one entry per local
  /// dof). Used directly by the coarse-grid (degree-1) space.
  ///
  /// `channel` separates the message streams of GatherScatter instances that
  /// may run *concurrently* on different threads of the same rank (the
  /// task-overlapped preconditioner runs the coarse-grid GS in parallel with
  /// the fine-level GS, §5.3). Instances used concurrently must use distinct
  /// channels; all ranks must pass the same channel for the same instance.
  ///
  /// `backend` dispatches the local gather/scatter phases (null = process
  /// default). The neighbour exchange stays on the calling thread.
  GatherScatter(const std::vector<gidx_t>& node_ids, comm::Communicator& comm,
                int channel = 0, device::Backend* backend = nullptr);

  /// Convenience: the ids of a rank-local mesh.
  GatherScatter(const mesh::LocalMesh& lmesh, comm::Communicator& comm,
                int channel = 0, device::Backend* backend = nullptr)
      : GatherScatter(lmesh.node_ids, comm, channel, backend) {}

  /// In-place gather–scatter on a local dof vector.
  void apply(RealVec& field, GsOp op, Profiler* prof = nullptr) const;

  /// 1 / multiplicity per local dof (counting duplicates on all ranks).
  /// Computed on first use. Multiplying by this after an additive GS yields
  /// the averaging operator used to make fields continuous.
  const RealVec& inverse_multiplicity() const;

  usize num_local_dofs() const { return num_dofs_; }
  /// Ranks this rank exchanges messages with.
  usize num_neighbors() const { return neighbors_.size(); }
  /// Total doubles sent per apply() (one per shared id per neighbour).
  usize send_doubles_per_apply() const;

 private:
  device::Backend& dev() const {
    return backend_ != nullptr ? *backend_ : device::default_backend();
  }

  /// Dofs of group g are dofs[start[g] .. start[g+1]), in sort order.
  struct Groups {
    std::vector<lidx_t> start{0};
    std::vector<lidx_t> dofs;
    lidx_t size() const { return static_cast<lidx_t>(start.size()) - 1; }
  };

  /// apply() with the op resolved to `combine`.
  template <typename Combine>
  void apply_op(RealVec& field, Combine combine, Profiler* prof) const;

  comm::Communicator& comm_;
  device::Backend* backend_ = nullptr;  ///< null = process default
  usize num_dofs_ = 0;
  int tag_ = 0;

  Groups local_;   ///< ids duplicated on this rank only
  Groups shared_;  ///< ids another rank also holds, by ascending global id

  // Shared-node exchange: for neighbour i, shared_pos_[i] lists indices into
  // shared_, ordered by ascending global id on both sides.
  std::vector<int> neighbors_;
  std::vector<std::vector<lidx_t>> shared_pos_;

  OpCounters local_cost_;     ///< one apply's local gather and scatter
  mutable RealVec inv_mult_;  // lazily built
};

}  // namespace felis::gs
