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
/// felis implements exactly this: a rank-local gather over nodes duplicated
/// within the rank, a neighbour exchange of partial results for nodes shared
/// across ranks (canonically ordered by global id so both sides agree), and
/// a scatter writing the combined value back to every duplicate.
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

  comm::Communicator& comm_;
  device::Backend* backend_ = nullptr;  ///< null = process default
  usize num_dofs_ = 0;
  int tag_ = 0;
  std::vector<bool> active_;  ///< unique ids needing gather/scatter work

  // Unique ids needing work (duplicated locally and/or shared across ranks),
  // CSR-style: dofs of unique id u are dofs_[dof_start_[u] .. dof_start_[u+1]).
  std::vector<lidx_t> dof_start_;
  std::vector<lidx_t> dofs_;

  // Shared-node exchange: for neighbour i, shared_pos_[i] lists indices into
  // the unique-id arrays, ordered by ascending global id on both sides.
  std::vector<int> neighbors_;
  std::vector<std::vector<lidx_t>> shared_pos_;

  OpCounters local_cost_;     ///< one apply's local gather and scatter
  mutable RealVec inv_mult_;  // lazily built
};

}  // namespace felis::gs
