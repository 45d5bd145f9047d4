/// \file workspace.hpp
/// \brief Per-thread scratch-buffer arena for backend-dispatched kernels.
///
/// Matrix-free kernels need O(n³) scratch per element (ur/us/ut/…). Member
/// scratch vectors make the kernel objects race under any parallel backend,
/// and per-call allocation costs more than small-element kernels themselves.
/// Instead every OS thread owns one lazily grown arena of reusable buffers,
/// and kernels carve scratch out of it through stack-ordered frames:
///
///   backend.parallel_for_blocked(nelem, 0, [&](lidx_t e0, lidx_t e1, int) {
///     device::WorkspaceFrame scratch;
///     RealVec& ur = scratch.vec(nxyz);   // thread-private, stable address
///     for (lidx_t e = e0; e < e1; ++e) { ... }
///   });                                  // frame pops, buffers stay cached
///
/// Ownership discipline: a buffer belongs to the frame that obtained it, on
/// the thread that obtained it — never store it beyond the frame's scope and
/// never hand it to another thread. Frames nest LIFO (a kernel calling
/// another backend-dispatched kernel works: the serial backend runs chunks on
/// the calling thread, parallel backends run them on pool threads with their
/// own arenas). The arena is keyed by OS thread, not by worker slot, because
/// concurrently active dispatches (e.g. the task-overlapped coarse solve on a
/// device::Stream thread beside the fine Schwarz sweep) would alias worker
/// indices but always occupy disjoint OS threads.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace felis::device {

/// One thread's scratch arena: a stack of reusable RealVec buffers plus a
/// cursor. Not thread-safe by design — access it only through mine().
class Workspace {
 public:
  /// The calling thread's arena (thread_local, created on first use).
  static Workspace& mine();

  /// Buffers ever allocated by this thread (monitoring/tests).
  usize buffers_allocated() const { return buffers_.size(); }

  /// Buffers currently claimed by live frames (monitoring/tests).
  usize depth() const { return cursor_; }

  /// Bytes of buffer capacity currently held across *all* threads' arenas,
  /// and the process-lifetime high-water mark. Grows monotonically (arenas
  /// cache buffers until thread exit); the flow solver copies these into the
  /// telemetry step record's `device.arena_*` values each step.
  static usize process_bytes() {
    return process_bytes_.load(std::memory_order_relaxed);
  }
  static usize process_high_water() {
    return process_high_water_.load(std::memory_order_relaxed);
  }

 private:
  friend class WorkspaceFrame;
  Workspace() = default;
  ~Workspace();

  static void charge_growth(usize grown_bytes);

  static std::atomic<usize> process_bytes_;
  static std::atomic<usize> process_high_water_;

  std::vector<std::unique_ptr<RealVec>> buffers_;  ///< unique_ptr: stable addresses
  usize cursor_ = 0;
  usize bytes_ = 0;  ///< capacity bytes this arena has charged to the process
};

/// RAII view onto the calling thread's Workspace. Buffers obtained through
/// vec() stay valid until the frame is destroyed, then return to the arena
/// for reuse. Contents are NOT zeroed — kernels must fully overwrite.
class WorkspaceFrame {
 public:
  WorkspaceFrame() : workspace_(Workspace::mine()), mark_(workspace_.cursor_) {}
  ~WorkspaceFrame();
  WorkspaceFrame(const WorkspaceFrame&) = delete;
  WorkspaceFrame& operator=(const WorkspaceFrame&) = delete;

  /// A thread-private buffer resized to n elements (unspecified contents).
  RealVec& vec(usize n);

 private:
  Workspace& workspace_;
  usize mark_;  ///< arena cursor at frame entry, restored at destruction
};

}  // namespace felis::device
