/// \file profiler.hpp
/// \brief Hierarchical region timing and operation counting.
///
/// Reproduces the paper's measurement protocol (§6): wall-clock timers around
/// named code regions, arranged in a tree ("step/pressure/precon/coarse"),
/// with per-region call counts. In addition to time, each region accumulates
/// *operation counters* (flops, bytes moved, messages, message bytes); these
/// exact counts are the inputs to the perfmodel that regenerates the paper's
/// extreme-scale Figs. 3 and 4.
///
/// A `Profiler` instance is owned by one solver instance (one simulated rank).
/// The region stack (push/pop/scope), reset() and report() are used from that
/// rank's thread only; the counter-charging calls (add_flops/add_bytes/...)
/// are atomic so kernels dispatched onto a device backend, or a solve shared
/// between overlapped threads, may charge the current region concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace felis {

/// Accumulated operation counts for one region (exclusive of children for
/// counters added directly; times are inclusive).
struct OpCounters {
  double flops = 0;       ///< floating point operations
  double bytes = 0;       ///< bytes read + written from/to field storage
  double messages = 0;    ///< point-to-point messages posted
  double msg_bytes = 0;   ///< bytes sent in point-to-point messages
  double reductions = 0;  ///< global reductions (allreduce) participated in

  OpCounters& operator+=(const OpCounters& o) {
    flops += o.flops;
    bytes += o.bytes;
    messages += o.messages;
    msg_bytes += o.msg_bytes;
    reductions += o.reductions;
    return *this;
  }
};

/// One node in the region tree.
struct RegionNode {
  std::string name;
  double seconds = 0;        ///< inclusive wall time
  std::int64_t calls = 0;
  OpCounters counters;       ///< counters charged directly to this region
  std::map<std::string, std::unique_ptr<RegionNode>> children;

  RegionNode* child(const std::string& child_name);
  /// Counters of this region plus all descendants.
  OpCounters inclusive_counters() const;
  /// Sum of children's inclusive seconds (to derive "other" time).
  double child_seconds() const;
};

class Profiler;
class TraceRecorder;

/// RAII region scope.
class ScopedRegion {
 public:
  ScopedRegion(Profiler& prof, const std::string& name);
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;
  ~ScopedRegion();

 private:
  Profiler& prof_;
};

class Profiler {
 public:
  Profiler();

  /// Enter/exit a named child region of the current region.
  void push(const std::string& name);
  void pop();

  /// RAII helper: `auto r = prof.scope("pressure");`
  ScopedRegion scope(const std::string& name) { return ScopedRegion(*this, name); }

  /// Charge counters to the *current* region (thread-safe; see file comment).
  void add_flops(double n) { charge(current_->counters.flops, n); }
  void add_bytes(double n) { charge(current_->counters.bytes, n); }
  void add_message(double bytes) {
    charge(current_->counters.messages, 1);
    charge(current_->counters.msg_bytes, bytes);
  }
  void add_reduction() { charge(current_->counters.reductions, 1); }
  void add(const OpCounters& c) {
    OpCounters& dst = current_->counters;
    charge(dst.flops, c.flops);
    charge(dst.bytes, c.bytes);
    charge(dst.messages, c.messages);
    charge(dst.msg_bytes, c.msg_bytes);
    charge(dst.reductions, c.reductions);
  }

  /// Reset all accumulated times/counters but keep the tree shape.
  void reset();

  const RegionNode& root() const { return root_; }
  RegionNode& root() { return root_; }

  /// Find a region by slash-separated path ("step/pressure"); nullptr if absent.
  const RegionNode* find(const std::string& path) const;

  /// Multi-line human-readable report of the region tree with times,
  /// percentages of parent and counters.
  std::string report() const;

  /// Also record every region this profiler closes into `trace`, as an
  /// interval on kRegionTrack named by its slash path; nullptr stops it.
  /// The aggregate tree is kept either way. Owner thread only, like push/pop.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  static void charge(double& counter, double n) {
    std::atomic_ref<double>(counter).fetch_add(n, std::memory_order_relaxed);
  }

  using Clock = std::chrono::steady_clock;
  struct Frame {
    RegionNode* node;
    Clock::time_point start;
  };
  RegionNode root_;
  RegionNode* current_;
  std::vector<Frame> stack_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace felis
