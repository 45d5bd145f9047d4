/// \file trace.hpp
/// \brief One run's interval recorder, the data behind Fig. 2's timeline.
///
/// Every interval of a run lands here, on one clock and under one cap:
/// stream intervals from the preconditioners (tracks 0 = fine, 1 = coarse;
/// the perfmodel's simulated host rows continue from 2), the regions an
/// attached Profiler closes, and the telemetry layer's step marks.
#pragma once

#include <chrono>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace felis {

inline constexpr int kRegionTrack = -1;  ///< name = slash path of a region
inline constexpr int kStepTrack = -2;    ///< instant named "step N"

struct TraceEvent {
  int stream = 0;           ///< track: a stream id (>= 0) or a k*Track value
  std::string name;
  double t_begin = 0;       ///< seconds since trace start
  double t_end = 0;
};

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Keeps the first `max_events` events and counts the rest in dropped().
  explicit TraceRecorder(usize max_events = std::numeric_limits<usize>::max())
      : max_events_(max_events) {}

  /// Restart the clock and forget every event (and the drop count).
  void start();
  /// Record an interval on a track; thread-safe.
  void record(int stream, const std::string& name, double t_begin, double t_end);
  /// Record an interval read off the steady clock; thread-safe.
  void record(int stream, const std::string& name, Clock::time_point begin,
              Clock::time_point end);
  /// Convenience: run fn() and record its wall time.
  void timed(int stream, const std::string& name, const std::function<void()>& fn);

  double now() const;  ///< seconds since start()
  std::vector<TraceEvent> events() const;
  usize dropped() const;  ///< events refused because the cap was reached
  void clear();

  /// Render an ASCII timeline (one row per stream), Fig. 2 style.
  std::string render(int width = 100) const;

 private:
  void push(TraceEvent event);  // caller holds mutex_

  mutable std::mutex mutex_;
  Clock::time_point t0_ = Clock::now();
  usize max_events_;
  usize dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace felis
