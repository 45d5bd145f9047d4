/// \file trace.hpp
/// \brief One run's interval recorder, the data behind Fig. 2's timeline,
/// the stopwatch for durations outside any run's trace, and the one Chrome
/// trace-event writer.
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
#include <string_view>
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

/// Seconds since construction on the recorder's steady clock. For durations
/// that belong to no run's trace: a checkpoint write, a scheduler session,
/// one case attempt. felis_lint's raw-clock rule keeps every other clock read
/// in library code to this file and the Profiler.
class Stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(TraceRecorder::Clock::now() - start_)
        .count();
  }

 private:
  TraceRecorder::Clock::time_point start_ = TraceRecorder::Clock::now();
};

/// A Chrome `trace_event` document (JSON object format, which Perfetto and
/// chrome://tracing load): the run trace and the merged campaign trace are
/// both written here. Times are seconds, written as whole microseconds >= 0.
class ChromeTraceWriter {
 public:
  void process_name(int pid, std::string_view name) { metadata(pid, -1, name); }
  void thread_name(int pid, int tid, std::string_view name) { metadata(pid, tid, name); }
  /// A complete event ("ph":"X") from t0 to t1; `args` is a JSON object or "".
  void complete(int pid, int tid, std::string_view name, std::string_view cat,
                double t0, double t1, std::string_view args = {});
  /// An instant event ("ph":"i") scoped to its thread ("t") or global ("g").
  void instant(int pid, int tid, std::string_view name, std::string_view cat,
               double t, std::string_view scope = "t");
  /// The document, with the JSON object `other_data` as its otherData.
  std::string done(std::string_view other_data) const;

 private:
  void metadata(int pid, int tid, std::string_view name);  ///< tid < 0: process
  void add(std::string_view event);

  std::string events_;
};

}  // namespace felis
