/// \file telemetry.hpp
/// \brief Run-wide telemetry context: one object that owns the metric
/// registry, the per-step NDJSON stream, the merged Chrome trace, and the
/// run-health watchdog.
///
/// A rank records what it did in one way: every layer charges the Profiler
/// it reaches through `operators::Context::prof`, and every interval goes
/// into the run's one TraceRecorder, owned here. `Telemetry` turns both into
/// artifacts behind one switch and one clock (the recorder's): per-step
/// metrics (set by the flow solver, the case and the checkpoint manager it
/// is handed) streamed as crash-safe NDJSON plus a CSV summary, a Chrome
/// `trace_event` export of the recorder, and a RunHealth heartbeat. Nothing
/// is process-wide: concurrent runs (campaign workers, simulated ranks) each
/// own one. With telemetry off the solver pays one branch per step, and the
/// fields are bitwise identical either way (telemetry only reads state).
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "common/params.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_health.hpp"

namespace felis::io {
class DurableAppendWriter;
}

namespace felis::telemetry {

struct TelemetryConfig {
  bool enabled = false;
  std::string dir = "telemetry";   ///< output directory (created on demand)
  std::string basename = "run";    ///< file stem: <basename>.ndjson etc.
  std::int64_t interval = 1;       ///< emit an NDJSON record every N steps
  bool trace = true;               ///< export the merged Chrome trace
  int flush_every = 1;             ///< fsync the NDJSON stream every N records
  usize max_trace_events = 1u << 18;  ///< trace cap; excess is counted
  HealthConfig health;
};

/// Read `telemetry.*` keys (enabled, dir, basename, interval, heartbeat,
/// trace, flush_every, max_trace_events, spike_factor, spike_margin,
/// stagnation_run) with the defaults above.
TelemetryConfig config_from_params(const ParamMap& params);

/// Wall-clock stopwatch on the telemetry clock. Lives here so instrumented
/// call sites (checkpoint writes, step loops) never touch a raw clock —
/// felis_lint forbids steady_clock::now() outside common/profiler,
/// common/trace and this directory.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class Telemetry {
 public:
  /// `metadata` lands verbatim in every artifact header (NDJSON header
  /// record, trace otherData, CSV comment lines) — callers put backend,
  /// thread count and polynomial order there so telemetry files join against
  /// BENCH_*.json. A disabled config constructs a cheap inert object.
  Telemetry(TelemetryConfig config,
            std::map<std::string, std::string> metadata = {});
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
  ~Telemetry();

  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }
  MetricsRegistry& metrics() { return metrics_; }
  RunHealth& health() { return *health_; }
  /// The run's one interval recorder (capped at `max_trace_events`).
  TraceRecorder& trace_recorder() { return trace_; }

  /// Seconds on the recorder's clock.
  double now() const { return trace_.now(); }

  /// True when `step` lands on the configured sampling interval.
  bool sampling_due(std::int64_t step) const;

  /// Step bracketing, driven by the case layer. `end_step` times the step,
  /// records the step boundary on kStepTrack, feeds RunHealth and — when the
  /// sample is due — appends one NDJSON record with a full metric snapshot.
  void begin_step(std::int64_t step);
  void end_step(std::int64_t step, double sim_time);

  /// Flush the NDJSON stream, write the CSV summary and the Chrome trace.
  /// Idempotent; also run by the destructor.
  void finalize();

  std::int64_t records_written() const { return records_written_; }
  const std::string& ndjson_path() const { return ndjson_path_; }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& summary_path() const { return summary_path_; }

 private:
  void write_header_record();
  std::string step_record(std::int64_t step, double sim_time,
                          double step_seconds) const;
  void write_summary_csv() const;
  void write_chrome_trace() const;
  void feed_health(std::int64_t step, double step_seconds);

  TelemetryConfig config_;
  std::map<std::string, std::string> metadata_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
  std::unique_ptr<RunHealth> health_;
  std::unique_ptr<io::DurableAppendWriter> ndjson_;
  std::unique_ptr<Stopwatch> step_watch_;
  std::int64_t records_written_ = 0;
  bool finalized_ = false;
  std::string ndjson_path_;
  std::string trace_path_;
  std::string summary_path_;
};

}  // namespace felis::telemetry
