/// \file telemetry.hpp
/// \brief Run-wide telemetry context: one object that owns the rank's step
/// record, the per-step NDJSON stream, the merged Chrome trace, and the
/// run-health watchdog.
///
/// A rank records what it did in one way: every layer charges the Profiler
/// it reaches through `operators::Context::prof`, and every interval goes
/// into the run's one TraceRecorder, owned here. `Telemetry` turns both into
/// artifacts behind one switch and one clock (the recorder's): the step
/// record (assigned by the flow solver, the case and the checkpoint manager
/// it is handed) streamed as crash-safe NDJSON, a Chrome `trace_event`
/// export of the recorder, and a RunHealth heartbeat. Nothing is
/// process-wide: concurrent runs (campaign workers, simulated ranks) each
/// own one. A Telemetry exists only when telemetry is on (cases::build_case
/// reads `telemetry.enabled`); without one the solver pays one branch per
/// step, and the fields are bitwise identical either way (telemetry only
/// reads state).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/params.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "telemetry/run_health.hpp"
#include "telemetry/step_record.hpp"

namespace felis::io {
class DurableAppendWriter;
}

namespace felis::telemetry {

struct TelemetryConfig {
  std::string dir = "telemetry";   ///< output directory (created on demand)
  std::string basename = "run";    ///< file stem: <basename>.ndjson etc.
  std::int64_t interval = 1;       ///< emit an NDJSON record every N steps
  bool trace = true;               ///< export the merged Chrome trace
  usize max_trace_events = 1u << 18;  ///< trace cap; excess is counted
  HealthConfig health;
};

/// The telemetry.* keys that shape an open channel (`telemetry.enabled`, which
/// opens one, is build_case's).
inline constexpr Param<std::string> kDir{"telemetry.dir", "output directory"};
inline constexpr Param<std::string> kBasename{"telemetry.basename", "file stem"};
inline constexpr Param<int> kInterval{"telemetry.interval", 1, "record interval"};
inline constexpr Param<bool> kTrace{"telemetry.trace", "export the Chrome trace"};
inline constexpr Param<int> kMaxTraceEvents{"telemetry.max_trace_events", 0, "trace cap"};
inline constexpr Param<int> kHeartbeat{"telemetry.heartbeat", 0, "period (0 = off)"};
inline constexpr Param<int> kStagnationRun{"telemetry.stagnation_run", 0, "stall length"};
inline constexpr const ParamDecl* kTelemetryParams[] = {
    &kDir, &kBasename, &kInterval, &kTrace, &kMaxTraceEvents, &kHeartbeat,
    &kStagnationRun};

/// The keys above over the TelemetryConfig defaults.
TelemetryConfig config_from_params(const ParamMap& params);

class Telemetry {
 public:
  /// `metadata` lands verbatim in every artifact header (NDJSON header
  /// record, trace otherData) — callers put backend, thread count and
  /// polynomial order there so telemetry files join against BENCH_*.json.
  /// Creates `config.dir` and starts the NDJSON stream.
  Telemetry(TelemetryConfig config,
            std::map<std::string, std::string> metadata = {});
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
  ~Telemetry();

  const TelemetryConfig& config() const { return config_; }
  /// The rank's step record; its writers assign members, on the rank thread.
  StepRecord& record() { return record_; }
  RunHealth& health() { return health_; }
  /// The run's one interval recorder (capped at `max_trace_events`).
  TraceRecorder& trace_recorder() { return trace_; }

  /// True when `step` lands on the configured sampling interval.
  bool sampling_due(std::int64_t step) const;

  /// Step bracketing, driven by the case layer. `end_step` times the step
  /// on the recorder's clock from `begin_step`, records the step boundary on
  /// kStepTrack, feeds RunHealth and — when the sample is due — appends the
  /// step record to the NDJSON stream.
  void begin_step();
  void end_step(std::int64_t step, double sim_time);

  /// Flush the NDJSON stream and write the Chrome trace. Idempotent; also
  /// run by the destructor. A checkpoint written after the last step record
  /// (the one that seals a campaign case) reaches no artifact.
  void finalize();

  std::int64_t records_written() const { return records_written_; }
  const std::string& ndjson_path() const { return ndjson_path_; }
  const std::string& trace_path() const { return trace_path_; }

 private:
  void write_header_record();
  /// The one serializer of the step record: the `run.ndjson` step line.
  std::string step_record(double sim_time) const;
  void write_chrome_trace() const;

  TelemetryConfig config_;
  std::map<std::string, std::string> metadata_;
  TraceRecorder trace_;
  StepRecord record_;
  RunHealth health_;
  std::unique_ptr<io::DurableAppendWriter> ndjson_;
  double step_begin_ = 0;  ///< recorder clock at begin_step
  std::int64_t records_written_ = 0;
  bool finalized_ = false;
  std::string ndjson_path_;
  std::string trace_path_;
};

}  // namespace felis::telemetry
