#include "telemetry/telemetry.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "common/logger.hpp"
#include "io/atomic_file.hpp"
#include "io/durable_append.hpp"

namespace felis::telemetry {

TelemetryConfig config_from_params(const ParamMap& params) {
  TelemetryConfig cfg;
  cfg.dir = kDir.get(params, cfg.dir);
  cfg.basename = kBasename.get(params, cfg.basename);
  cfg.interval = kInterval.get(params, static_cast<int>(cfg.interval));
  cfg.trace = kTrace.get(params, cfg.trace);
  cfg.max_trace_events = static_cast<usize>(
      kMaxTraceEvents.get(params, static_cast<int>(cfg.max_trace_events)));
  cfg.health.heartbeat =
      kHeartbeat.get(params, static_cast<int>(cfg.health.heartbeat));
  cfg.health.stagnation_run = static_cast<usize>(
      kStagnationRun.get(params, static_cast<int>(cfg.health.stagnation_run)));
  return cfg;
}

namespace {

/// Shortest representation that round-trips a double; JSON has no Inf/NaN,
/// so non-finite values serialize as 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the short form when it survives the round trip.
  char short_buf[32];
  std::snprintf(short_buf, sizeof(short_buf), "%.15g", v);
  double back = 0;
  std::sscanf(short_buf, "%lf", &back);
  return back == v ? short_buf : buf;
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config,
                     std::map<std::string, std::string> metadata)
    : config_(std::move(config)),
      metadata_(std::move(metadata)),
      trace_(config_.max_trace_events),
      health_(config_.health, record_) {
  std::filesystem::create_directories(config_.dir);
  ndjson_path_ = config_.dir + "/" + config_.basename + ".ndjson";
  trace_path_ = config_.dir + "/" + config_.basename + ".trace.json";
  // Truncate a stale stream from a previous run before appending.
  { std::error_code ec; std::filesystem::remove(ndjson_path_, ec); }
  ndjson_ = std::make_unique<io::DurableAppendWriter>(ndjson_path_);
  write_header_record();
}

Telemetry::~Telemetry() {
  try {
    finalize();
  } catch (...) {
    // Destructor must not throw; the NDJSON stream is fsync'd per record, so
    // at worst the trace file is missing.
  }
}

bool Telemetry::sampling_due(std::int64_t step) const {
  return step % config_.interval == 0;
}

void Telemetry::begin_step() { step_begin_ = trace_.now(); }

void Telemetry::end_step(std::int64_t step, double sim_time) {
  if (finalized_) return;
  const double t = trace_.now();
  record_.step = step;
  record_.wall_seconds = t;
  record_.step_seconds.observe(t - step_begin_);

  if (config_.trace) trace_.record(kStepTrack, "step " + std::to_string(step), t, t);

  health_.on_step();

  if (sampling_due(step)) {
    ndjson_->append(step_record(sim_time));
    ++records_written_;
  }
}

void Telemetry::write_header_record() {
  std::ostringstream os;
  os << R"({"type":"header","schema":1,"interval":)" << config_.interval
     << R"(,"metadata":{)";
  bool first = true;
  for (const auto& [key, value] : metadata_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(key) << R"(":")" << json_escape(value) << '"';
  }
  os << "}}";
  ndjson_->append(os.str());
}

std::string Telemetry::step_record(double sim_time) const {
  const StepRecord& r = record_;
  std::ostringstream os;
  os << R"({"type":"step","step":)" << r.step << R"(,"time":)"
     << json_number(sim_time) << R"(,"wall_seconds":)"
     << json_number(r.wall_seconds) << R"(,"step_seconds":)"
     << json_number(r.step_seconds.last) << R"(,"metrics":{)";
  bool first = true;
  const auto key = [&os, &first](const std::string& name) -> std::ostream& {
    if (!first) os << ',';
    first = false;
    return os << '"' << json_escape(name) << R"(":)";
  };
  const auto number = [&key](const std::string& name, double v) {
    key(name) << json_number(v);
  };
  const auto summary = [&key](const std::string& name, const RunningSummary& s) {
    key(name) << R"({"last":)" << json_number(s.last) << R"(,"count":)"
              << json_number(static_cast<double>(s.count)) << R"(,"sum":)"
              << json_number(s.sum) << R"(,"min":)" << json_number(s.min)
              << R"(,"max":)" << json_number(s.max) << '}';
  };
  // Sorted by name, so readers and diffs see one stable order.
  for (const auto& [name, value] : r.observables) number("case." + name, value);
  number("checkpoint.bytes", r.checkpoint_bytes);
  number("checkpoint.retries", r.checkpoint_retries);
  summary("checkpoint.write_seconds", r.checkpoint_write_seconds);
  number("checkpoint.writes", r.checkpoint_writes);
  number("device.arena_bytes", r.arena_bytes);
  number("device.arena_high_water", r.arena_high_water);
  number("health.anomalies", r.anomalies);
  number("health.flags.checkpoint_retry", r.checkpoint_retry_flags);
  number("health.flags.iteration_spike", r.iteration_spikes);
  number("health.flags.residual_stagnation", r.residual_stagnations);
  number("profile.bytes", r.profile.bytes);
  number("profile.flops", r.profile.flops);
  number("profile.message_bytes", r.profile.msg_bytes);
  number("profile.messages", r.profile.messages);
  number("profile.reductions", r.profile.reductions);
  number("solver.cfl", r.cfl);
  number("solver.divergence", r.divergence);
  number("solver.dt", r.dt);
  number("solver.pressure_iterations", r.pressure_iterations);
  number("solver.pressure_residual", r.pressure_residual);
  number("solver.projection_basis", r.projection_basis);
  number("solver.scalar_iterations", r.scalar_iterations);
  number("solver.time", r.time);
  number("solver.velocity_iterations", r.velocity_iterations);
  summary("telemetry.step_seconds", r.step_seconds);
  os << "}}";
  return os.str();
}

void Telemetry::write_chrome_trace() const {
  std::map<std::string, std::string> meta = metadata_;
  meta["trace_events_dropped"] = std::to_string(trace_.dropped());
  const std::string json = chrome_trace_json(trace_.events(), meta);
  io::AtomicFileWriter writer(trace_path_);
  writer.stream() << json;
  writer.commit();
}

void Telemetry::finalize() {
  if (finalized_) return;
  finalized_ = true;
  ndjson_->sync();
  if (config_.trace) write_chrome_trace();
  FELIS_LOG_INFO("telemetry: ", records_written_, " step records -> ",
                 ndjson_path_,
                 config_.trace ? "; trace -> " + trace_path_ : std::string());
}

}  // namespace felis::telemetry
