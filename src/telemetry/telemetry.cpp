#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <filesystem>

#include "common/error.hpp"
#include "common/json.hpp"
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
  JsonWriter header;
  header.field("type", "header").fields({{"schema", 1}, {"interval", config_.interval}});
  ndjson_->append(header.object("metadata", metadata_).done());
}

std::string Telemetry::step_record(double sim_time) const {
  const StepRecord& r = record_;
  const auto summary = [](const RunningSummary& s) {
    return JsonWriter()
        .fields({{"last", s.last}, {"count", s.count}, {"sum", s.sum}, {"min", s.min},
                 {"max", s.max}})
        .done();
  };
  // Sorted by name, so readers and diffs see one stable order.
  JsonWriter m;
  for (const auto& [name, value] : r.observables) m.field("case." + name, value);
  m.fields({{"checkpoint.bytes", r.checkpoint_bytes},
            {"checkpoint.retries", r.checkpoint_retries}});
  m.raw("checkpoint.write_seconds", summary(r.checkpoint_write_seconds));
  m.fields({{"checkpoint.writes", r.checkpoint_writes},
            {"device.arena_bytes", r.arena_bytes},
            {"device.arena_high_water", r.arena_high_water},
            {"health.anomalies", r.anomalies},
            {"health.flags.checkpoint_retry", r.checkpoint_retry_flags},
            {"health.flags.iteration_spike", r.iteration_spikes},
            {"health.flags.residual_stagnation", r.residual_stagnations},
            {"profile.bytes", r.profile.bytes}, {"profile.flops", r.profile.flops},
            {"profile.message_bytes", r.profile.msg_bytes},
            {"profile.messages", r.profile.messages},
            {"profile.reductions", r.profile.reductions}, {"solver.cfl", r.cfl},
            {"solver.divergence", r.divergence}, {"solver.dt", r.dt},
            {"solver.pressure_iterations", r.pressure_iterations},
            {"solver.pressure_residual", r.pressure_residual},
            {"solver.projection_basis", r.projection_basis},
            {"solver.scalar_iterations", r.scalar_iterations}, {"solver.time", r.time},
            {"solver.velocity_iterations", r.velocity_iterations}});
  m.raw("telemetry.step_seconds", summary(r.step_seconds));
  return JsonWriter()
      .field("type", "step")
      .fields({{"step", r.step}, {"time", sim_time}, {"wall_seconds", r.wall_seconds},
               {"step_seconds", r.step_seconds.last}})
      .raw("metrics", m.done())
      .done();
}

void Telemetry::write_chrome_trace() const {
  // Regions on tid 1, named by their path's last element (npos + 1 == 0
  // keeps a top-level name whole) with the path in args; each stream on tid
  // 100 + stream; step boundaries as global instants.
  constexpr int kRegionTid = 1;
  constexpr int kStreamTidBase = 100;
  ChromeTraceWriter trace;
  trace.process_name(1, "felis");
  trace.thread_name(1, kRegionTid, "solver (profiler regions)");
  int max_stream = -1;
  for (const TraceEvent& e : trace_.events()) {
    if (e.stream == kStepTrack) {
      trace.instant(1, kRegionTid, e.name, "step", e.t_begin, "g");
    } else if (e.stream == kRegionTrack) {
      trace.complete(1, kRegionTid, e.name.substr(e.name.rfind('/') + 1), "profiler",
                     e.t_begin, e.t_end, JsonWriter().field("path", e.name).done());
    } else {
      trace.complete(1, kStreamTidBase + e.stream, e.name, "stream", e.t_begin,
                     e.t_end);
      max_stream = std::max(max_stream, e.stream);
    }
  }
  for (int s = 0; s <= max_stream; ++s) {
    trace.thread_name(1, kStreamTidBase + s,
                      s == 0 ? "stream 0 (fine)"
                             : "stream " + std::to_string(s) + " (coarse)");
  }
  // The metadata map lands in otherData, with the cap's drop count.
  std::map<std::string, std::string> other = metadata_;
  other["trace_events_dropped"] = std::to_string(trace_.dropped());
  io::AtomicFileWriter writer(trace_path_);
  writer.stream() << trace.done(JsonWriter().fields(other).done());
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
