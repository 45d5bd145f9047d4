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

namespace {

/// A `telemetry.*` count. A negative value would wrap to 2^64 - 1 (no trace
/// cap, a stagnation run that never trips), so it is an error naming the key.
usize count_param(const ParamMap& params, const std::string& key,
                  usize fallback) {
  const int v = params.get_int(key, static_cast<int>(fallback));
  if (v < 0)
    throw Error("parameter '" + key + "' must be >= 0, got " +
                std::to_string(v));
  return static_cast<usize>(v);
}

}  // namespace

TelemetryConfig config_from_params(const ParamMap& params) {
  TelemetryConfig cfg;
  cfg.dir = params.get_string("telemetry.dir", cfg.dir);
  cfg.basename = params.get_string("telemetry.basename", cfg.basename);
  cfg.interval = params.get_int("telemetry.interval",
                                static_cast<int>(cfg.interval));
  if (cfg.interval < 1) cfg.interval = 1;
  cfg.trace = params.get_bool("telemetry.trace", cfg.trace);
  cfg.max_trace_events =
      count_param(params, "telemetry.max_trace_events", cfg.max_trace_events);
  cfg.health.heartbeat =
      params.get_int("telemetry.heartbeat", static_cast<int>(cfg.health.heartbeat));
  cfg.health.stagnation_run =
      count_param(params, "telemetry.stagnation_run", cfg.health.stagnation_run);
  return cfg;
}

namespace {

/// Shortest representation that round-trips a double; JSON has no Inf/NaN,
/// so non-finite values (an empty histogram's min/max) serialize as 0.
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

double gauge_value(const MetricsRegistry& metrics, const char* name) {
  const Metric* m = metrics.find(name);
  return m ? m->value() : 0.0;
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config,
                     std::map<std::string, std::string> metadata)
    : config_(std::move(config)),
      metadata_(std::move(metadata)),
      trace_(config_.max_trace_events),
      health_(std::make_unique<RunHealth>(config_.health, &metrics_)) {
  // Pre-register the fields every step record must carry (acceptance: a
  // record always contains iteration counts, residuals, Nu, CFL, checkpoint
  // stats — even on a step where a subsystem charged nothing).
  for (const char* g : {"solver.cfl", "solver.dt", "solver.time",
                        "solver.pressure_iterations",
                        "solver.velocity_iterations",
                        "solver.scalar_iterations", "solver.pressure_residual",
                        "solver.divergence", "solver.projection_basis",
                        "case.nu_plate", "case.nu_volume"}) {
    metrics_.gauge(g);
  }
  for (const char* c : {"checkpoint.writes", "checkpoint.retries",
                        "checkpoint.bytes", "health.anomalies",
                        "health.flags.iteration_spike",
                        "health.flags.residual_stagnation",
                        "health.flags.checkpoint_retry"}) {
    metrics_.counter(c);
  }
  metrics_.histogram("checkpoint.write_seconds");
  metrics_.histogram("telemetry.step_seconds");

  std::filesystem::create_directories(config_.dir);
  ndjson_path_ = config_.dir + "/" + config_.basename + ".ndjson";
  trace_path_ = config_.dir + "/" + config_.basename + ".trace.json";
  summary_path_ = config_.dir + "/" + config_.basename + ".summary.csv";
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
    // at worst the summary/trace files are missing.
  }
}

bool Telemetry::sampling_due(std::int64_t step) const {
  return step % config_.interval == 0;
}

void Telemetry::begin_step(std::int64_t step) {
  (void)step;
  step_watch_ = std::make_unique<Stopwatch>();
}

void Telemetry::end_step(std::int64_t step, double sim_time) {
  if (finalized_) return;
  const double step_seconds = step_watch_ ? step_watch_->seconds() : 0.0;
  step_watch_.reset();
  metrics_.observe("telemetry.step_seconds", step_seconds);

  if (config_.trace) {
    const double t = now();
    trace_.record(kStepTrack, "step " + std::to_string(step), t, t);
  }

  feed_health(step, step_seconds);

  if (sampling_due(step)) {
    ndjson_->append(step_record(step, sim_time, step_seconds));
    ++records_written_;
  }
}

void Telemetry::feed_health(std::int64_t step, double step_seconds) {
  StepSample sample;
  sample.step = step;
  sample.wall_seconds = now();
  sample.step_seconds = step_seconds;
  sample.cfl = gauge_value(metrics_, "solver.cfl");
  sample.pressure_iterations =
      static_cast<int>(gauge_value(metrics_, "solver.pressure_iterations"));
  sample.pressure_residual = gauge_value(metrics_, "solver.pressure_residual");
  sample.nusselt = gauge_value(metrics_, "case.nu_volume");
  sample.arena_bytes = gauge_value(metrics_, "device.arena_high_water");
  health_->on_step(sample);
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

std::string Telemetry::step_record(std::int64_t step, double sim_time,
                                   double step_seconds) const {
  std::ostringstream os;
  os << R"({"type":"step","step":)" << step << R"(,"time":)"
     << json_number(sim_time) << R"(,"wall_seconds":)" << json_number(now())
     << R"(,"step_seconds":)" << json_number(step_seconds) << R"(,"metrics":{)";
  bool first = true;
  for (const MetricRow& row : metrics_.snapshot()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(row.name) << R"(":)";
    if (row.kind == MetricKind::kHistogram) {
      os << R"({"last":)" << json_number(row.value) << R"(,"count":)"
         << json_number(row.count) << R"(,"sum":)" << json_number(row.sum)
         << R"(,"min":)" << json_number(row.count > 0 ? row.min : 0)
         << R"(,"max":)" << json_number(row.count > 0 ? row.max : 0) << '}';
    } else {
      os << json_number(row.value);
    }
  }
  os << "}}";
  return os.str();
}

void Telemetry::write_summary_csv() const {
  io::AtomicFileWriter writer(summary_path_);
  std::ostream& os = writer.stream();
  for (const auto& [key, value] : metadata_) {
    os << "# " << key << " = " << value << '\n';
  }
  os << "name,kind,value,count,sum,min,max\n";
  for (const MetricRow& row : metrics_.snapshot()) {
    os << row.name << ',' << metric_kind_name(row.kind) << ','
       << json_number(row.value) << ',' << json_number(row.count) << ','
       << json_number(row.sum) << ','
       << json_number(row.count > 0 ? row.min : 0) << ','
       << json_number(row.count > 0 ? row.max : 0) << '\n';
  }
  writer.commit();
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
  write_summary_csv();
  if (config_.trace) write_chrome_trace();
  FELIS_LOG_INFO("telemetry: ", records_written_, " step records -> ",
                 ndjson_path_, "; summary -> ", summary_path_,
                 config_.trace ? "; trace -> " + trace_path_ : std::string());
}

}  // namespace felis::telemetry
