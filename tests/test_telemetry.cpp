// Tests for the unified telemetry layer: the run-health watchdog over the
// step record, the channel's configuration keys, and the end-to-end artifact
// contract — a short RBC run with telemetry on must stream one NDJSON record
// per sampled step with the step record's exact key list, write a
// well-formed Chrome trace under the one trace cap, and leave the simulated
// fields bitwise identical to a telemetry-off twin.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "case/rbc.hpp"
#include "common/json.hpp"
#include "device/backend.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"
#include "telemetry/run_health.hpp"
#include "telemetry/telemetry.hpp"
#include "test_paths.hpp"

namespace felis {
namespace {

namespace fs = std::filesystem;

// ---- run health -------------------------------------------------------------

/// A RunHealth over its own step record, fed one step at a time the way
/// Telemetry::end_step feeds it.
struct HealthProbe {
  explicit HealthProbe(telemetry::HealthConfig config)
      : health(config, record) {}

  void step(std::int64_t step, int p_it, double residual) {
    record.step = step;
    record.wall_seconds = 0.05 * static_cast<double>(step);
    record.cfl = 0.4;
    record.pressure_iterations = p_it;
    record.pressure_residual = residual;
    health.on_step();
  }

  telemetry::StepRecord record;
  telemetry::RunHealth health;
};

TEST(RunHealth, FlagsIterationSpikes) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;  // keep the log quiet
  HealthProbe probe(config);
  const telemetry::StepRecord& record = probe.record;
  // Improving residuals so stagnation never trips; steady 5-iteration solves.
  for (std::int64_t s = 1; s <= 5; ++s)
    probe.step(s, 5, 1e-6 / static_cast<double>(s));
  EXPECT_EQ(record.anomalies, 0);
  // 40 iterations against a trailing mean of 5: above both the 3x factor and
  // the +8 margin.
  probe.step(6, 40, 1e-8);
  EXPECT_EQ(record.anomalies, 1);
  EXPECT_EQ(record.iteration_spikes, 1);
  // Exactly once per detection: a second spike is a second increment.
  probe.step(7, 60, 1e-8);
  EXPECT_EQ(record.iteration_spikes, 2);
  EXPECT_EQ(record.anomalies, 2);
}

TEST(RunHealth, FlagsResidualStagnation) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;
  config.stagnation_run = 3;
  HealthProbe probe(config);
  const telemetry::StepRecord& record = probe.record;
  // Constant residual: steps 2..4 are non-improving, tripping at run 3.
  for (std::int64_t s = 1; s <= 4; ++s) probe.step(s, 5, 1e-6);
  EXPECT_EQ(record.anomalies, 1);
  EXPECT_EQ(record.residual_stagnations, 1);
  // Continued stagnation within the same run does not re-flag: the count
  // records detections, not stagnant steps.
  probe.step(5, 5, 1e-6);
  EXPECT_EQ(record.anomalies, 1);
  EXPECT_EQ(record.residual_stagnations, 1);
  // An improving step resets the run; no immediate second flag.
  probe.step(6, 5, 1e-9);
  EXPECT_EQ(record.anomalies, 1);
}

TEST(RunHealth, DigestSummarizesTheLastStep) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;
  HealthProbe probe(config);
  EXPECT_TRUE(probe.health.last_digest().empty());
  probe.step(3, 7, 2.5e-7);
  const std::string& digest = probe.health.last_digest();
  EXPECT_NE(digest.find("health: step 3"), std::string::npos);
  EXPECT_NE(digest.find("p_it 7"), std::string::npos);
}

TEST(RunHealth, CheckpointRetriesCountAsAnomalies) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;
  HealthProbe probe(config);
  const telemetry::StepRecord& record = probe.record;
  probe.health.flag_checkpoint_retries(2, "ckpt/step42.felis");
  EXPECT_EQ(record.anomalies, 1);
  EXPECT_EQ(record.checkpoint_retry_flags, 1);
  // One detection per degraded write, however many retries it burned.
  probe.health.flag_checkpoint_retries(3, "ckpt/step43.felis");
  EXPECT_EQ(record.checkpoint_retry_flags, 2);
  EXPECT_EQ(record.anomalies, 2);
}

TEST(Telemetry, ConfigFromParamsReadsTelemetryKeys) {
  const ParamMap params = ParamMap::parse(R"(
    telemetry.dir = out
    telemetry.basename = probe
    telemetry.interval = 3
    telemetry.trace = false
    telemetry.heartbeat = 25
    telemetry.stagnation_run = 9
  )");
  const telemetry::TelemetryConfig config =
      telemetry::config_from_params(params);
  EXPECT_EQ(config.dir, "out");
  EXPECT_EQ(config.basename, "probe");
  EXPECT_EQ(config.interval, 3);
  EXPECT_FALSE(config.trace);
  EXPECT_EQ(config.health.heartbeat, 25);
  EXPECT_EQ(config.health.stagnation_run, 9u);
  // Out of range is an error naming the key, never a silent clamp.
  for (const char* bad : {"telemetry.interval = 0", "telemetry.heartbeat = -1",
                          "telemetry.max_trace_events = -1"}) {
    try {
      telemetry::config_from_params(ParamMap::parse(bad));
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      const std::string key(bad, std::string(bad).find(' '));
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
}

// ---- end-to-end over a real RBC run -----------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The keys of a step record's `metrics` object, in stream order. Values
/// are numbers or flat `{...}` summaries; names carry no escapes.
std::vector<std::string> metric_keys(const std::string& line) {
  std::vector<std::string> keys;
  const std::string open = R"("metrics":{)";
  usize at = line.find(open);
  if (at == std::string::npos) return keys;
  for (at += open.size(); at < line.size() && line[at] == '"'; ++at) {
    const usize end = line.find('"', at + 1);
    if (end == std::string::npos) break;
    keys.push_back(line.substr(at + 1, end - at - 1));
    usize value = end + 2;  // past the closing quote and the colon
    if (value < line.size() && line[value] == '{') value = line.find('}', value);
    at = value < line.size() ? line.find_first_of(",}", value + 1)
                             : std::string::npos;
    if (at == std::string::npos || line[at] == '}') break;
  }
  return keys;
}

void expect_bitwise(const RealVec& a, const RealVec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " differs at dof " << i;
}

class TelemetryRbc : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::test_scratch_dir("felis_tel_");
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static mesh::HexMesh test_mesh() {
    mesh::BoxMeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 3;
    cfg.lx = cfg.ly = 2.0;
    cfg.lz = 1.0;
    cfg.periodic_x = cfg.periodic_y = true;
    return make_box_mesh(cfg);
  }

  static rbc::RbcConfig case_config() {
    rbc::RbcConfig config;
    config.rayleigh = 1e4;
    config.dt = 2e-2;
    config.perturbation_lx = config.perturbation_ly = 2.0;
    config.flow.velocity_walls = {mesh::FaceTag::kBottom, mesh::FaceTag::kTop};
    return config;
  }

  telemetry::TelemetryConfig telemetry_config() const {
    telemetry::TelemetryConfig config;
    config.dir = dir_;
    config.health.heartbeat = 0;  // keep test logs quiet
    return config;
  }

  /// Run `steps` RBC steps; `tel` may be null (the telemetry-off twin).
  RealVec run_case(int steps, telemetry::Telemetry* tel) {
    const mesh::HexMesh mesh = test_mesh();
    comm::SelfComm comm;
    device::SerialBackend backend;
    auto fine = operators::make_rank_setup(mesh, 5, comm, true, true, &backend);
    auto coarse = precon::make_coarse_setup(mesh, comm);
    rbc::RbcSimulation sim(fine.ctx(), coarse.ctx(), case_config());
    sim.solver().attach_telemetry(tel);
    sim.set_initial_conditions();
    for (int s = 0; s < steps; ++s) sim.step();
    RealVec state = sim.solver().temperature();
    for (const RealVec* v :
         {&sim.solver().u(), &sim.solver().v(), &sim.solver().w()})
      state.insert(state.end(), v->begin(), v->end());
    return state;
  }

  std::string dir_;
};

TEST_F(TelemetryRbc, ThreeStepRunStreamsOneRecordPerStep) {
  telemetry::Telemetry tel(telemetry_config(), {{"backend", "serial"},
                                                {"threads", "1"},
                                                {"degree", "5"}});
  run_case(3, &tel);
  tel.finalize();
  EXPECT_EQ(tel.records_written(), 3);

  const std::vector<std::string> lines = read_lines(tel.ndjson_path());
  ASSERT_EQ(lines.size(), 4u);  // header + one record per step
  // Header first, carrying the join-identity metadata.
  EXPECT_EQ(lines[0].rfind(R"({"type":"header","schema":1)", 0), 0u);
  EXPECT_NE(lines[0].find(R"("backend":"serial")"), std::string::npos);
  EXPECT_NE(lines[0].find(R"("degree":"5")"), std::string::npos);
  // Every step record carries the same 29 metrics in one order: sorted by
  // name, the case's observables first and each summary before the count
  // that sorts after it.
  const std::vector<std::string> keys = {
      "case.kinetic_energy", "case.nu_plate", "case.nu_volume",
      "case.temperature_mean", "checkpoint.bytes", "checkpoint.retries",
      "checkpoint.write_seconds", "checkpoint.writes", "device.arena_bytes",
      "device.arena_high_water", "health.anomalies",
      "health.flags.checkpoint_retry", "health.flags.iteration_spike",
      "health.flags.residual_stagnation", "profile.bytes", "profile.flops",
      "profile.message_bytes", "profile.messages", "profile.reductions",
      "solver.cfl", "solver.divergence", "solver.dt",
      "solver.pressure_iterations", "solver.pressure_residual",
      "solver.projection_basis", "solver.scalar_iterations", "solver.time",
      "solver.velocity_iterations", "telemetry.step_seconds"};
  for (int s = 1; s <= 3; ++s) {
    const std::string& line = lines[static_cast<usize>(s)];
    EXPECT_NE(line.find(R"("type":"step","step":)" + std::to_string(s)),
              std::string::npos);
    EXPECT_EQ(metric_keys(line), keys) << "step " << s << ": " << line;
  }

  // The Chrome trace merges profiler regions and step marks on one timeline.
  const std::vector<std::string> trace = read_lines(tel.trace_path());
  ASSERT_FALSE(trace.empty());
  std::string joined;
  for (const std::string& l : trace) joined += l;
  EXPECT_NE(joined.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(joined.find(R"("cat":"profiler")"), std::string::npos);
  EXPECT_NE(joined.find(R"("cat":"step")"), std::string::npos);
  EXPECT_NE(joined.find(R"("otherData")"), std::string::npos);

}

TEST_F(TelemetryRbc, TraceCapKeepsTheFirstEventsAndCountsTheRest) {
  // Regions, stream intervals and step marks share the run's one cap: the
  // trace keeps exactly `cap` of them and reports the rest as dropped.
  const auto trace_of = [this](usize cap) {
    telemetry::TelemetryConfig config = telemetry_config();
    config.max_trace_events = cap;
    telemetry::Telemetry tel(config, {{"backend", "serial"}});
    run_case(3, &tel);
    tel.finalize();
    std::string json;
    for (const std::string& l : read_lines(tel.trace_path())) json += l;
    int recorded = 0;
    for (const char* ph : {R"("ph":"X")", R"("ph":"i")"})
      for (usize at = json.find(ph); at != std::string::npos; at = json.find(ph, at + 1))
        ++recorded;
    const std::optional<JsonRecord> trace = parse_json_record(json);
    const std::string* dropped =
        trace ? trace->object("otherData").string("trace_events_dropped") : nullptr;
    return std::pair<int, int>{recorded, dropped ? std::stoi(*dropped) : -1};
  };
  const auto [total, none] = trace_of(usize{1} << 18);
  EXPECT_EQ(none, 0);
  const int cap = total / 2;
  const auto [kept, dropped] = trace_of(static_cast<usize>(cap));
  EXPECT_EQ(kept, cap);
  EXPECT_EQ(dropped, total - cap);
}

TEST_F(TelemetryRbc, SamplingIntervalThinsTheStream) {
  telemetry::TelemetryConfig config = telemetry_config();
  config.interval = 2;
  config.trace = false;
  telemetry::Telemetry tel(config, {{"backend", "serial"}});
  run_case(4, &tel);
  tel.finalize();
  EXPECT_EQ(tel.records_written(), 2);  // steps 2 and 4 only
  const std::vector<std::string> lines = read_lines(tel.ndjson_path());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find(R"("step":2,)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("step":4,)"), std::string::npos);
}

TEST_F(TelemetryRbc, FieldsAreBitwiseIdenticalWithTelemetryOnOrOff) {
  // The acceptance contract: telemetry only reads solver state, so the
  // simulated fields must be the SAME BITS with telemetry on and off.
  RealVec with_telemetry;
  {
    telemetry::Telemetry tel(telemetry_config(), {{"backend", "serial"}});
    with_telemetry = run_case(3, &tel);
    tel.finalize();
  }
  const RealVec without_telemetry = run_case(3, nullptr);
  expect_bitwise(with_telemetry, without_telemetry, "temperature+u+v+w");
}

}  // namespace
}  // namespace felis
