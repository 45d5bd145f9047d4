// Tests for the unified telemetry layer: the metrics registry (kinds,
// find-or-create, lock-free recording), the run-health watchdog, the
// disabled-path contract (an inert object), and the end-to-end artifact
// contract — a short RBC run with telemetry on must stream one NDJSON record
// per sampled step, write a well-formed Chrome trace under the one trace cap
// and a CSV summary, and leave the simulated fields bitwise identical to a
// telemetry-off twin.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "case/rbc.hpp"
#include "device/backend.hpp"
#include "operators/setup.hpp"
#include "precon/coarse.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_health.hpp"
#include "telemetry/telemetry.hpp"

namespace felis {
namespace {

namespace fs = std::filesystem;

// ---- metrics registry -------------------------------------------------------

TEST(Metrics, KindsRecordTheirSemantics) {
  telemetry::MetricsRegistry registry;
  telemetry::Metric& c = registry.counter("gs.applies");
  c.add(2);
  c.add(3);
  EXPECT_EQ(c.kind(), telemetry::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(c.value(), 5.0);
  EXPECT_DOUBLE_EQ(c.count(), 2.0);

  telemetry::Metric& g = registry.gauge("solver.cfl");
  g.set(0.4);
  g.set(0.7);
  EXPECT_DOUBLE_EQ(g.value(), 0.7);  // last writer wins

  telemetry::Metric& h = registry.histogram("checkpoint.write_seconds");
  h.observe(2.0);
  h.observe(0.5);
  h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.value(), 1.0);  // last sample
  EXPECT_DOUBLE_EQ(h.count(), 3.0);
  EXPECT_DOUBLE_EQ(h.sum(), 3.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);

  EXPECT_STREQ(telemetry::metric_kind_name(telemetry::MetricKind::kCounter),
               "counter");
  EXPECT_STREQ(telemetry::metric_kind_name(telemetry::MetricKind::kGauge),
               "gauge");
  EXPECT_STREQ(telemetry::metric_kind_name(telemetry::MetricKind::kHistogram),
               "histogram");
}

TEST(Metrics, FindOrCreateIsIdempotentAndFindNeverCreates) {
  telemetry::MetricsRegistry registry;
  telemetry::Metric& a = registry.counter("comm.allreduces");
  telemetry::Metric& b = registry.counter("comm.allreduces");
  EXPECT_EQ(&a, &b);  // handles are stable, hot callers may cache them
  EXPECT_EQ(registry.find("comm.allreduces"), &a);
  EXPECT_EQ(registry.find("never.registered"), nullptr);
  EXPECT_EQ(registry.size(), 1u);

  registry.add("krylov.cg_iterations", 12);  // name-based find-or-create
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_DOUBLE_EQ(registry.find("krylov.cg_iterations")->value(), 12.0);
}

TEST(Metrics, SnapshotIsSortedAndCompleted) {
  telemetry::MetricsRegistry registry;
  registry.set("solver.cfl", 0.3);
  registry.add("gs.applies", 4);
  registry.observe("telemetry.step_seconds", 0.01);
  const std::vector<telemetry::MetricRow> rows = registry.snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "gs.applies");
  EXPECT_EQ(rows[1].name, "solver.cfl");
  EXPECT_EQ(rows[2].name, "telemetry.step_seconds");
  EXPECT_EQ(rows[2].kind, telemetry::MetricKind::kHistogram);
  EXPECT_DOUBLE_EQ(rows[2].min, 0.01);
  EXPECT_DOUBLE_EQ(rows[2].max, 0.01);
}

TEST(Metrics, ConcurrentChargingLosesNothing) {
  telemetry::MetricsRegistry registry;
  telemetry::Metric& counter = registry.counter("stress.counter");
  telemetry::Metric& hist = registry.histogram("stress.hist");
  constexpr int kThreads = 4;
  constexpr int kReps = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReps; ++i) {
        counter.add(1);
        hist.observe(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(counter.value(), kThreads * kReps);
  EXPECT_DOUBLE_EQ(hist.count(), kThreads * kReps);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 99.0);
}

// ---- run health -------------------------------------------------------------

telemetry::StepSample health_sample(std::int64_t step, int p_it,
                                    double residual) {
  telemetry::StepSample s;
  s.step = step;
  s.wall_seconds = 0.05 * static_cast<double>(step);
  s.step_seconds = 0.05;
  s.cfl = 0.4;
  s.pressure_iterations = p_it;
  s.pressure_residual = residual;
  return s;
}

TEST(RunHealth, FlagsIterationSpikes) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;  // keep the log quiet
  telemetry::MetricsRegistry metrics;
  telemetry::RunHealth health(config, &metrics);
  // Improving residuals so stagnation never trips; steady 5-iteration solves.
  for (std::int64_t s = 1; s <= 5; ++s)
    health.on_step(health_sample(s, 5, 1e-6 / static_cast<double>(s)));
  EXPECT_EQ(health.anomaly_count(), 0);
  // 40 iterations against a trailing mean of 5: above both the 3x factor and
  // the +8 margin.
  health.on_step(health_sample(6, 40, 1e-8));
  EXPECT_EQ(health.anomaly_count(), 1);
  const telemetry::Metric* m = metrics.find("health.flags.iteration_spike");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value(), 1.0);
  // Exactly once per detection: a second spike is a second increment.
  health.on_step(health_sample(7, 60, 1e-8));
  EXPECT_DOUBLE_EQ(m->value(), 2.0);
  const telemetry::Metric* agg = metrics.find("health.anomalies");
  ASSERT_NE(agg, nullptr);
  EXPECT_DOUBLE_EQ(agg->value(), 2.0);
}

TEST(RunHealth, FlagsResidualStagnation) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;
  config.stagnation_run = 3;
  telemetry::MetricsRegistry metrics;
  telemetry::RunHealth health(config, &metrics);
  // Constant residual: steps 2..4 are non-improving, tripping at run 3.
  for (std::int64_t s = 1; s <= 4; ++s)
    health.on_step(health_sample(s, 5, 1e-6));
  EXPECT_EQ(health.anomaly_count(), 1);
  const telemetry::Metric* m = metrics.find("health.flags.residual_stagnation");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value(), 1.0);
  // Continued stagnation within the same run does not re-flag: the counter
  // records detections, not stagnant steps.
  health.on_step(health_sample(5, 5, 1e-6));
  EXPECT_EQ(health.anomaly_count(), 1);
  EXPECT_DOUBLE_EQ(m->value(), 1.0);
  // An improving step resets the run; no immediate second flag.
  health.on_step(health_sample(6, 5, 1e-9));
  EXPECT_EQ(health.anomaly_count(), 1);
}

TEST(RunHealth, DigestSummarizesTheLastStep) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;
  telemetry::RunHealth health(config);  // no registry: metrics are optional
  EXPECT_TRUE(health.last_digest().empty());
  health.on_step(health_sample(3, 7, 2.5e-7));
  const std::string& digest = health.last_digest();
  EXPECT_NE(digest.find("health: step 3"), std::string::npos);
  EXPECT_NE(digest.find("p_it 7"), std::string::npos);
}

TEST(RunHealth, CheckpointRetriesCountAsAnomalies) {
  telemetry::HealthConfig config;
  config.heartbeat = 0;
  telemetry::MetricsRegistry metrics;
  telemetry::RunHealth health(config, &metrics);
  health.flag_checkpoint_retries(2, "ckpt/step42.felis");
  EXPECT_EQ(health.anomaly_count(), 1);
  const telemetry::Metric* m = metrics.find("health.flags.checkpoint_retry");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value(), 1.0);
  // One detection per degraded write, however many retries it burned.
  health.flag_checkpoint_retries(3, "ckpt/step43.felis");
  EXPECT_DOUBLE_EQ(m->value(), 2.0);
  EXPECT_EQ(health.anomaly_count(), 2);
}

// ---- disabled-path contract -------------------------------------------------

TEST(Telemetry, DisabledContextIsInertAndNeverInstalls) {
  telemetry::TelemetryConfig config;  // enabled = false
  telemetry::Telemetry tel(config);
  EXPECT_FALSE(tel.enabled());
  // The whole step API is a no-op and writes nothing.
  tel.begin_step(1);
  tel.end_step(1, 0.02);
  tel.finalize();
  EXPECT_EQ(tel.records_written(), 0);
  EXPECT_TRUE(tel.ndjson_path().empty());
  EXPECT_EQ(tel.metrics().size(), 0u);
}

TEST(Telemetry, ConfigFromParamsReadsTelemetryKeys) {
  const ParamMap params = ParamMap::parse(R"(
    telemetry.enabled = true
    telemetry.dir = out
    telemetry.basename = probe
    telemetry.interval = 0   # clamped to 1
    telemetry.trace = false
    telemetry.heartbeat = 25
    telemetry.stagnation_run = 9
  )");
  const telemetry::TelemetryConfig config =
      telemetry::config_from_params(params);
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.dir, "out");
  EXPECT_EQ(config.basename, "probe");
  EXPECT_EQ(config.interval, 1);
  EXPECT_FALSE(config.trace);
  EXPECT_EQ(config.health.heartbeat, 25);
  EXPECT_EQ(config.health.stagnation_run, 9u);
}

// ---- end-to-end over a real RBC run -----------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void expect_bitwise(const RealVec& a, const RealVec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (usize i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " differs at dof " << i;
}

class TelemetryRbc : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("felis_tel_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name())))
               .string();
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
    config.enabled = true;
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
    auto coarse = precon::make_coarse_setup(mesh, comm, &backend);
    fine.telemetry = tel;
    coarse.telemetry = tel;
    rbc::RbcSimulation sim(fine.ctx(), coarse.ctx(), case_config());
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
  // Every step record carries the acceptance metric set.
  for (int s = 1; s <= 3; ++s) {
    const std::string& line = lines[static_cast<usize>(s)];
    EXPECT_NE(line.find(R"("type":"step","step":)" + std::to_string(s)),
              std::string::npos);
    for (const char* name :
         {"solver.cfl", "solver.pressure_iterations",
          "solver.velocity_iterations", "solver.pressure_residual",
          "case.nu_volume", "checkpoint.writes", "checkpoint.retries",
          "profile.flops", "telemetry.step_seconds", "health.anomalies",
          "health.flags.iteration_spike", "health.flags.residual_stagnation",
          "health.flags.checkpoint_retry"}) {
      EXPECT_NE(line.find('"' + std::string(name) + '"'), std::string::npos)
          << "step " << s << " record lacks " << name;
    }
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

  // The CSV summary opens with the metadata comments then the column header.
  const std::vector<std::string> csv = read_lines(tel.summary_path());
  ASSERT_GE(csv.size(), 4u);
  EXPECT_EQ(csv[0].rfind("# ", 0), 0u);
  bool saw_columns = false, saw_cfl = false;
  for (const std::string& l : csv) {
    if (l == "name,kind,value,count,sum,min,max") saw_columns = true;
    if (l.rfind("solver.cfl,gauge,", 0) == 0) saw_cfl = true;
  }
  EXPECT_TRUE(saw_columns);
  EXPECT_TRUE(saw_cfl);
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
    const std::string key = R"("trace_events_dropped": ")";
    const int dropped = std::stoi(json.substr(json.find(key) + key.size()));
    return std::pair<int, int>{recorded, dropped};
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
