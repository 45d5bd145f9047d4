// Tests for campaign observability: the crash-tolerant NDJSON tail reader
// (newline-keyed completion, torn tails withheld and delivered exactly once,
// mid-write races, truncation resets), the CampaignMonitor fold (manifest
// equivalence with sched::read_manifest including torn tails, clock rebase
// across resume sessions, telemetry roll-up, health flags, perfmodel ETA and
// normalized straggler detection, queue shape from the manifest alone), and
// the three exporters (status JSON, Prometheus text, merged Chrome trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/campaign_monitor.hpp"
#include "obs/exporters.hpp"
#include "obs/ndjson_follower.hpp"
#include "sched/campaign.hpp"
#include "sched/manifest.hpp"
#include "test_paths.hpp"

namespace felis::obs {
namespace {

namespace fs = std::filesystem;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::test_scratch_dir("felis_obs_");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Raw byte-level append — tests control newlines exactly, including torn
  /// tails a DurableAppendWriter would only leave behind after a kill.
  void append_raw(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << bytes;
  }

  /// One telemetry step record in the production encoding
  /// (telemetry::Telemetry::step_record): flat metrics keyed by dotted name.
  static std::string step_record(std::int64_t step, double time,
                                 double wall_seconds,
                                 const std::map<std::string, double>& metrics) {
    std::ostringstream os;
    os << R"({"type":"step","step":)" << step << R"(,"time":)" << time
       << R"(,"wall_seconds":)" << wall_seconds << R"(,"step_seconds":0.01)"
       << R"(,"metrics":{)";
    bool first = true;
    for (const auto& [key, value] : metrics) {
      if (!first) os << ',';
      first = false;
      os << '"' << key << R"(":)" << value;
    }
    os << "}}";
    return os.str();
  }

  /// Start case `id`'s telemetry stream (header + steps), like a run attempt.
  void write_case_stream(const std::string& id,
                         const std::vector<std::string>& records,
                         bool truncate = false) {
    const fs::path tdir = fs::path(dir_) / id / "telemetry";
    fs::create_directories(tdir);
    const std::string path = (tdir / "run.ndjson").string();
    if (truncate) fs::remove(path);
    std::ofstream os(path, std::ios::binary | std::ios::app);
    if (truncate || !fs::exists(path) || fs::file_size(path) == 0) {
      os << R"({"type":"header","schema":1,"interval":1,"metadata":{}})"
         << '\n';
    }
    for (const std::string& r : records) os << r << '\n';
  }

  /// A campaign spec with `n` equal-cost cases a, b, c, ... for the manifest.
  static sched::CampaignSpec make_spec(int n, double cost_seconds = 10,
                                       std::int64_t steps = 10) {
    sched::CampaignSpec spec;
    spec.config.name = "obs_campaign";
    spec.config.workers = 2;
    spec.config.thread_budget = 4;
    spec.config.ranks = 1;
    for (int i = 0; i < n; ++i) {
      sched::CaseSpec c;
      c.id = std::string(1, static_cast<char>('a' + i));
      c.threads = 1;
      c.steps = steps;
      c.cost_seconds = cost_seconds;
      spec.cases.push_back(c);
    }
    return spec;
  }

  std::string manifest_path() const { return dir_ + "/manifest.ndjson"; }

  std::string dir_;
};

// ---- NdjsonFollower ------------------------------------------------------

TEST_F(ObsTest, FollowerDeliversOnlyNewlineTerminatedLines) {
  const std::string path = dir_ + "/j.ndjson";
  append_raw(path, "alpha\nbet");  // second record torn mid-append

  NdjsonFollower follower(path);
  std::vector<std::string> lines;
  EXPECT_EQ(follower.poll(&lines), 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "alpha");
  EXPECT_EQ(follower.offset(), 6u);  // "alpha\n"; the torn tail is unconsumed

  // Re-polling the unchanged file re-examines the tail, still withholds it.
  EXPECT_EQ(follower.poll(&lines), 0u);

  // The writer completes the record: delivered exactly once, no duplicate.
  append_raw(path, "a\ngamma\n");
  lines.clear();
  EXPECT_EQ(follower.poll(&lines), 2u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "beta");
  EXPECT_EQ(lines[1], "gamma");
  EXPECT_EQ(follower.offset(), fs::file_size(path));
}

TEST_F(ObsTest, FollowerToleratesMissingFileUntilItAppears) {
  const std::string path = dir_ + "/late.ndjson";
  NdjsonFollower follower(path);
  std::vector<std::string> lines;
  EXPECT_FALSE(follower.exists());
  EXPECT_EQ(follower.poll(&lines), 0u);  // missing journal is not an error
  EXPECT_EQ(follower.truncations(), 0);

  append_raw(path, "first\n");
  EXPECT_TRUE(follower.exists());
  EXPECT_EQ(follower.poll(&lines), 1u);
  EXPECT_EQ(lines[0], "first");
}

TEST_F(ObsTest, FollowerRestartsWhenTheFileShrinks) {
  const std::string path = dir_ + "/replaced.ndjson";
  append_raw(path, "old-1\nold-2\n");
  NdjsonFollower follower(path);
  std::vector<std::string> lines;
  EXPECT_EQ(follower.poll(&lines), 2u);

  // A new attempt truncates the stream and starts over (Telemetry removes
  // its run.ndjson at construction); the follower must re-deliver from 0.
  fs::remove(path);
  append_raw(path, "new\n");
  lines.clear();
  EXPECT_EQ(follower.poll(&lines), 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "new");
  EXPECT_EQ(follower.truncations(), 1);
  EXPECT_EQ(follower.offset(), 4u);
}

TEST_F(ObsTest, FollowerMidWriteRaceNeverSplitsARecord) {
  const std::string path = dir_ + "/race.ndjson";
  append_raw(path, "{\"complete\":1}\n");
  NdjsonFollower follower(path);
  std::vector<std::string> lines;
  EXPECT_EQ(follower.poll(&lines), 1u);

  // Poll lands mid-append: half a record, no newline yet — nothing delivered.
  append_raw(path, "{\"half\":");
  lines.clear();
  EXPECT_EQ(follower.poll(&lines), 0u);
  EXPECT_TRUE(lines.empty());

  // The write finishes; the record arrives intact, in one piece.
  append_raw(path, "2}\n");
  EXPECT_EQ(follower.poll(&lines), 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"half\":2}");
}

// ---- CampaignMonitor: manifest fold --------------------------------------

TEST_F(ObsTest, MonitorFoldMatchesReadManifestIncludingTornTail) {
  const sched::CampaignSpec spec = make_spec(2);
  {
    sched::ManifestWriter writer(manifest_path());
    writer.write_header(spec);
    for (const auto& c : spec.cases) writer.write_case(c);
    writer.write_transition("a", "queued", 1, 0.0, 0);
    writer.write_transition("b", "queued", 1, 0.0, 0);
    writer.write_transition("a", "running", 1, 0.1, 0);
    writer.write_transition("a", "done", 1, 2.0, 1.9, "",
                            {{"case.nu_volume", 17.5}});
  }
  // A kill tears the final record mid-value: both readers must skip it.
  append_raw(manifest_path(), R"({"type":"run","case":"b","state":"fail)");

  CampaignMonitor monitor(dir_);
  monitor.poll();
  const sched::ManifestState fresh = sched::read_manifest(manifest_path());
  ASSERT_EQ(monitor.manifest_state().cases.size(), fresh.cases.size());
  for (const auto& [id, status] : fresh.cases) {
    const auto it = monitor.manifest_state().cases.find(id);
    ASSERT_NE(it, monitor.manifest_state().cases.end()) << id;
    EXPECT_EQ(it->second.state, status.state) << id;
    EXPECT_EQ(it->second.attempts, status.attempts) << id;
    EXPECT_EQ(it->second.metrics, status.metrics) << id;
  }

  const CampaignSnapshot snap = monitor.snapshot();
  EXPECT_TRUE(snap.manifest_found);
  EXPECT_EQ(snap.campaign, "obs_campaign");
  EXPECT_EQ(snap.workers, 2);
  EXPECT_EQ(snap.thread_budget, 4);
  EXPECT_EQ(snap.done, 1);
  EXPECT_EQ(snap.queued, 1);  // the torn `failed` record never applied
  EXPECT_FALSE(snap.complete());
  ASSERT_NE(snap.find("a"), nullptr);
  EXPECT_EQ(snap.find("a")->state, "done");
  EXPECT_DOUBLE_EQ(snap.find("a")->metrics.at("case.nu_volume"), 17.5);
  EXPECT_DOUBLE_EQ(snap.find("a")->wall_seconds, 1.9);
  EXPECT_DOUBLE_EQ(snap.find("a")->progress, 1.0);

  // The writer's self-heal terminates the torn line; the follower then
  // delivers it complete-but-malformed and the fold ignores it, exactly like
  // read_manifest does after a resume.
  append_raw(manifest_path(), "\n");
  monitor.poll();
  EXPECT_EQ(monitor.manifest_state().cases.at("b").state, "queued");
}

TEST_F(ObsTest, MonitorRebasesTheCampaignClockAcrossResumes) {
  const sched::CampaignSpec spec = make_spec(2);
  {
    // Session 1: a completes at t=10, then the campaign dies.
    sched::ManifestWriter writer(manifest_path());
    writer.write_header(spec);
    for (const auto& c : spec.cases) writer.write_case(c);
    writer.write_transition("a", "queued", 1, 0.0, 0);
    writer.write_transition("b", "queued", 1, 0.0, 0);
    writer.write_transition("a", "running", 1, 0.5, 0);
    writer.write_transition("a", "done", 1, 10.0, 9.5);
  }
  {
    // Session 2: resume restarts the campaign clock at 0.
    sched::ManifestWriter writer(manifest_path());
    writer.write_resume(1);
    writer.write_transition("b", "running", 1, 1.0, 0);
    writer.write_transition("b", "done", 1, 3.0, 2.0);
  }

  CampaignMonitor monitor(dir_);
  monitor.poll();
  const CampaignSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.resumes, 1);
  EXPECT_TRUE(snap.complete());
  // Session 2's t=3 lands at 10+3 on the rebased clock; monotone throughout.
  EXPECT_DOUBLE_EQ(snap.clock_seconds, 13.0);
  ASSERT_NE(snap.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("b")->running_t, 11.0);
  EXPECT_DOUBLE_EQ(snap.find("b")->finished_t, 13.0);
  const auto& events = monitor.run_events();
  for (usize i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].t, events[i - 1].t) << "clock went backwards at " << i;
}

TEST_F(ObsTest, MonitorPollsIncrementallyWhileTheCampaignRuns) {
  const sched::CampaignSpec spec = make_spec(1);
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  writer.write_case(spec.cases[0]);
  writer.write_transition("a", "queued", 1, 0.0, 0);

  CampaignMonitor monitor(dir_);
  EXPECT_GT(monitor.poll(), 0u);
  EXPECT_EQ(monitor.snapshot().queued, 1);

  writer.write_transition("a", "running", 1, 0.2, 0);
  monitor.poll();
  EXPECT_EQ(monitor.snapshot().running, 1);

  write_case_stream("a", {step_record(4, 0.4, 1.5,
                                      {{"case.nu_volume", 16.0},
                                       {"solver.cfl", 0.42},
                                       {"solver.pressure_iterations", 12}})});
  monitor.poll();
  CampaignSnapshot snap = monitor.snapshot();
  ASSERT_NE(snap.find("a"), nullptr);
  EXPECT_TRUE(snap.find("a")->telemetry_found);
  EXPECT_EQ(snap.find("a")->step, 4);
  EXPECT_DOUBLE_EQ(snap.find("a")->nusselt, 16.0);
  EXPECT_DOUBLE_EQ(snap.find("a")->cfl, 0.42);
  EXPECT_DOUBLE_EQ(snap.find("a")->progress, 0.4);

  writer.write_transition("a", "done", 1, 2.0, 1.8);
  monitor.poll();
  snap = monitor.snapshot();
  EXPECT_TRUE(snap.complete());
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);
}

TEST_F(ObsTest, MonitorDropsStaleTelemetryWhenAnAttemptRestartsTheStream) {
  const sched::CampaignSpec spec = make_spec(1);
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  writer.write_case(spec.cases[0]);
  writer.write_transition("a", "queued", 1, 0.0, 0);
  writer.write_transition("a", "running", 1, 0.1, 0);
  write_case_stream("a", {step_record(8, 0.8, 3.0,
                                      {{"health.flags.iteration_spike", 2}})});

  CampaignMonitor monitor(dir_);
  monitor.poll();
  EXPECT_EQ(monitor.snapshot().find("a")->step, 8);
  EXPECT_DOUBLE_EQ(monitor.snapshot().anomalies, 2.0);

  // Attempt 2 truncates run.ndjson and starts over from step 1: the fold
  // must forget attempt 1's high-water step and health flags.
  writer.write_transition("a", "retried", 1, 1.0, 0.9);
  writer.write_transition("a", "queued", 2, 1.0, 0);
  writer.write_transition("a", "running", 2, 1.1, 0);
  write_case_stream("a", {step_record(1, 0.1, 0.5, {})}, /*truncate=*/true);
  monitor.poll();
  const CampaignSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.find("a")->step, 1);
  EXPECT_TRUE(snap.find("a")->health_flags.empty());
  EXPECT_DOUBLE_EQ(snap.anomalies, 0.0);
  EXPECT_EQ(snap.retry_transitions, 1);
  EXPECT_EQ(snap.find("a")->attempts, 2);
}

TEST_F(ObsTest, MonitorRaisesReplayErrorOnProtocolViolations) {
  const sched::CampaignSpec spec = make_spec(1);
  {
    sched::ManifestWriter writer(manifest_path());
    writer.write_header(spec);
    writer.write_case(spec.cases[0]);
    writer.write_transition("a", "queued", 1, 0.0, 0);
    writer.write_transition("a", "running", 1, 0.1, 0);
    writer.write_transition("a", "done", 1, 1.0, 0.9);
    writer.write_transition("a", "failed", 1, 1.1, 1.0);  // duplicate terminal
  }
  CampaignMonitor monitor(dir_);
  EXPECT_THROW(monitor.poll(), sched::ManifestReplayError);

  // A manifest written by the retired campaign service mode: its `submit`
  // admission records are refused by name, never folded.
  const std::string old_dir = dir_ + "/service";
  fs::create_directories(old_dir);
  {
    sched::ManifestWriter writer(old_dir + "/manifest.ndjson");
    writer.write_header(spec);
  }
  append_raw(old_dir + "/manifest.ndjson",
             R"({"type":"submit","submission":"carol-9b2e","tenant":"carol",)"
             R"("priority":9,"decision":"rejected","cases":0,)"
             R"("cost_seconds":0,"t":0.2})"
             "\n");
  CampaignMonitor old_monitor(old_dir);
  EXPECT_THROW(old_monitor.poll(), sched::ManifestReplayError);
}

// ---- CampaignMonitor: derived signals ------------------------------------

TEST_F(ObsTest, MonitorPricesEtaFromRetiredCostAndFlagsStragglers) {
  const sched::CampaignSpec spec = make_spec(4);  // a b c d, 10s cost each
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  for (const auto& c : spec.cases) writer.write_case(c);
  for (const char* id : {"a", "b", "c", "d"})
    writer.write_transition(id, "queued", 1, 0.0, 0);
  // Three healthy cases retire their 10s of modelled cost in ~2s of wall.
  writer.write_transition("a", "running", 1, 0.0, 0);
  writer.write_transition("a", "done", 1, 2.0, 2.0);
  writer.write_transition("b", "running", 1, 0.0, 0);
  writer.write_transition("b", "done", 1, 2.0, 2.0);
  writer.write_transition("c", "running", 1, 0.0, 0);
  writer.write_transition("c", "done", 1, 2.5, 2.5);
  // d is halfway by steps but has burnt 50 wall-seconds: slowdown 10 vs the
  // fleet median 0.25 — a straggler at any sane factor.
  writer.write_transition("d", "running", 1, 0.5, 0);
  write_case_stream("d", {step_record(5, 0.5, 50.0, {})});

  CampaignMonitor monitor(dir_);
  monitor.poll();
  const CampaignSnapshot snap = monitor.snapshot();

  EXPECT_DOUBLE_EQ(snap.total_cost_seconds, 40.0);
  EXPECT_DOUBLE_EQ(snap.done_cost_seconds, 30.0);
  EXPECT_DOUBLE_EQ(snap.progressed_cost_seconds, 35.0);  // 3 done + half of d
  EXPECT_DOUBLE_EQ(snap.completed_fraction, 0.875);
  // Clock high water is c's finish at 2.5: rate = 35/2.5, eta = 5/rate.
  EXPECT_DOUBLE_EQ(snap.cost_rate, 14.0);
  EXPECT_NEAR(snap.eta_seconds, 5.0 / 14.0, 1e-12);

  ASSERT_NE(snap.find("d"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("d")->slowdown, 10.0);  // 50s wall / 5s retired
  EXPECT_TRUE(snap.find("d")->straggler);
  EXPECT_FALSE(snap.find("a")->straggler);  // fast and already terminal
  EXPECT_FALSE(snap.find("c")->straggler);
}

TEST_F(ObsTest, MonitorSumsHealthFlagsAcrossTheFleet) {
  const sched::CampaignSpec spec = make_spec(2);
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  for (const auto& c : spec.cases) writer.write_case(c);
  for (const char* id : {"a", "b"}) {
    writer.write_transition(id, "queued", 1, 0.0, 0);
    writer.write_transition(id, "running", 1, 0.1, 0);
  }
  write_case_stream("a", {step_record(3, 0.3, 1.0,
                                      {{"health.flags.iteration_spike", 2},
                                       {"health.flags.checkpoint_retry", 1},
                                       {"health.anomalies", 3}})});
  write_case_stream("b", {step_record(4, 0.4, 1.0,
                                      {{"health.flags.iteration_spike", 1},
                                       {"health.anomalies", 1}})});

  CampaignMonitor monitor(dir_);
  monitor.poll();
  const CampaignSnapshot snap = monitor.snapshot();
  EXPECT_DOUBLE_EQ(snap.health_flags.at("health.flags.iteration_spike"), 3.0);
  EXPECT_DOUBLE_EQ(snap.health_flags.at("health.flags.checkpoint_retry"), 1.0);
  EXPECT_DOUBLE_EQ(snap.anomalies, 4.0);
  EXPECT_DOUBLE_EQ(
      snap.find("a")->health_flags.at("health.flags.iteration_spike"), 2.0);
}

TEST_F(ObsTest, MonitorDerivesThreadsInFlightFromTheManifestAlone) {
  sched::CampaignSpec spec = make_spec(2);
  spec.cases[1].threads = 2;
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  for (const auto& c : spec.cases) writer.write_case(c);
  for (const char* id : {"a", "b"}) {
    writer.write_transition(id, "queued", 1, 0.0, 0);
    writer.write_transition(id, "running", 1, 0.1, 0);
  }

  CampaignMonitor monitor(dir_);
  monitor.poll();
  EXPECT_EQ(monitor.snapshot().threads_in_flight, 3);

  writer.write_transition("b", "done", 1, 1.0, 0.9);
  monitor.poll();
  const CampaignSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.threads_in_flight, 1);
  EXPECT_EQ(snap.running, 1);
  EXPECT_EQ(snap.done, 1);

  // The scheduler metrics journal an older build wrote next to the manifest
  // is no input: the status document stays the same to the byte.
  const std::string before = status_json(snap);
  append_raw(dir_ + "/sched.ndjson",
             R"({"type":"header","schema":"felis-sched-1",)"
             R"("campaign":"obs_campaign","workers":2,"thread_budget":4})"
             "\n"
             R"({"type":"sched","t":99,"metrics":{"sched.queue_depth":3,)"
             R"("sched.workers_busy":2,"sched.threads_in_flight":3}})"
             "\n");
  monitor.poll();
  EXPECT_EQ(status_json(monitor.snapshot()), before);
  CampaignMonitor fresh(dir_);
  fresh.poll();
  EXPECT_EQ(status_json(fresh.snapshot()), before);
}

TEST_F(ObsTest, MonitorOnAnEmptyDirectoryReportsNothingFound) {
  CampaignMonitor monitor(dir_);
  EXPECT_EQ(monitor.poll(), 0u);
  const CampaignSnapshot snap = monitor.snapshot();
  EXPECT_FALSE(snap.manifest_found);
  EXPECT_TRUE(snap.cases.empty());
  EXPECT_FALSE(snap.complete());
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);  // nothing declared, nothing owed
}

// ---- exporters -----------------------------------------------------------

class ExporterTest : public ObsTest {
 protected:
  /// A small two-case campaign with telemetry, one case still running.
  void build_campaign() {
    const sched::CampaignSpec spec = make_spec(2);
    sched::ManifestWriter writer(manifest_path());
    writer.write_header(spec);
    for (const auto& c : spec.cases) writer.write_case(c);
    writer.write_transition("a", "queued", 1, 0.0, 0);
    writer.write_transition("b", "queued", 1, 0.0, 0);
    writer.write_transition("a", "running", 1, 0.1, 0);
    writer.write_transition("a", "done", 1, 2.0, 1.9, "",
                            {{"case.nu_volume", 17.5}});
    writer.write_transition("b", "running", 1, 2.0, 0);
    write_case_stream("b", {step_record(5, 0.5, 1.0,
                                        {{"case.nu_volume", 16.0},
                                         {"health.flags.iteration_spike", 1}})});
  }
};

TEST_F(ExporterTest, StatusJsonCarriesTheSchemaAndEveryCase) {
  build_campaign();
  CampaignMonitor monitor(dir_);
  monitor.poll();
  const std::string json = status_json(monitor.snapshot());

  for (const char* needle :
       {"\"type\": \"campaign_status\"", "\"schema\": \"felis-campaign-status-2\"",
        "\"campaign\": \"obs_campaign\"", "\"manifest_found\": true",
        "\"case\": \"a\"", "\"state\": \"done\"", "\"case\": \"b\"",
        "\"state\": \"running\"", "\"counts\"", "\"threads_in_flight\": 1",
        "\"eta_seconds\"", "\"health.flags.iteration_spike\":1",
        "\"case.nu_volume\":17.5"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing: " << needle;
  }
  // The queue shape lives in `counts` and `threads_in_flight`; no key of the
  // retired scheduler metrics journal remains.
  EXPECT_EQ(json.find("\"sched"), std::string::npos) << json;
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(ExporterTest, PrometheusTextExposesFleetAndPerCaseSamples) {
  build_campaign();
  CampaignMonitor monitor(dir_);
  monitor.poll();
  const std::string prom = status_prometheus(monitor.snapshot());

  for (const char* needle :
       {"felis_campaign_info{campaign=\"obs_campaign\"} 1",
        "felis_campaign_cases{state=\"done\"} 1",
        "felis_campaign_cases{state=\"running\"} 1",
        "felis_campaign_threads_in_flight 1",
        "felis_campaign_completed_fraction",
        "felis_campaign_health_flags{class=\"iteration_spike\"} 1",
        "felis_campaign_case_progress{case=\"a\"} 1",
        "felis_campaign_case_straggler{case=\"b\"} 0"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << "missing: " << needle;
  }
}

TEST_F(ExporterTest, MergedTraceLaysOutSchedulerAndCaseTracks) {
  build_campaign();
  CampaignMonitor monitor(dir_);
  monitor.poll();
  const std::string trace = campaign_trace_json(monitor);

  for (const char* needle :
       {"\"traceEvents\"", "\"merged\":\"campaign\"",
        "\"campaign\":\"obs_campaign\"", "\"cases\":\"2\"",
        R"("name":"scheduler")", R"("name":"queue")",
        R"("name":"attempts")", R"("cat":"sched")", R"("cat":"step")",
        // a's queue-wait interval and finished attempt; b's live steps.
        R"("name":"a","cat":"sched","ph":"X")",
        R"x("name":"attempt 1 (done)")x", R"("name":"step 5")",
        R"("name":"a -> done")"}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << "missing: " << needle;
  }
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
}

TEST_F(ExporterTest, ConcurrentStatusWritersShareNoTemporaryFile) {
  // Two `felis_campaign --status` runs on one directory write the same two
  // files at once. Each writer must stage through its own temporary file:
  // no throw, a complete status.json, and nothing left behind.
  build_campaign();
  constexpr int kWriters = 4;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      CampaignMonitor monitor(dir_);
      monitor.poll();
      for (int r = 0; r < kRounds; ++r) {
        try {
          write_status_files(monitor, dir_);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  std::ifstream in(dir_ + "/status.json");
  std::stringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"schema\": \"felis-campaign-status-2\""),
            std::string::npos)
      << json.str();
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << "left over: " << name;
  }
}

TEST_F(ExporterTest, WriteStatusFilesCommitsBothArtifacts) {
  build_campaign();
  CampaignMonitor monitor(dir_);
  monitor.poll();
  const StatusPaths paths = write_status_files(monitor, dir_);
  EXPECT_TRUE(fs::is_regular_file(paths.json));
  EXPECT_TRUE(fs::is_regular_file(paths.prom));
  EXPECT_GT(fs::file_size(paths.json), 0u);
  EXPECT_GT(fs::file_size(paths.prom), 0u);
}

}  // namespace
}  // namespace felis::obs
