// Tests for campaign observability: the stateless status fold (manifest
// equivalence with sched::read_manifest including torn tails, clock rebase
// across resume sessions, telemetry roll-up from the newest complete step
// record of each stream, streams replaced by a retried attempt, a failed
// attempt's stream passed over, health flags, perfmodel ETA and normalized
// straggler detection, queue shape from the manifest alone), and the two
// exporters (status JSON, merged Chrome trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/campaign_monitor.hpp"
#include "obs/exporters.hpp"
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
  /// With `attempt` > 0 the header names it, as the case runner's does.
  void write_case_stream(const std::string& id,
                         const std::vector<std::string>& records,
                         bool truncate = false, int attempt = 0) {
    const fs::path tdir = fs::path(dir_) / id / "telemetry";
    fs::create_directories(tdir);
    const std::string path = (tdir / "run.ndjson").string();
    if (truncate) fs::remove(path);
    std::ofstream os(path, std::ios::binary | std::ios::app);
    if (truncate || !fs::exists(path) || fs::file_size(path) == 0) {
      const std::string metadata =
          attempt > 0 ? R"({"attempt":")" + std::to_string(attempt) + R"("})"
                      : "{}";
      os << R"({"type":"header","schema":1,"interval":1,"metadata":)"
         << metadata << "}\n";
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
  std::string stream_path(const std::string& id) const {
    return dir_ + "/" + id + "/telemetry/run.ndjson";
  }

  /// Every `"name":"step N"` instant of a merged trace, in file order.
  static std::vector<std::int64_t> trace_steps(const std::string& trace) {
    std::vector<std::int64_t> steps;
    const std::string needle = R"("name":"step )";
    for (usize at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1))
      steps.push_back(std::stoll(trace.substr(at + needle.size())));
    return steps;
  }

  std::string dir_;
};

// ---- status fold: manifest ---------------------------------------------

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

  const CampaignSnapshot snap = read_campaign(dir_).snapshot;
  const sched::ManifestState fresh = sched::read_manifest(manifest_path());
  ASSERT_EQ(snap.cases.size(), fresh.cases.size());
  for (const auto& [id, status] : fresh.cases) {
    const CaseView* view = snap.find(id);
    ASSERT_NE(view, nullptr) << id;
    EXPECT_EQ(view->state, status.state) << id;
    EXPECT_EQ(view->attempts, status.attempts) << id;
    EXPECT_EQ(view->metrics, status.metrics) << id;
  }

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

  // The writer's self-heal terminates the torn line; it is then a complete
  // but malformed line, which the fold ignores exactly like read_manifest
  // does after a resume.
  append_raw(manifest_path(), "\n");
  EXPECT_EQ(read_campaign(dir_).snapshot.find("b")->state, "queued");
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

  const CampaignFold fold = read_campaign(dir_);
  const CampaignSnapshot& snap = fold.snapshot;
  EXPECT_EQ(snap.resumes, 1);
  EXPECT_TRUE(snap.complete());
  // Session 2's t=3 lands at 10+3 on the rebased clock; monotone throughout.
  EXPECT_DOUBLE_EQ(snap.clock_seconds, 13.0);
  ASSERT_NE(snap.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("b")->running_t, 11.0);
  EXPECT_DOUBLE_EQ(snap.find("b")->finished_t, 13.0);
  const auto& events = fold.run_events;
  for (usize i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].t, events[i - 1].t) << "clock went backwards at " << i;
}

TEST_F(ObsTest, MonitorFollowsTheCampaignWhileItRuns) {
  const sched::CampaignSpec spec = make_spec(1);
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  writer.write_case(spec.cases[0]);
  writer.write_transition("a", "queued", 1, 0.0, 0);

  EXPECT_TRUE(read_campaign(dir_).snapshot.manifest_found);
  EXPECT_EQ(read_campaign(dir_).snapshot.queued, 1);

  writer.write_transition("a", "running", 1, 0.2, 0);
  EXPECT_EQ(read_campaign(dir_).snapshot.running, 1);

  write_case_stream("a", {step_record(4, 0.4, 1.5,
                                      {{"case.nu_volume", 16.0},
                                       {"solver.cfl", 0.42},
                                       {"solver.pressure_iterations", 12}})});
  CampaignSnapshot snap = read_campaign(dir_).snapshot;
  ASSERT_NE(snap.find("a"), nullptr);
  EXPECT_TRUE(snap.find("a")->telemetry_found);
  EXPECT_EQ(snap.find("a")->step, 4);
  EXPECT_DOUBLE_EQ(snap.find("a")->nusselt, 16.0);
  EXPECT_DOUBLE_EQ(snap.find("a")->cfl, 0.42);
  EXPECT_DOUBLE_EQ(snap.find("a")->progress, 0.4);

  writer.write_transition("a", "done", 1, 2.0, 1.8);
  snap = read_campaign(dir_).snapshot;
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

  EXPECT_EQ(read_campaign(dir_).snapshot.find("a")->step, 8);
  EXPECT_DOUBLE_EQ(read_campaign(dir_).snapshot.anomalies, 2.0);

  // Attempt 2 truncates run.ndjson and starts over from step 1: the fold
  // must forget attempt 1's high-water step and health flags.
  writer.write_transition("a", "retried", 1, 1.0, 0.9);
  writer.write_transition("a", "queued", 2, 1.0, 0);
  writer.write_transition("a", "running", 2, 1.1, 0);
  write_case_stream("a", {step_record(1, 0.1, 0.5, {})}, /*truncate=*/true);
  const CampaignSnapshot snap = read_campaign(dir_).snapshot;
  EXPECT_EQ(snap.find("a")->step, 1);
  EXPECT_TRUE(snap.find("a")->health_flags.empty());
  EXPECT_DOUBLE_EQ(snap.anomalies, 0.0);
  EXPECT_EQ(snap.retry_transitions, 1);
  EXPECT_EQ(snap.find("a")->attempts, 2);
}

TEST_F(ObsTest, AStreamReplacedByALongerOneShowsOnlyTheNewAttempt) {
  // Attempt 1 streams steps 1-30 and dies; the retry restores step 20 and
  // replaces run.ndjson with a longer stream, steps 21-55, between two
  // status reads. The second read shows exactly the new attempt.
  const sched::CampaignSpec spec = make_spec(1, 10, 60);
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  writer.write_case(spec.cases[0]);
  writer.write_transition("a", "queued", 1, 0.0, 0);
  writer.write_transition("a", "running", 1, 0.1, 0);
  const auto steps = [](std::int64_t first, std::int64_t last) {
    std::vector<std::string> records;
    for (std::int64_t s = first; s <= last; ++s)
      records.push_back(step_record(s, 0.01 * static_cast<double>(s),
                                    0.1 * static_cast<double>(s),
                                    {{"case.nu_volume", 1.0 + static_cast<double>(s)}}));
    return records;
  };
  write_case_stream("a", steps(1, 30));
  const CampaignFold first = read_campaign(dir_, /*step_marks=*/true);
  EXPECT_EQ(first.step_marks.at("a").size(), 30u);
  EXPECT_EQ(first.snapshot.find("a")->step, 30);

  writer.write_transition("a", "retried", 1, 1.0, 0.9);
  writer.write_transition("a", "queued", 2, 1.0, 0);
  writer.write_transition("a", "running", 2, 1.1, 0);
  write_case_stream("a", steps(21, 55), /*truncate=*/true);
  const CampaignFold second = read_campaign(dir_, /*step_marks=*/true);
  std::vector<std::int64_t> want(35);
  std::iota(want.begin(), want.end(), 21);
  std::vector<std::int64_t> marks;
  for (const StepMark& m : second.step_marks.at("a")) marks.push_back(m.step);
  EXPECT_EQ(marks, want);
  EXPECT_EQ(trace_steps(campaign_trace_json(second)), want);
  EXPECT_EQ(second.snapshot.find("a")->step, 55);
  EXPECT_DOUBLE_EQ(second.snapshot.find("a")->nusselt, 56.0);
}

TEST_F(ObsTest, AFailedAttemptsStreamShowsNothingUntilTheRetryReplacesIt) {
  // Attempt 1 of case a streams steps 1-16 and crashes; the manifest is cut
  // right after the retry queues attempt 2. The stream's header still names
  // attempt 1, so its steps are work the retry will redo: the fold shows no
  // live fields, no progress and no step marks for a until attempt 2
  // replaces the stream.
  const sched::CampaignSpec spec = make_spec(2, 10, 24);
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  for (const auto& c : spec.cases) writer.write_case(c);
  writer.write_transition("b", "queued", 1, 0.0, 0);
  writer.write_transition("b", "running", 1, 0.1, 0);
  writer.write_transition("b", "done", 1, 0.9, 0.8);
  writer.write_transition("a", "queued", 1, 0.0, 0);
  writer.write_transition("a", "running", 1, 0.1, 0);
  std::vector<std::string> attempt1;
  for (std::int64_t s = 1; s <= 16; ++s)
    attempt1.push_back(step_record(s, 0.01 * static_cast<double>(s), 0.1,
                                   {{"health.flags.iteration_spike", 1}}));
  write_case_stream("a", attempt1, /*truncate=*/false, /*attempt=*/1);
  writer.write_transition("a", "retried", 1, 1.0, 0.9);
  writer.write_transition("a", "queued", 2, 1.0, 0);

  const CampaignFold stale = read_campaign(dir_, /*step_marks=*/true);
  const CaseView& a = *stale.snapshot.find("a");
  EXPECT_EQ(a.state, "queued");
  EXPECT_EQ(a.attempts, 2);
  EXPECT_FALSE(a.telemetry_found);
  EXPECT_EQ(a.step, 0);
  EXPECT_DOUBLE_EQ(a.progress, 0.0);
  EXPECT_TRUE(a.health_flags.empty());
  EXPECT_DOUBLE_EQ(stale.snapshot.anomalies, 0.0);
  // Only b's retired cost counts: half of the two equal-cost cases.
  EXPECT_DOUBLE_EQ(stale.snapshot.completed_fraction, 0.5);
  EXPECT_EQ(stale.step_marks.count("a"), 0u);
  EXPECT_TRUE(trace_steps(campaign_trace_json(stale)).empty());

  // Attempt 2 restores step 8 and replaces the stream: the fold reads it.
  writer.write_transition("a", "running", 2, 1.1, 0);
  write_case_stream("a",
                    {step_record(9, 0.09, 0.2, {}), step_record(10, 0.1, 0.3, {})},
                    /*truncate=*/true, /*attempt=*/2);
  const CampaignFold fresh = read_campaign(dir_, /*step_marks=*/true);
  const CaseView& retried = *fresh.snapshot.find("a");
  EXPECT_TRUE(retried.telemetry_found);
  EXPECT_EQ(retried.step, 10);
  EXPECT_DOUBLE_EQ(retried.progress, 10.0 / 24.0);
  EXPECT_EQ(trace_steps(campaign_trace_json(fresh)),
            (std::vector<std::int64_t>{9, 10}));
}

TEST_F(ObsTest, StreamTailReadFindsTheNewestCompleteStepRecord) {
  const sched::CampaignSpec spec = make_spec(3, 10, 100);
  sched::ManifestWriter writer(manifest_path());
  writer.write_header(spec);
  for (const auto& c : spec.cases) writer.write_case(c);
  for (const char* id : {"a", "b", "c"}) {
    writer.write_transition(id, "queued", 1, 0.0, 0);
    writer.write_transition(id, "running", 1, 0.1, 0);
  }
  // a: an unterminated final record (torn, or racing its append) after a
  // newest complete record; both are longer than the first backward read.
  std::map<std::string, double> wide{{"case.nu_volume", 7.5}};
  for (int i = 0; i < 400; ++i) wide["solver.extra_" + std::to_string(i)] = i;
  write_case_stream("a", {step_record(1, 0.1, 0.1, {{"case.nu_volume", 1.0}}),
                          step_record(2, 0.2, 0.2, wide)});
  append_raw(stream_path("a"), step_record(3, 0.3, 0.3, wide));
  // b: the newest line is a torn record the writer's self-heal terminated.
  const std::string torn = step_record(6, 0.6, 0.6, {{"case.nu_volume", 9.0}});
  write_case_stream("b", {step_record(5, 0.5, 0.5, {{"case.nu_volume", 4.0}})});
  append_raw(stream_path("b"), torn.substr(0, torn.size() / 2) + "\n");
  // c: header only (the attempt has not finished a step yet).
  write_case_stream("c", {});

  const CampaignSnapshot snap = read_campaign(dir_).snapshot;
  EXPECT_TRUE(snap.find("a")->telemetry_found);
  EXPECT_EQ(snap.find("a")->step, 2);
  EXPECT_DOUBLE_EQ(snap.find("a")->nusselt, 7.5);
  EXPECT_TRUE(snap.find("b")->telemetry_found);
  EXPECT_EQ(snap.find("b")->step, 5);
  EXPECT_DOUBLE_EQ(snap.find("b")->nusselt, 4.0);
  EXPECT_FALSE(snap.find("c")->telemetry_found);
  EXPECT_EQ(snap.find("c")->step, 0);
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
  EXPECT_THROW(read_campaign(dir_), sched::ManifestReplayError);

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
  EXPECT_THROW(read_campaign(old_dir), sched::ManifestReplayError);
}

// ---- status fold: derived signals ---------------------------------------

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

  const CampaignSnapshot snap = read_campaign(dir_).snapshot;

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

  const CampaignSnapshot snap = read_campaign(dir_).snapshot;
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

  EXPECT_EQ(read_campaign(dir_).snapshot.threads_in_flight, 3);

  writer.write_transition("b", "done", 1, 1.0, 0.9);
  const CampaignSnapshot snap = read_campaign(dir_).snapshot;
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
  EXPECT_EQ(status_json(read_campaign(dir_).snapshot), before);
}

TEST_F(ObsTest, MonitorOnAnEmptyDirectoryReportsNothingFound) {
  const CampaignSnapshot snap = read_campaign(dir_).snapshot;
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
  const std::string json = status_json(read_campaign(dir_).snapshot);

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

TEST_F(ExporterTest, MergedTraceLaysOutSchedulerAndCaseTracks) {
  build_campaign();
  const std::string trace =
      campaign_trace_json(read_campaign(dir_, /*step_marks=*/true));

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
  // Two `felis_campaign --status` runs on one directory write the same file
  // at once. Each writer must stage through its own temporary file: no
  // throw, a complete status.json, and nothing left behind.
  build_campaign();
  constexpr int kWriters = 4;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      const CampaignSnapshot snap = read_campaign(dir_).snapshot;
      for (int r = 0; r < kRounds; ++r) {
        try {
          write_status_json(snap, dir_);
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

}  // namespace
}  // namespace felis::obs
