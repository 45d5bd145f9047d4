// Tests for the protocol-verification subsystem: the explicit-state checker
// itself (shortest counterexamples, exhaustion, truncation), the pure
// manifest replay transition (duplicate-terminal rejection, absorbing done,
// torn lines, service-mode records), the protocol models at their
// documented bounds (including the rotation hazard at fault_budget == keep),
// and deterministic-schedule stress tests that mirror each checked
// invariant against the *real* scheduler, manifest and checkpoint manager —
// one implementation, two drivers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fluid/checkpoint_manager.hpp"
#include "sched/manifest.hpp"
#include "sched/scheduler.hpp"
#include "verify/checker.hpp"
#include "verify/checkpoint_model.hpp"
#include "verify/manifest_model.hpp"
#include "test_paths.hpp"

namespace felis::verify {
namespace {

namespace fs = std::filesystem;

// ---- the checker on a toy model ------------------------------------------

/// Counter starting at 0 with `inc` (+1) and `dbl` (*2) actions bounded by
/// `limit`; the invariant fails on reaching `bad` (-1 = never).
struct CounterModel {
  using State = int;
  int limit = 10;
  int bad = -1;

  std::vector<int> initial() const { return {0}; }
  std::vector<std::pair<std::string, int>> successors(const int& s) const {
    std::vector<std::pair<std::string, int>> out;
    if (s + 1 <= limit) out.emplace_back("inc", s + 1);
    if (s > 0 && s * 2 <= limit) out.emplace_back("dbl", s * 2);
    return out;
  }
  std::string invariant(const int& s) const {
    return s == bad ? "reached the bad value" : "";
  }
  std::string key(const int& s) const { return std::to_string(s); }
  std::string print(const int& s) const {
    return "value = " + std::to_string(s);
  }
};

TEST(Checker, ExhaustsSmallStateSpace) {
  const CheckResult r = check(CounterModel{10, -1});
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.stats.states, 11u);  // 0..10
  EXPECT_GT(r.stats.transitions, r.stats.states - 1);
  EXPECT_TRUE(r.violation.empty());
  EXPECT_TRUE(r.trace.empty());
}

TEST(Checker, FindsShortestCounterexampleTrace) {
  // Shortest path 0 -> 8 is inc, dbl, dbl, dbl (BFS minimality); the naive
  // all-inc path has 8 transitions.
  const CheckResult r = check(CounterModel{10, 8});
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.violation, "reached the bad value");
  ASSERT_EQ(r.trace.size(), 5u) << "BFS counterexample is not minimal";
  EXPECT_EQ(r.trace.front().action, "<initial>");
  EXPECT_EQ(r.trace.front().state, "value = 0");
  for (usize i = 1; i < r.trace.size(); ++i) {
    EXPECT_TRUE(r.trace[i].action == "inc" || r.trace[i].action == "dbl");
  }
  EXPECT_EQ(r.trace.back().state, "value = 8");
}

TEST(Checker, MaxStatesTruncationIsReported) {
  const CheckResult r = check(CounterModel{1000000, -1}, 100);
  EXPECT_TRUE(r.ok);  // nothing bad found...
  EXPECT_FALSE(r.complete);  // ...but nothing was proven either
  EXPECT_LE(r.stats.states, 101u);
}

// ---- pure manifest replay transition -------------------------------------

/// An admission record as the retired campaign service mode journalled it.
constexpr const char* kServiceSubmitRecord =
    R"({"type":"submit","submission":"alice-0f3a","tenant":"alice",)"
    R"("priority":1,"decision":"admitted","cases":2,"cost_seconds":4,"t":0})";

sched::ManifestState replay(const std::vector<std::string>& lines) {
  sched::ManifestState state;
  state.found = true;
  for (const std::string& line : lines) sched::apply_manifest_line(state, line);
  return state;
}

TEST(ManifestReplay, DuplicateTerminalAfterDoneThrowsNamedError) {
  const std::vector<std::string> lines = {
      sched::format_run_record("a", "running", 1, 0.1, 0.0),
      sched::format_run_record("a", "done", 1, 0.5, 0.4, "", {{"Nu", 2.5}}),
      sched::format_run_record("a", "failed", 1, 0.6, 0.0, "stale writer"),
  };
  try {
    replay(lines);
    FAIL() << "stale `failed` after `done` was accepted";
  } catch (const sched::ManifestReplayError& e) {
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos)
        << "error does not name the case: " << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate terminal"),
              std::string::npos)
        << e.what();
  }
}

TEST(ManifestReplay, DuplicateTerminalAfterFailedThrows) {
  // The converse fault: a stale `done` must not mask a real failure.
  EXPECT_THROW(replay({sched::format_run_record("a", "failed", 1, 0.2, 0.1),
                       sched::format_run_record("a", "done", 1, 0.3, 0.1)}),
               sched::ManifestReplayError);
}

TEST(ManifestReplay, FailedCaseRequeuedThenDoneIsLegal) {
  // The legitimate resume flow: failed -> queued (next session) -> running
  // -> done reaches a second terminal record *through* a re-queue.
  const sched::ManifestState state =
      replay({sched::format_run_record("a", "failed", 1, 0.2, 0.1, "oom"),
              sched::format_run_record("a", "queued", 2, 0.3, 0.0),
              sched::format_run_record("a", "running", 2, 0.3, 0.0),
              sched::format_run_record("a", "done", 2, 0.9, 0.5, "",
                                       {{"Nu", 3.25}})});
  EXPECT_TRUE(state.cases.at("a").completed());
  EXPECT_EQ(state.cases.at("a").attempts, 2);
  EXPECT_EQ(state.cases.at("a").metrics.at("Nu"), 3.25);
}

TEST(ManifestReplay, DoneIsAbsorbingForStaleNonTerminalRecords) {
  const sched::ManifestState state =
      replay({sched::format_run_record("a", "done", 1, 0.5, 0.4, "",
                                       {{"Nu", 2.5}}),
              sched::format_run_record("a", "queued", 2, 0.6, 0.0),
              sched::format_run_record("a", "running", 2, 0.6, 0.0)});
  EXPECT_TRUE(state.cases.at("a").completed())
      << "stale non-terminal records resurrected a completed case";
  EXPECT_EQ(state.cases.at("a").metrics.at("Nu"), 2.5);
}

TEST(ManifestReplay, TornLinesAreIgnored) {
  const std::string full = sched::format_run_record("a", "done", 1, 0.5, 0.4);
  // With metrics, the prefix that lacks only the record's final `}` ends in
  // the metrics object's `}`: still torn.
  const std::string with_metrics =
      sched::format_run_record("a", "done", 1, 0.5, 0.4, "", {{"Nu", 2.5}});
  sched::ManifestState state;
  for (const std::string& line :
       {full, with_metrics, std::string(kServiceSubmitRecord)})
    for (usize cut = 0; cut < line.size(); ++cut)
      sched::apply_manifest_line(state, line.substr(0, cut));
  EXPECT_TRUE(state.cases.empty() || !state.cases.count("a") ||
              !state.cases.at("a").completed());
  sched::apply_manifest_line(state, full);
  EXPECT_TRUE(state.cases.at("a").completed());
}

TEST(ManifestReplay, ServiceModeSubmitRecordThrowsNamedError) {
  // A manifest from the retired campaign service mode carries `submit`
  // records; replay must refuse it by name, not fold it as a batch journal.
  try {
    replay({sched::format_run_record("a", "queued", 1, 0.0, 0.0),
            kServiceSubmitRecord});
    FAIL() << "service-mode submit record was accepted";
  } catch (const sched::ManifestReplayError& e) {
    EXPECT_NE(std::string(e.what()).find("'alice-0f3a'"), std::string::npos)
        << "error does not name the submission: " << e.what();
    EXPECT_NE(std::string(e.what()).find("service mode"), std::string::npos)
        << e.what();
  }
}

// ---- the protocol models at their documented bounds ----------------------

TEST(Models, ManifestProtocolHoldsAtDocumentedBounds) {
  const ManifestModel model{ManifestModelOptions{}};
  const CheckResult r = check(model, 4000000);
  EXPECT_TRUE(r.complete) << "documented bounds no longer exhaust";
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_GT(r.stats.states, 10000u) << "model degenerated; bounds too small";
}

TEST(Models, ManifestProtocolHoldsWithoutFaultsToo) {
  ManifestModelOptions opt;
  opt.torn_tails = false;
  opt.duplicate_faults = false;
  const CheckResult r = check(ManifestModel{opt}, 4000000);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(Models, CheckpointProtocolHoldsAtDocumentedBounds) {
  const CheckpointModel model{CheckpointModelOptions{}};
  const CheckResult r = check(model);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_GT(r.stats.states, 100u);
}

TEST(Models, CheckpointRotationHazardAtFaultBudgetEqualsKeep) {
  // The documented counterexample: `keep` consecutive silently-corrupt
  // writes prune the last good checkpoint out of the rotation, so recovery
  // regresses. The checker must find it and produce a minimal trace: one
  // good write plus `keep` corrupt ones.
  CheckpointModelOptions opt;
  opt.fault_budget = opt.keep;
  const CheckResult r = check(CheckpointModel{opt});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("regressed"), std::string::npos) << r.violation;
  ASSERT_EQ(r.trace.size(), static_cast<usize>(opt.keep) + 2);
  EXPECT_EQ(r.trace.front().action, "<initial>");
  EXPECT_NE(r.trace.back().state.find("VIOLATION"), std::string::npos);
}

TEST(Models, CheckpointRecoveryMatchesGhostTruthUnderEveryFault) {
  // Larger fault budget with monotonicity off: recovery must still always
  // equal the newest valid file, whatever the adversary does.
  CheckpointModelOptions opt;
  opt.fault_budget = 4;
  opt.check_monotonic = false;
  const CheckResult r = check(CheckpointModel{opt});
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.ok) << r.violation;
}

// ---- deterministic stress mirrors against the real implementation --------

class VerifyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::test_scratch_dir("felis_verify_");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

sched::CampaignSpec stress_spec(const std::string& dir, int cases, int workers,
                                int budget, int retries = 0) {
  std::string text;
  text += "campaign.dir = " + dir + "\n";
  text += "campaign.workers = " + std::to_string(workers) + "\n";
  text += "campaign.thread_budget = " + std::to_string(budget) + "\n";
  text += "campaign.retries = " + std::to_string(retries) + "\n";
  text += "campaign.backoff_ms = 1\n";
  text += "campaign.steps = 1\n";
  text += "sweep.Ra = 1e2:1e9:log" + std::to_string(cases) + "\n";
  return sched::CampaignSpec::from_params(ParamMap::parse(text));
}

TEST_F(VerifyStressTest, ThreadBudgetNeverOversubscribedMirror) {
  // Model invariant: Σ threads of running cases <= thread_budget. Mirror:
  // 8 one-thread cases on 4 workers with budget 2 — concurrency must track
  // the budget, not the worker count.
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  sched::Scheduler scheduler(
      stress_spec(dir_, 8, 4, 2),
      [&](const sched::CaseSpec&, sched::RunContext&) {
        const int now = running.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        running.fetch_sub(1);
        return sched::RunResult{true, "", {}};
      });
  const sched::CampaignReport report = scheduler.run();
  EXPECT_TRUE(report.all_done());
  EXPECT_LE(peak.load(), 2);
  EXPECT_LE(report.max_threads_in_flight, 2);
}

TEST_F(VerifyStressTest, NoCompletedCaseEverRerunsAcrossKillAndResume) {
  // Model invariant: a case whose `done` record is durable is never
  // re-admitted. Mirror: session 1 completes some cases and fails the rest
  // (retries exhausted, like a killed driver); session 2 must re-run
  // exactly the non-done cases.
  sched::CampaignSpec spec = stress_spec(dir_, 6, 2, 2);
  std::mutex mu;
  std::map<std::string, int> runs;
  const auto fails_in_session1 = [](const std::string& id) {
    return id.back() % 2 == 0;  // deterministic split
  };
  sched::Scheduler session1(
      spec, [&](const sched::CaseSpec& cs, sched::RunContext&) {
        std::lock_guard<std::mutex> lock(mu);
        runs[cs.id] += 1;
        return sched::RunResult{!fails_in_session1(cs.id), "injected", {}};
      });
  const sched::CampaignReport r1 = session1.run();
  EXPECT_GT(r1.completed, 0);
  EXPECT_GT(r1.failed, 0);
  const std::map<std::string, int> after1 = runs;

  sched::Scheduler session2(spec,
                            [&](const sched::CaseSpec& cs, sched::RunContext&) {
                              std::lock_guard<std::mutex> lock(mu);
                              runs[cs.id] += 1;
                              return sched::RunResult{true, "", {}};
                            });
  const sched::CampaignReport r2 = session2.run();
  EXPECT_TRUE(r2.all_done());
  for (const auto& [id, count] : runs) {
    if (fails_in_session1(id)) {
      EXPECT_EQ(count, 2) << id << " failed in session 1, must re-run once";
    } else {
      EXPECT_EQ(count, 1) << "completed case " << id << " re-ran on resume";
      EXPECT_EQ(after1.at(id), 1);
    }
  }
}

/// Minimal checkpoint whose payload still exercises CRC validation.
fluid::Checkpoint small_checkpoint(std::int64_t step) {
  fluid::Checkpoint ck;
  ck.step = step;
  ck.time = 0.125 * static_cast<real_t>(step);
  ck.u = {1.0, 2.0, 3.0, 4.0};
  ck.v = {0.5, 0.25};
  ck.temperature = {4.0, 3.0, 2.0};
  return ck;
}

TEST_F(VerifyStressTest, ResumeReachesNewestValidCheckpointMirror) {
  // Model invariant: recovery returns exactly the newest valid checkpoint.
  // Mirror: write a real rotation, then corrupt the newest file and torn-
  // truncate the second newest — load_latest must land on the third.
  fluid::CheckpointConfig config;
  config.directory = dir_ + "/checkpoints";
  config.basename = "felis";
  config.keep = 4;
  fluid::CheckpointManager manager(config);
  for (std::int64_t s = 1; s <= 4; ++s) manager.write(small_checkpoint(s));

  {  // bitrot in step 4
    std::fstream f(manager.path_for_step(4),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(32);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  fs::resize_file(manager.path_for_step(3), 10);  // torn step 3
  // A tmp leftover and a foreign file must both stay invisible.
  std::ofstream(config.directory + "/felis.0000000009.ckpt.tmp") << "junk";
  std::ofstream(config.directory + "/notes.txt") << "hello";

  std::string path;
  const auto recovered = manager.load_latest(&path);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->step, 2);
  EXPECT_EQ(path, manager.path_for_step(2));
}

TEST_F(VerifyStressTest, CrashAtEveryJournalPointLeavesRecoverableManifest) {
  // Model invariant: replay never throws on a single-writer journal, at any
  // crash point, with any torn tail. Mirror: write a real multi-session
  // journal, then replay every byte-prefix cut at a line boundary plus every
  // torn variant of the final line.
  const std::string path = dir_ + "/manifest.ndjson";
  {
    sched::ManifestWriter writer(path);
    sched::CampaignSpec spec;
    spec.config.name = "crashpoints";
    writer.write_header(spec);
    writer.write_transition("a", "queued", 1, 0.0, 0.0);
    writer.write_transition("b", "queued", 1, 0.0, 0.0);
    writer.write_transition("a", "running", 1, 0.1, 0.0);
    writer.write_transition("a", "retried", 1, 0.2, 0.1, "watchdog");
    writer.write_transition("a", "queued", 2, 0.2, 0.0);
    writer.write_transition("b", "running", 1, 0.2, 0.0);
    writer.write_transition("b", "done", 1, 0.5, 0.3, "", {{"Nu", 2.0}});
    writer.write_resume(1);
    writer.write_transition("a", "running", 2, 0.6, 0.0);
    writer.write_transition("a", "done", 2, 0.9, 0.3, "", {{"Nu", 3.0}});
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 5u);

  bool b_done_seen = false;
  for (usize upto = 0; upto <= lines.size(); ++upto) {
    // Torn variants of the final surviving line: fully lost, half, all but
    // the last byte, intact.
    const std::vector<long> cuts =
        upto == 0 ? std::vector<long>{-1}
                  : std::vector<long>{
                        0, static_cast<long>(lines[upto - 1].size() / 2),
                        static_cast<long>(lines[upto - 1].size()) - 1, -1};
    for (const long cut : cuts) {
      const std::string crash_path = dir_ + "/crash.ndjson";
      {
        std::ofstream out(crash_path, std::ios::trunc);
        for (usize i = 0; i + 1 < upto; ++i) out << lines[i] << "\n";
        if (upto > 0) {
          if (cut < 0) {
            out << lines[upto - 1] << "\n";
          } else {
            out << lines[upto - 1].substr(0, static_cast<usize>(cut));
          }
        }
      }
      sched::ManifestState state;  // replay must never throw
      ASSERT_NO_THROW(state = sched::read_manifest(crash_path))
          << "crash after line " << upto << " cut " << cut;
      // Durability: once b's `done` record is fully on disk, every later
      // crash point must still recover it.
      if (b_done_seen && state.cases.count("b")) {
        EXPECT_TRUE(state.cases.at("b").completed())
            << "durable done lost at line " << upto << " cut " << cut;
      }
    }
    if (upto > 0 && lines[upto - 1].find("\"case\":\"b\"") != std::string::npos &&
        lines[upto - 1].find("\"done\"") != std::string::npos) {
      b_done_seen = true;
    }
  }
}

TEST_F(VerifyStressTest, TornFinalRecordThenValidAppendSelfHeals) {
  // A killed writer leaves a torn final line with no newline; the resumed
  // writer must not glue its first record onto the remnant (which could
  // produce a parseable hybrid line). DurableAppendWriter self-heals by
  // terminating the torn line first.
  const std::string path = dir_ + "/manifest.ndjson";
  {
    sched::ManifestWriter writer(path);
    writer.write_transition("a", "done", 1, 0.5, 0.2, "", {{"Nu", 2.0}});
  }
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"type":"run","case":"b","state":"done","att)";  // torn, no \n
  }
  {
    sched::ManifestWriter writer(path);  // resumed session
    writer.write_transition("c", "running", 1, 0.6, 0.0);
    writer.write_transition("c", "done", 1, 0.9, 0.3, "", {{"Nu", 4.0}});
  }
  const sched::ManifestState state = sched::read_manifest(path);
  EXPECT_TRUE(state.cases.at("a").completed());
  EXPECT_TRUE(state.cases.at("c").completed());
  EXPECT_EQ(state.cases.at("c").metrics.at("Nu"), 4.0);
  // The torn `b` remnant must stay torn: either unseen or not completed.
  EXPECT_TRUE(!state.cases.count("b") || !state.cases.at("b").completed())
      << "torn record fused with the resumed writer's first append";
}

TEST_F(VerifyStressTest, InterleavedAttemptRecordsResolveDeterministically) {
  // Two attempts' records interleaved in the journal (a retry racing the
  // watchdog's bookkeeping): replay must keep the terminal outcome and the
  // highest attempt number.
  const std::string path = dir_ + "/manifest.ndjson";
  {
    sched::ManifestWriter writer(path);
    writer.write_transition("a", "running", 1, 0.1, 0.0);
    writer.write_transition("a", "queued", 2, 0.2, 0.0);
    writer.write_transition("a", "retried", 1, 0.2, 0.1, "watchdog");
    writer.write_transition("a", "running", 2, 0.3, 0.0);
    writer.write_transition("a", "done", 2, 0.7, 0.4, "", {{"Nu", 2.5}});
  }
  const sched::ManifestState state = sched::read_manifest(path);
  EXPECT_TRUE(state.cases.at("a").completed());
  EXPECT_EQ(state.cases.at("a").attempts, 2);
}

TEST_F(VerifyStressTest, EmptyManifestResumeRunsEverything) {
  // A manifest created but never written (kill before the header record):
  // resume must treat the campaign as fresh, not corrupt.
  const std::string path = dir_ + "/manifest.ndjson";
  std::ofstream(path).close();
  const sched::ManifestState state = sched::read_manifest(path);
  EXPECT_TRUE(state.found);
  EXPECT_TRUE(state.cases.empty());

  // And a real scheduler over an empty manifest runs every case.
  sched::CampaignSpec spec = stress_spec(dir_ + "/run", 3, 2, 2);
  fs::create_directories(spec.config.dir);
  std::ofstream(fs::path(spec.config.dir) / "manifest.ndjson").close();
  std::atomic<int> runs{0};
  sched::Scheduler scheduler(spec,
                             [&](const sched::CaseSpec&, sched::RunContext&) {
                               runs.fetch_add(1);
                               return sched::RunResult{true, "", {}};
                             });
  const sched::CampaignReport report = scheduler.run();
  EXPECT_TRUE(report.all_done());
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(report.skipped, 0);
}

TEST_F(VerifyStressTest, DuplicateTerminalInRealManifestFailsLoudly) {
  // The satellite fix end-to-end: a manifest containing two contradictory
  // terminal records (two writers, or a protocol bug) must fail resume with
  // the named error, not silently resurrect the case.
  const std::string path = dir_ + "/manifest.ndjson";
  {
    sched::ManifestWriter writer(path);
    writer.write_transition("a", "done", 1, 0.5, 0.2, "", {{"Nu", 2.0}});
    writer.write_transition("a", "failed", 1, 0.6, 0.0, "stale writer");
  }
  EXPECT_THROW(sched::read_manifest(path), sched::ManifestReplayError);
}

}  // namespace
}  // namespace felis::verify
