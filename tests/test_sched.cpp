// Tests for the campaign scheduler: sweep expansion (log/linear ranges,
// comma lists, Cartesian products, malformed specs naming the offending
// key), cost-ordered queue construction, manifest journal round trips with
// torn tails, worker-pool execution (retry with backoff, watchdog timeouts,
// thread-budget admission under stress, drain, resume-skipping), and the
// campaign-level acceptance scenario: a sweep killed mid-run with a
// corrupted checkpoint must complete on resume with every case's final
// state bitwise identical to an uninterrupted campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "case/registry.hpp"
#include "device/backend.hpp"
#include "fluid/checkpoint.hpp"
#include "io/atomic_file.hpp"
#include "obs/campaign_monitor.hpp"
#include "sched/case_runner.hpp"
#include "sched/manifest.hpp"
#include "sched/scheduler.hpp"
#include "test_paths.hpp"

namespace felis::sched {
namespace {

namespace fs = std::filesystem;

// ---- sweep expansion -----------------------------------------------------

TEST(Sweep, TargetKeyMapsBareNamesToCase) {
  EXPECT_EQ(sweep_target_key("sweep.Ra"), "case.Ra");
  EXPECT_EQ(sweep_target_key("sweep.dt"), "case.dt");
  EXPECT_EQ(sweep_target_key("sweep.mesh.degree"), "mesh.degree");
  EXPECT_THROW(sweep_target_key("case.Ra"), Error);
  EXPECT_THROW(sweep_target_key("sweep."), Error);
}

TEST(Sweep, LogRangeHitsEndpointsGeometrically) {
  const auto v = expand_sweep_values("sweep.Ra", "1e5:1e8:log4");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "100000");
  EXPECT_EQ(v[1], "1e+06");
  EXPECT_EQ(v[2], "1e+07");
  EXPECT_EQ(v[3], "1e+08");
}

TEST(Sweep, LinearRangeIsInclusiveAndEvenlySpaced) {
  const auto v = expand_sweep_values("sweep.dt", "0.01 : 0.04 : lin4");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "0.01");
  EXPECT_EQ(v[1], "0.02");
  EXPECT_EQ(v[2], "0.03");
  EXPECT_EQ(v[3], "0.04");
}

TEST(Sweep, CommaListPassesStringsThrough) {
  const auto v = expand_sweep_values("sweep.device.backend", "serial, openmp");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "serial");
  EXPECT_EQ(v[1], "openmp");
}

TEST(Sweep, MalformedSpecsThrowNamingTheKey) {
  const auto expect_names_key = [](const std::string& spec) {
    try {
      expand_sweep_values("sweep.Ra", spec);
      FAIL() << "spec '" << spec << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("sweep.Ra"), std::string::npos)
          << "error for '" << spec << "' does not name the key: " << e.what();
    }
  };
  expect_names_key("");
  expect_names_key("1e5:1e8");           // missing spacing field
  expect_names_key("1e5:1e8:log");       // missing point count
  expect_names_key("1e5:1e8:log1");      // count < 2
  expect_names_key("1e5:1e8:geom4");     // unknown spacing
  expect_names_key("1e5:1e8:log4x");     // trailing junk in count
  expect_names_key("bananas:1e8:log4");  // not a number
  expect_names_key("-1e5:1e8:log4");     // log of a negative endpoint
  expect_names_key("0:1e8:log4");        // log of zero
  expect_names_key("a,,b");              // empty list element
}

TEST(Sweep, CartesianProductIsRowMajorOverSortedAxes) {
  const ParamMap params = ParamMap::parse(
      "sweep.Ra = 1e5,1e6\nsweep.mesh.degree = 4,5\ncase.Pr = 1.0");
  const auto cases = expand_campaign_cases(params);
  ASSERT_EQ(cases.size(), 4u);
  // Axes iterate in sorted key order: sweep.Ra before sweep.mesh.degree,
  // first axis slowest.
  EXPECT_EQ(cases[0].params.get_string("case.Ra", ""), "1e5");
  EXPECT_EQ(cases[0].params.get_string("mesh.degree", ""), "4");
  EXPECT_EQ(cases[1].params.get_string("case.Ra", ""), "1e5");
  EXPECT_EQ(cases[1].params.get_string("mesh.degree", ""), "5");
  EXPECT_EQ(cases[3].params.get_string("case.Ra", ""), "1e6");
  EXPECT_EQ(cases[3].params.get_string("mesh.degree", ""), "5");
  // Non-swept keys are inherited; ids are unique and name the overrides.
  for (const auto& c : cases) {
    EXPECT_EQ(cases::kPr.get(c.params, 0.0), 1.0);
    EXPECT_EQ(c.overrides.size(), 2u);
  }
  EXPECT_NE(cases[0].id, cases[1].id);
  EXPECT_NE(cases[0].id.find("Ra"), std::string::npos);
}

TEST(Sweep, NoSweepKeysYieldsTheSingleBaseCase) {
  const auto cases = expand_campaign_cases(ParamMap::parse("case.Ra = 1e5"));
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_TRUE(cases[0].overrides.empty());
}

// ---- campaign spec -------------------------------------------------------

TEST(Campaign, FromParamsOrdersQueueByEstimatedCost) {
  const ParamMap params = ParamMap::parse(
      "campaign.workers = 2\ncampaign.steps = 10\nsweep.Ra = 1e5:1e8:log4");
  const CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 4u);
  // Longest-processing-time-first: cost decreasing, i.e. Ra decreasing
  // (higher Ra => more Krylov iterations in the estimate).
  for (usize i = 1; i < spec.cases.size(); ++i) {
    EXPECT_GE(spec.cases[i - 1].cost_seconds, spec.cases[i].cost_seconds);
    EXPECT_GT(cases::kRa.get(spec.cases[i - 1].params, 0.0),
              cases::kRa.get(spec.cases[i].params, 0.0));
  }
  EXPECT_GT(spec.cases[0].cost_seconds, 0.0);
}

TEST(Campaign, RejectsACaseItsFactoryCannotBuild) {
  // A mesh the geometry factory rejects, or a type the registry does not
  // know, fails the spec naming the case, before any attempt runs.
  const auto message = [](const char* text) {
    try {
      CampaignSpec::from_params(ParamMap::parse(text));
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  const std::string slab = message("mesh.nx = 2");
  EXPECT_NE(slab.find("case 'case"), std::string::npos) << slab;
  EXPECT_NE(slab.find("at least 3 elements"), std::string::npos) << slab;
  const std::string type = message("sweep.type = rbc,nope");
  EXPECT_NE(type.find("typenope"), std::string::npos) << type;
  EXPECT_NE(type.find("unknown case type 'nope'"), std::string::npos) << type;
}

TEST(Campaign, ValidatesConfigAndPerCaseBudgets) {
  EXPECT_THROW(
      CampaignSpec::from_params(ParamMap::parse("campaign.workers = 0")),
      Error);
  EXPECT_THROW(
      CampaignSpec::from_params(ParamMap::parse("campaign.steps = 0")),
      Error);
  // A case asking for more ranks than the whole budget can never run.
  try {
    CampaignSpec::from_params(ParamMap::parse(
        "campaign.thread_budget = 2\ncase.ranks = 4\ncase.Ra = 1e5"));
    FAIL() << "oversized case was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("thread_budget"), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, ChecksEveryKeyAgainstTheDeclarations) {
  const auto message = [](const char* text) {
    try {
      CampaignSpec::from_params(ParamMap::parse(text));
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  // A misspelt key or sweep axis names its nearest declared key; the keys
  // that every caller overwrote or nobody set are gone.
  EXPECT_NE(message("campaign.wokers = 3").find("did you mean 'campaign.workers'"),
            std::string::npos);
  const std::string axis = message("sweep.Raa = 1e4,1e5");
  EXPECT_NE(axis.find("sweep axis 'sweep.Raa'"), std::string::npos) << axis;
  EXPECT_NE(axis.find("did you mean 'case.Ra'"), std::string::npos) << axis;
  for (const char* gone : {"checkpoint.dir = x", "checkpoint.compress = true"})
    EXPECT_NE(message(gone).find("undeclared key"), std::string::npos) << gone;
  // A swept value is checked against its key's range, naming the case.
  const std::string swept = message("sweep.Ra = 1e4,0");
  EXPECT_NE(swept.find("case 'case0001-Ra0'"), std::string::npos) << swept;
  EXPECT_NE(swept.find("'case.Ra' = 0 is outside"), std::string::npos) << swept;
  EXPECT_EQ(message("validation.nu.rbc = 1\nsweep.fluid.max_order = 2,3"),
            "(accepted)");
}

TEST(Campaign, EveryRepoInputPassesTheDeclaredKeyCheck) {
  // The case and campaign files the examples and the benchmark run: a
  // declaration one of them needs cannot be dropped without failing here.
  int files = 0;
  for (const char* dir : {"examples", "felis_bench/workloads"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(FELIS_SOURCE_DIR) / dir)) {
      if (entry.path().extension() != ".txt" ||
          entry.path().filename() == "CMakeLists.txt")
        continue;
      std::ifstream in(entry.path());
      std::stringstream text;
      text << in.rdbuf();
      const ParamMap params = ParamMap::parse(text.str());
      const bool campaign = std::any_of(
          params.entries().begin(), params.entries().end(),
          [](const auto& kv) { return kv.first.rfind("campaign.", 0) == 0; });
      if (campaign)
        EXPECT_NO_THROW(CampaignSpec::from_params(params)) << entry.path();
      else
        EXPECT_NO_THROW(check_params(params, cases::kCaseParams)) << entry.path();
      ++files;
    }
  }
  EXPECT_GE(files, 7);
}

// ---- manifest ------------------------------------------------------------

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::test_scratch_dir("felis_sched_");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ManifestTest, JournalRoundTripsStatesAttemptsAndMetrics) {
  const std::string path = dir_ + "/manifest.ndjson";
  {
    ManifestWriter writer(path);
    CampaignSpec spec;
    spec.config.name = "unit";
    writer.write_header(spec);
    writer.write_transition("a", "queued", 1, 0.0, 0.0);
    writer.write_transition("a", "running", 1, 0.1, 0.0);
    writer.write_transition("a", "retried", 1, 0.2, 0.1, "injected crash");
    writer.write_transition("a", "queued", 2, 0.2, 0.0);
    writer.write_transition("a", "running", 2, 0.3, 0.0);
    writer.write_transition("a", "done", 2, 0.5, 0.2, "",
                            {{"Ra", 1e5}, {"nu_volume", 1.25}, {"third", 1.0 / 3}});
    writer.write_transition("b", "running", 1, 0.1, 0.0);
  }
  const ManifestState state = read_manifest(path);
  ASSERT_TRUE(state.found);
  ASSERT_EQ(state.cases.size(), 2u);
  EXPECT_TRUE(state.cases.at("a").completed());
  EXPECT_EQ(state.cases.at("a").attempts, 2);
  EXPECT_EQ(state.cases.at("a").metrics.at("Ra"), 1e5);
  EXPECT_EQ(state.cases.at("a").metrics.at("nu_volume"), 1.25);
  EXPECT_EQ(state.cases.at("a").metrics.at("third"), 1.0 / 3);  // every bit
  EXPECT_FALSE(state.cases.at("b").completed());
  EXPECT_EQ(state.cases.at("b").state, "running");
}

TEST_F(ManifestTest, TornFinalLineIsIgnoredNotFatal) {
  const std::string path = dir_ + "/manifest.ndjson";
  {
    ManifestWriter writer(path);
    writer.write_transition("a", "done", 1, 0.5, 0.2);
  }
  // Simulate a kill mid-append: a record missing its closing brace.
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"type":"run","case":"a","state":"failed","att)";
  }
  const ManifestState state = read_manifest(path);
  ASSERT_TRUE(state.found);
  EXPECT_TRUE(state.cases.at("a").completed()) << "torn line overrode state";
  EXPECT_FALSE(read_manifest(dir_ + "/absent.ndjson").found);
}

TEST(ManifestRecord, DetailRoundTripsEveryEscape) {
  // Every escape json_escape writes: quote, backslash, newline, tab,
  // carriage return, and \u00XX for any other control character. UTF-8
  // passes through as its own bytes.
  const std::string utf8 = "Ra \xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";
  const std::string detail =
      "line1\nline2\t\"q\" back\\slash\r bell\x01\x1f end " + utf8;
  // Every number the codec writes parses back to the same bits; JSON has
  // no Inf or NaN, so a non-finite value writes 0.
  const std::map<std::string, double> exact = {
      {"zero", 0.0},           {"minus_zero", -0.0},
      {"third", 1.0 / 3},      {"sum", 0.1 + 0.2},
      {"denorm_min", 5e-324},  {"max", std::numeric_limits<double>::max()},
      {"two_53", 0x1p53},      {"int", 1e5},
      {"int7", 1353552}};
  std::map<std::string, double> metrics = exact;
  metrics["inf"] = std::numeric_limits<double>::infinity();
  metrics["nan"] = std::numeric_limits<double>::quiet_NaN();
  const std::string line =
      format_run_record("case \"x\"", "failed", 2, 1.5, 0.25, detail, metrics);
  EXPECT_NE(line.find(utf8), std::string::npos) << line;
  for (const char* text : {R"("int":100000,)", R"("int7":1353552,)",
                           R"("minus_zero":-0,)", R"("inf":0,)", R"("nan":0,)"})
    EXPECT_NE(line.find(text), std::string::npos) << text << " in " << line;
  const std::optional<JsonRecord> rec = parse_json_record(line);
  ASSERT_TRUE(rec.has_value()) << line;
  ASSERT_NE(rec->string("detail"), nullptr) << line;
  EXPECT_EQ(*rec->string("detail"), detail) << line;
  ASSERT_NE(rec->string("case"), nullptr) << line;
  EXPECT_EQ(*rec->string("case"), "case \"x\"") << line;
  EXPECT_EQ(rec->number("attempt"), 2.0);
  EXPECT_EQ(rec->number("t"), 1.5);
  const JsonFields& back = rec->object("metrics");
  for (const auto& [name, v] : exact)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.number(name)),
              std::bit_cast<std::uint64_t>(v))
        << name << " in " << line;
  EXPECT_EQ(back.numbers.count("inf") + back.numbers.count("nan"), 2u);
}

TEST(ManifestRecord, OnlyAWholeObjectParses) {
  // An object member keeps its own members; a histogram one level further
  // down is checked, not kept.
  const std::string step =
      R"({"type":"step","step":7,"metrics":{"solver.cfl":0.25,)"
      R"("t.h":{"last":1,"count":2}},"metadata":{"backend":"serial"},)"
      R"("ok":true,"none":null,"list":[1,"a",{"b":[]}]})";
  const std::optional<JsonRecord> rec = parse_json_record(step);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->number("step"), 7.0);
  EXPECT_EQ(rec->object("metrics").number("solver.cfl"), 0.25);
  EXPECT_EQ(rec->object("metrics").numbers.count("t.h"), 0u);
  ASSERT_NE(rec->object("metadata").string("backend"), nullptr);
  EXPECT_EQ(*rec->object("metadata").string("backend"), "serial");
  // \u escapes decode to UTF-8, a surrogate pair to one code point.
  const auto text = parse_json_record(R"({"s":"\u00e9\u20ac\ud83d\ude00\/"})");
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text->string("s"), "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80/");
  // Every strict prefix of a record is torn, and so is anything around it.
  for (usize cut = 0; cut < step.size(); ++cut)
    EXPECT_FALSE(parse_json_record(step.substr(0, cut)).has_value()) << cut;
  for (const char* bad :
       {"", " ", "{} {}", R"({"a":1} x)", R"({"a":01})", R"({"a":1.})",
        R"({"a":"\x"})", R"({"a":"\ud800"})", "[1]", R"({"a":1,})",
        "{\"a\":\"raw\ttab\"}"})
    EXPECT_FALSE(parse_json_record(bad).has_value()) << bad;
  EXPECT_TRUE(parse_json_record(" {\"a\" : -1.5e+2 } ").has_value());
}

// ---- scheduler (fake runners: no physics, pure orchestration) ------------

CampaignSpec tiny_spec(const std::string& dir, int cases, int workers,
                       int budget, int retries = 0, int backoff_ms = 1) {
  std::string text;
  text += "campaign.dir = " + dir + "\n";
  text += "campaign.workers = " + std::to_string(workers) + "\n";
  text += "campaign.thread_budget = " + std::to_string(budget) + "\n";
  text += "campaign.retries = " + std::to_string(retries) + "\n";
  text += "campaign.backoff_ms = " + std::to_string(backoff_ms) + "\n";
  text += "campaign.steps = 1\n";
  text += cases == 1 ? std::string("sweep.Ra = 1e4\n")
                     : "sweep.Ra = 1e4:1e7:log" + std::to_string(cases) + "\n";
  return CampaignSpec::from_params(ParamMap::parse(text));
}

TEST_F(ManifestTest, SchedulerRunsEveryCaseOnce) {
  std::atomic<int> runs{0};
  Scheduler scheduler(tiny_spec(dir_, 5, 2, 2),
                      [&](const CaseSpec&, RunContext&) {
                        runs.fetch_add(1);
                        return RunResult{true, "", {}};
                      });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(runs.load(), 5);
  EXPECT_EQ(report.completed, 5);
  EXPECT_EQ(report.completed + report.skipped,
            static_cast<int>(report.outcomes.size()));
  EXPECT_TRUE(report.all_done());
  EXPECT_LE(report.max_threads_in_flight, 2);
  EXPECT_GT(report.utilisation(), 0.0);
  EXPECT_LE(report.utilisation(), 1.0);
  // Manifest: every case reached `done`.
  const ManifestState state = read_manifest(dir_ + "/manifest.ndjson");
  ASSERT_EQ(state.cases.size(), 5u);
  for (const auto& [id, status] : state.cases) EXPECT_TRUE(status.completed());
}

TEST_F(ManifestTest, RetriesWithBackoffThenSucceeds) {
  std::atomic<int> attempts_seen{0};
  Scheduler scheduler(
      tiny_spec(dir_, 2, 2, 2, /*retries=*/2),
      [&](const CaseSpec& cs, RunContext& ctx) {
        attempts_seen.fetch_add(1);
        // The most expensive case fails twice, then succeeds on attempt 3.
        const bool is_flaky = cases::kRa.get(cs.params, 0.0) > 1e6;
        return RunResult{!is_flaky || ctx.attempt() >= 3, "synthetic", {}};
      });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(attempts_seen.load(), 4);  // 1 + 3
  const auto& flaky = *std::find_if(
      report.outcomes.begin(), report.outcomes.end(),
      [](const CaseOutcome& o) { return o.attempts == 3; });
  EXPECT_EQ(flaky.state, "done");
}

TEST_F(ManifestTest, RetryExhaustionFailsTheCaseOnly) {
  Scheduler scheduler(tiny_spec(dir_, 3, 2, 2, /*retries=*/1),
                      [&](const CaseSpec& cs, RunContext&) {
                        const bool broken =
                            cases::kRa.get(cs.params, 0.0) > 1e6;
                        return RunResult{!broken, "synthetic breakage", {}};
                      });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.retries, 1);
  EXPECT_FALSE(report.all_done());
  const ManifestState state = read_manifest(dir_ + "/manifest.ndjson");
  int failed = 0;
  for (const auto& [id, status] : state.cases)
    failed += status.state == "failed";
  EXPECT_EQ(failed, 1);
}

TEST_F(ManifestTest, WatchdogCancelsStalledRunWhichRetries) {
  CampaignSpec spec = tiny_spec(dir_, 1, 1, 1, /*retries=*/1);
  spec.config.watchdog_seconds = 0.05;
  Scheduler scheduler(spec, [&](const CaseSpec&, RunContext& ctx) {
    if (ctx.attempt() == 1) {
      // Stall without heartbeating until the watchdog cancels us.
      while (!ctx.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return RunResult{false, "", {}};
    }
    ctx.heartbeat();
    return RunResult{true, "", {}};
  });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.retries, 1);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
}

TEST_F(ManifestTest, ThreadBudgetIsNeverExceededUnderStress) {
  // 12 cases needing 1-3 threads each on a budget of 4: admissions must
  // never oversubscribe, which the scheduler FELIS_CHECKs internally and we
  // assert independently here.
  std::string text = "campaign.dir = " + dir_ + "\n";
  text += "campaign.workers = 4\ncampaign.thread_budget = 4\n";
  text += "campaign.steps = 1\nsweep.seed = 1:12:lin12\n";
  CampaignSpec spec = CampaignSpec::from_params(ParamMap::parse(text));
  ASSERT_EQ(spec.cases.size(), 12u);
  for (usize i = 0; i < spec.cases.size(); ++i)
    spec.cases[i].threads = 1 + static_cast<int>(i % 3);

  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  Scheduler scheduler(spec, [&](const CaseSpec& cs, RunContext&) {
    const int now = in_flight.fetch_add(cs.threads) + cs.threads;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    EXPECT_LE(now, 4) << "thread budget exceeded";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    in_flight.fetch_sub(cs.threads);
    return RunResult{true, "", {}};
  });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 12);
  EXPECT_LE(peak.load(), 4);
  EXPECT_LE(report.max_threads_in_flight, 4);
  EXPECT_GT(report.max_threads_in_flight, 1) << "no concurrency at all";
}

TEST_F(ManifestTest, DrainStopsAdmissionsAndMarksInterruptedRetried) {
  Scheduler* handle = nullptr;
  std::atomic<int> started{0};
  Scheduler scheduler(tiny_spec(dir_, 6, 1, 1),
                      [&](const CaseSpec&, RunContext& ctx) {
                        if (started.fetch_add(1) == 0) handle->request_drain();
                        return RunResult{!ctx.cancelled(), "", {}};
                      });
  handle = &scheduler;
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(started.load(), 1) << "drain did not stop admissions";
  EXPECT_EQ(report.drained, 6);
  EXPECT_EQ(report.failed, 0);
  // The interrupted case is journalled `retried`, the rest stay `queued`;
  // a resume re-runs all of them.
  Scheduler resumed(tiny_spec(dir_, 6, 2, 2),
                    [&](const CaseSpec&, RunContext&) {
                      return RunResult{true, "", {}};
                    });
  const CampaignReport second = resumed.run();
  EXPECT_EQ(second.completed, 6);
  EXPECT_EQ(second.skipped, 0);
}

TEST_F(ManifestTest, ResumeSkipsCompletedCases) {
  std::atomic<int> first_runs{0};
  Scheduler first(tiny_spec(dir_, 4, 2, 2),
                  [&](const CaseSpec& cs, RunContext&) {
                    first_runs.fetch_add(1);
                    // Half the campaign fails terminally (no retries).
                    const bool ok = cases::kRa.get(cs.params, 0.0) < 2e5;
                    return RunResult{ok, "synthetic", {{"Ra", 1.0}, {"third", 1.0 / 3}}};
                  });
  const CampaignReport r1 = first.run();
  EXPECT_EQ(r1.completed, 2);
  EXPECT_EQ(r1.failed, 2);

  std::atomic<int> second_runs{0};
  Scheduler second(tiny_spec(dir_, 4, 2, 2),
                   [&](const CaseSpec&, RunContext&) {
                     second_runs.fetch_add(1);
                     return RunResult{true, "", {}};
                   });
  const CampaignReport r2 = second.run();
  EXPECT_EQ(second_runs.load(), 2) << "completed cases were re-run";
  EXPECT_EQ(r2.skipped, 2);
  EXPECT_EQ(r2.completed, 2);
  EXPECT_TRUE(r2.all_done());
  // Throughput counts the two cases this session ran, not the skipped ones.
  ASSERT_GT(r2.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r2.cases_per_hour(), 2 * 3600.0 / r2.wall_seconds);
  // Skipped cases keep their recorded metrics for campaign aggregates.
  for (const CaseOutcome& out : r2.outcomes) {
    if (out.skipped) {
      EXPECT_EQ(out.result.metrics.at("Ra"), 1.0);
      EXPECT_EQ(out.result.metrics.at("third"), 1.0 / 3);  // every bit
    }
  }

  // A resume with nothing left to run retires no cases.
  std::atomic<int> third_runs{0};
  Scheduler third(tiny_spec(dir_, 4, 2, 2),
                  [&](const CaseSpec&, RunContext&) {
                    third_runs.fetch_add(1);
                    return RunResult{true, "", {}};
                  });
  const CampaignReport r3 = third.run();
  EXPECT_EQ(third_runs.load(), 0) << "done cases were re-run";
  EXPECT_EQ(r3.skipped, 4);
  EXPECT_EQ(r3.completed, 0);
  ASSERT_GT(r3.wall_seconds, 0.0);
  EXPECT_EQ(r3.cases_per_hour(), 0.0);
}

TEST_F(ManifestTest, RunRefusesARejectedManifestAndLeavesItUntouched) {
  // Manifests the replay rules reject: a duplicate terminal record, and the
  // admission ledger of the retired campaign service mode. run() must stop
  // with the named error before it runs a case or appends a byte.
  const std::string header =
      R"({"type":"header","schema":"felis-campaign-1","campaign":"old",)"
      R"("cases":1,"workers":1,"thread_budget":1,"ranks":1})";
  const std::vector<std::string> bad_records = {
      format_run_record("case0000-Ra10000", "done", 1, 0.5, 0.4) + "\n" +
          format_run_record("case0000-Ra10000", "done", 1, 0.6, 0.4),
      R"({"type":"submit","submission":"bob-77c1","tenant":"bob",)"
      R"("priority":4,"decision":"admitted","cases":1,"cost_seconds":2,)"
      R"("t":0.5})"};
  const std::string path = dir_ + "/manifest.ndjson";
  const auto slurp = [&path] {
    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  for (const std::string& bad : bad_records) {
    const std::string before = header + "\n" + bad + "\n";
    std::ofstream(path, std::ios::trunc) << before;
    std::atomic<int> runs{0};
    Scheduler scheduler(tiny_spec(dir_, 1, 1, 1),
                        [&](const CaseSpec&, RunContext&) {
                          runs.fetch_add(1);
                          return RunResult{true, "", {}};
                        });
    EXPECT_THROW(scheduler.run(), ManifestReplayError) << bad;
    EXPECT_EQ(runs.load(), 0) << bad;
    EXPECT_EQ(slurp(), before) << "manifest modified";
  }
}

// ---- the real runner: campaign-level crash recovery ----------------------

/// Four-case Ra sweep, real RBC runner, tiny mesh. `steps` is kept small so
/// the full acceptance scenario stays in CI budget.
ParamMap acceptance_params(const std::string& dir) {
  ParamMap p = ParamMap::parse(R"(
    campaign.workers = 2
    campaign.thread_budget = 2
    campaign.steps = 10
    campaign.retries = 2
    campaign.backoff_ms = 1
    sweep.Ra = 2e4:2e5:log4
    case.dt = 1.5e-2
    case.perturbation = 2e-2
    checkpoint.every = 4
  )");
  p.set("campaign.dir", dir);
  return p;
}

/// Load the final checkpoint of every case of a campaign, keyed by case id;
/// `basename` picks one rank's rotation of a multi-rank case (`felis.r<k>`).
std::map<std::string, fluid::Checkpoint> final_checkpoints(
    const CampaignSpec& spec, const std::string& basename = "felis") {
  std::map<std::string, fluid::Checkpoint> out;
  const std::string prefix = basename + ".";
  for (const CaseSpec& cs : spec.cases) {
    const fs::path dir = fs::path(spec.config.dir) / cs.id / "checkpoints";
    std::int64_t newest = -1;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() < 6 || name.substr(name.size() - 5) != ".ckpt") continue;
      if (name.rfind(prefix, 0) != 0) continue;
      newest = std::max<std::int64_t>(newest, std::stoll(name.substr(prefix.size())));
    }
    EXPECT_GE(newest, 0) << "no checkpoint for " << cs.id;
    char stamp[16];
    std::snprintf(stamp, sizeof(stamp), "%010lld",
                  static_cast<long long>(newest));
    out.emplace(cs.id, fluid::Checkpoint::load(
                           (dir / (prefix + std::string(stamp) + ".ckpt"))
                               .string()));
  }
  return out;
}

/// A resumed case's final state must be bitwise the uninterrupted one's.
void expect_bitwise_equal(const fluid::Checkpoint& ck, const fluid::Checkpoint& ref,
                          const std::string& label) {
  EXPECT_EQ(ck.step, ref.step) << label;
  EXPECT_EQ(ck.time, ref.time) << label;
  ASSERT_EQ(ck.u.size(), ref.u.size()) << label;
  for (usize i = 0; i < ck.u.size(); ++i) {
    ASSERT_EQ(ck.u[i], ref.u[i]) << label << " u dof " << i;
    ASSERT_EQ(ck.temperature[i], ref.temperature[i]) << label << " T dof " << i;
  }
}

TEST_F(ManifestTest, KilledCampaignAutoRecoversBitwise) {
  // Reference: the same sweep, uninterrupted.
  const std::string ref_dir = dir_ + "/ref";
  CampaignSpec ref_spec = CampaignSpec::from_params(acceptance_params(ref_dir));
  Scheduler ref(ref_spec, make_case_runner());
  const CampaignReport ref_report = ref.run();
  ASSERT_TRUE(ref_report.all_done());
  const auto ref_final = final_checkpoints(ref.spec());

  // Session 1: one case dies at its second checkpoint write (a simulated
  // process kill mid-rotation) with in-session retries disabled — the case
  // is left `failed` in the manifest, exactly like a campaign whose driver
  // was killed and could not retry.
  const std::string dir = dir_ + "/campaign";
  ParamMap params = acceptance_params(dir);
  params.set("campaign.retries", 0);
  CampaignSpec spec1 = CampaignSpec::from_params(params);
  ASSERT_EQ(spec1.cases.size(), 4u);
  const std::string victim = spec1.cases.front().id;  // most expensive case
  for (CaseSpec& cs : spec1.cases) {
    if (cs.id != victim) continue;
    cs.params.set("fault.mode", std::string("crash"));
    cs.params.set("fault.at", 2);
  }
  Scheduler session1(spec1, make_case_runner());
  const CampaignReport r1 = session1.run();
  EXPECT_EQ(r1.failed, 1);
  EXPECT_EQ(r1.completed, 3);

  // Corrupt the victim's newest surviving checkpoint on disk (bitrot while
  // the campaign was down): recovery must fall back to the older one.
  {
    const fs::path ck_dir = fs::path(dir) / victim / "checkpoints";
    fs::path newest;
    for (const auto& entry : fs::directory_iterator(ck_dir)) {
      if (entry.path().extension() != ".ckpt") continue;
      if (newest.empty() || entry.path().filename() > newest.filename())
        newest = entry.path();
    }
    ASSERT_FALSE(newest.empty());
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(80);
    char byte = 0;
    f.seekg(80);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0xff);
    f.seekp(80);
    f.put(byte);
  }

  // A status read between the kill and the resume sees the session-1
  // journal.
  EXPECT_EQ(obs::read_campaign(dir).snapshot.find(victim)->state, "failed");

  // Session 2: fresh scheduler over the same manifest. Completed cases are
  // skipped; the failed case re-queues, restores from the newest *valid*
  // checkpoint and catches up.
  CampaignSpec spec2 = CampaignSpec::from_params(acceptance_params(dir));
  Scheduler session2(spec2, make_case_runner());
  const CampaignReport r2 = session2.run();
  EXPECT_EQ(r2.skipped, 3);
  EXPECT_EQ(r2.completed, 1);
  ASSERT_TRUE(r2.all_done());

  // Every case's final state is bitwise identical to the uninterrupted
  // campaign — the PR 3 exact-restart guarantee, now at campaign level.
  const auto final = final_checkpoints(session2.spec());
  ASSERT_EQ(final.size(), ref_final.size());
  for (const auto& [id, ck] : final) expect_bitwise_equal(ck, ref_final.at(id), id);

  // Status-vs-manifest equivalence after the killed-and-resumed campaign:
  // the status fold's per-case states/attempts/metrics reproduce a fresh
  // read_manifest fold exactly.
  const ManifestState fresh = read_manifest(dir + "/manifest.ndjson");
  const obs::CampaignSnapshot snap = obs::read_campaign(dir).snapshot;
  ASSERT_TRUE(snap.manifest_found);
  ASSERT_EQ(snap.cases.size(), fresh.cases.size());
  for (const auto& [id, ref_case] : fresh.cases) {
    const obs::CaseView* view = snap.find(id);
    ASSERT_NE(view, nullptr) << id;
    EXPECT_EQ(view->state, ref_case.state) << id;
    EXPECT_EQ(view->attempts, ref_case.attempts) << id;
    EXPECT_EQ(view->metrics, ref_case.metrics) << id;
  }
  EXPECT_TRUE(snap.complete());
  EXPECT_EQ(snap.resumes, 1);
}

/// The last line of a telemetry NDJSON stream (its newest step record).
std::string last_record(const fs::path& ndjson) {
  std::ifstream in(ndjson);
  std::string last;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) last = line;
  return last;
}

/// A telemetry record's top-level number `key` (0 when the line does not
/// parse), read through the journal parser.
double number_of(const std::string& line, const std::string& key) {
  const std::optional<JsonRecord> rec = parse_json_record(line);
  return rec ? rec->number(key) : 0.0;
}

/// A step record's metric `name`; nullopt when the line does not parse or
/// carries no such metric.
std::optional<double> metric_of(const std::string& line,
                                const std::string& name) {
  const std::optional<JsonRecord> rec = parse_json_record(line);
  if (!rec) return std::nullopt;
  const auto& numbers = rec->object("metrics").numbers;
  const auto it = numbers.find(name);
  if (it == numbers.end()) return std::nullopt;
  return it->second;
}

/// A telemetry header's metadata value ("" when absent).
std::string metadata_of(const std::string& header, const std::string& key) {
  const std::optional<JsonRecord> rec = parse_json_record(header);
  const std::string* value = rec ? rec->object("metadata").string(key) : nullptr;
  return value ? *value : "";
}

TEST_F(ManifestTest, CaseTelemetryCountsItsOwnCheckpointWrites) {
  // Two workers run cases concurrently in one process. Each case's stream
  // must still count exactly the checkpoints that case wrote, and exactly
  // the work it did: the same profile.* counts as with one worker.
  ParamMap params = acceptance_params(dir_);
  params.set("telemetry.enabled", true);
  const CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.config.workers, 2);
  Scheduler scheduler(spec, make_case_runner());
  const CampaignReport report = scheduler.run();
  ASSERT_TRUE(report.all_done());

  ParamMap serial = acceptance_params(dir_ + "/one_worker");
  serial.set("telemetry.enabled", true);
  serial.set("campaign.workers", 1);
  const CampaignSpec serial_spec = CampaignSpec::from_params(serial);
  Scheduler one_worker(serial_spec, make_case_runner());
  ASSERT_TRUE(one_worker.run().all_done());

  // The status fold reads each case's live fields under the names the step
  // record's serializer writes them.
  const obs::CampaignSnapshot snap = obs::read_campaign(dir_).snapshot;
  for (const CaseSpec& cs : spec.cases) {
    const fs::path tel = fs::path(dir_) / cs.id / "telemetry";
    // 10 steps with checkpoint.every = 4: the writes at steps 4 and 8 land
    // before the step-10 record; the sealing write at step 10 comes after
    // it and reaches no artifact.
    std::string header;
    std::getline(std::ifstream(tel / "run.ndjson"), header);
    const std::string last = last_record(tel / "run.ndjson");
    const std::string alone = last_record(
        fs::path(serial_spec.config.dir) / cs.id / "telemetry" / "run.ndjson");
    for (const char* name : {"profile.flops", "profile.bytes", "profile.messages",
                             "profile.message_bytes", "profile.reductions"}) {
      const std::optional<double> count = metric_of(last, name);
      EXPECT_TRUE(count.has_value()) << cs.id << " lacks " << name;
      EXPECT_EQ(count, metric_of(alone, name)) << cs.id << " " << name;
    }
    // The header names the team the case actually ran on: the one thread
    // its rank is charged, so the process-default family at one thread.
    EXPECT_EQ(metadata_of(header, "backend"),
              device::select_backend(ParamMap(), 1).name())
        << cs.id << ": " << header;
    EXPECT_EQ(metadata_of(header, "threads"), "1") << cs.id << ": " << header;
    ASSERT_NE(last.find(R"("type":"step","step":10)"), std::string::npos)
        << cs.id << ": " << last;
    EXPECT_EQ(metric_of(last, "checkpoint.writes"), 2.0) << cs.id;

    const obs::CaseView* v = snap.find(cs.id);
    ASSERT_NE(v, nullptr) << cs.id;
    ASSERT_TRUE(v->telemetry_found) << cs.id;
    EXPECT_EQ(v->nusselt, metric_of(last, "case.nu_volume")) << cs.id;
    EXPECT_EQ(v->cfl, metric_of(last, "solver.cfl")) << cs.id;
    EXPECT_EQ(v->pressure_iterations,
              metric_of(last, "solver.pressure_iterations"))
        << cs.id;
    EXPECT_EQ(v->pressure_residual, metric_of(last, "solver.pressure_residual"))
        << cs.id;
    std::vector<std::string> flags;
    for (const auto& [name, count] : v->health_flags) flags.push_back(name);
    EXPECT_EQ(flags, (std::vector<std::string>{
                         "health.flags.checkpoint_retry",
                         "health.flags.iteration_spike",
                         "health.flags.residual_stagnation"}))
        << cs.id;
  }
}

TEST_F(ManifestTest, EachCaseRunsOnItsOwnBackend) {
  // device.backend is a per-case key: a sweep over it must run each case on
  // the backend it names, on the one thread the budget charges its rank, and
  // its telemetry header must say so. The team does not change the bits.
  ParamMap params = ParamMap::parse(R"(
    campaign.workers = 1
    campaign.thread_budget = 1
    campaign.steps = 2
    case.Ra = 2e4
    case.dt = 1.5e-2
    telemetry.enabled = true
    sweep.device.backend = serial,openmp
  )");
  params.set("campaign.dir", dir_);
  const CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 2u);
  Scheduler scheduler(spec, make_case_runner());
  const CampaignReport report = scheduler.run();
  ASSERT_TRUE(report.all_done());
  for (const CaseSpec& cs : spec.cases) {
    std::string header;
    std::ifstream in(fs::path(dir_) / cs.id / "telemetry" / "run.ndjson");
    std::getline(in, header);
    EXPECT_EQ(metadata_of(header, "backend"),
              cs.params.get_string("device.backend", ""))
        << cs.id << ": " << header;
    EXPECT_EQ(metadata_of(header, "threads"), "1") << cs.id << ": " << header;
  }
  ASSERT_EQ(report.outcomes.size(), 2u);
  const auto& a = report.outcomes[0].result.metrics;
  const auto& b = report.outcomes[1].result.metrics;
  for (const char* name : {"nu_plate", "nu_volume"}) {
    ASSERT_EQ(a.count(name), 1u) << name;
    ASSERT_EQ(b.count(name), 1u) << name;
    EXPECT_EQ(a.at(name), b.at(name)) << name;  // bitwise, not NEAR
  }
}

TEST_F(ManifestTest, EnvFaultInjectionCrashRetriesAndRecovers) {
  // The CI path: FELIS_FAULT_INJECT kills every case's second checkpoint
  // write; the scheduler's in-session retry restores and completes.
  ASSERT_EQ(::setenv("FELIS_FAULT_INJECT", "mode=crash; at=2", 1), 0);
  ParamMap params = acceptance_params(dir_ + "/env");
  CampaignSpec spec = CampaignSpec::from_params(params);
  Scheduler scheduler(spec, make_case_runner());
  const CampaignReport report = scheduler.run();
  ASSERT_EQ(::unsetenv("FELIS_FAULT_INJECT"), 0);
  EXPECT_TRUE(report.all_done());
  EXPECT_EQ(report.completed, 4);
  EXPECT_EQ(report.retries, 4);
  for (const CaseOutcome& out : report.outcomes) EXPECT_EQ(out.attempts, 2);
}

TEST_F(ManifestTest, MultiRankCaseRunsUnderTheBudget) {
  ParamMap params = ParamMap::parse(R"(
    campaign.workers = 2
    campaign.thread_budget = 2
    campaign.steps = 4
    campaign.ranks = 2
    case.Ra = 2e4
    case.dt = 1.5e-2
    checkpoint.every = 2
    telemetry.enabled = true
  )");
  params.set("campaign.dir", dir_);
  CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 1u);
  EXPECT_EQ(spec.cases[0].threads, 2);
  Scheduler scheduler(spec, make_case_runner());
  const CampaignReport report = scheduler.run();
  ASSERT_TRUE(report.all_done());
  EXPECT_EQ(report.max_threads_in_flight, 2);
  EXPECT_EQ(report.outcomes[0].result.metrics.at("ranks"), 2.0);
  // Both ranks checkpointed under their own basenames.
  const fs::path ck =
      fs::path(dir_) / spec.cases[0].id / "checkpoints";
  int r0 = 0, r1 = 0;
  for (const auto& entry : fs::directory_iterator(ck)) {
    const std::string name = entry.path().filename().string();
    r0 += name.rfind("felis.r0.", 0) == 0;
    r1 += name.rfind("felis.r1.", 0) == 0;
  }
  EXPECT_GT(r0, 0);
  EXPECT_GT(r1, 0);
  // Each rank's stream carries its own exchanges and no process-wide counts.
  for (const char* rank : {"rank0", "rank1"}) {
    const std::string last = last_record(fs::path(dir_) / spec.cases[0].id /
                                         "telemetry" / rank / "run.ndjson");
    EXPECT_GT(metric_of(last, "profile.messages").value_or(0.0), 0.0) << rank;
    for (const char* retired : {"\"gs.", "\"comm.", "\"krylov."})
      EXPECT_EQ(last.find(retired), std::string::npos) << rank << ": " << last;
  }
}

TEST_F(ManifestTest, MultiRankCrashRetriesAndRecoversBitwise) {
  // The two-rank twin of EnvFaultInjectionCrashRetriesAndRecovers: rank 0's
  // second checkpoint write (step 4) dies. Rank 1 has written its own step 4
  // and fails at its next exchange instead of hanging; the retry restores
  // step 2, the newest step both ranks hold.
  const auto two_ranks = [](const std::string& dir) {
    ParamMap p = ParamMap::parse(R"(
      campaign.workers = 1
      campaign.thread_budget = 2
      campaign.ranks = 2
      campaign.steps = 10
      campaign.retries = 2
      campaign.backoff_ms = 1
      case.Ra = 2e4
      case.dt = 1.5e-2
      case.perturbation = 2e-2
      checkpoint.every = 2
      telemetry.enabled = true
    )");
    p.set("campaign.dir", dir);
    return p;
  };
  Scheduler ref(CampaignSpec::from_params(two_ranks(dir_ + "/ref")), make_case_runner());
  ASSERT_TRUE(ref.run().all_done());

  ParamMap params = two_ranks(dir_ + "/crash");
  params.set("fault.mode", std::string("crash"));
  params.set("fault.at", 2);
  Scheduler crashed(CampaignSpec::from_params(params), make_case_runner());
  const CampaignReport report = crashed.run();
  ASSERT_TRUE(report.all_done());
  EXPECT_EQ(report.retries, 1);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].attempts, 2);

  // The retried attempt failed with rank 0's own InjectedCrash.
  const std::string id = crashed.spec().cases[0].id;
  std::ifstream manifest(dir_ + "/crash/manifest.ndjson");
  int retried = 0;
  for (std::string line; std::getline(manifest, line);) {
    if (line.find(R"("state":"retried")") == std::string::npos) continue;
    ++retried;
    EXPECT_NE(line.find("crash before renaming"), std::string::npos) << line;
    EXPECT_NE(line.find("felis.r0.0000000004.ckpt"), std::string::npos) << line;
  }
  EXPECT_EQ(retried, 1);

  // Each rank's stream restarts with the retry: its first step is 3.
  for (const char* rank : {"rank0", "rank1"}) {
    std::ifstream in(fs::path(dir_) / "crash" / id / "telemetry" / rank / "run.ndjson");
    std::string line;
    while (std::getline(in, line))
      if (line.find(R"("type":"step")") != std::string::npos) break;
    EXPECT_EQ(number_of(line, "step"), 3.0) << rank << ": " << line;
  }

  for (const std::string rank : {"felis.r0", "felis.r1"}) {
    const auto final = final_checkpoints(crashed.spec(), rank);
    const auto ref_final = final_checkpoints(ref.spec(), rank);
    ASSERT_EQ(final.size(), 1u);
    expect_bitwise_equal(final.begin()->second, ref_final.begin()->second, rank);
  }
}

// ---- drain: step-boundary cancellation and bitwise resume ---------------

TEST_F(ManifestTest, DrainedCaseResumesBitwiseIdentical) {
  // Reference: the case, uninterrupted.
  ParamMap base = ParamMap::parse(R"(
    campaign.workers = 1
    campaign.thread_budget = 1
    campaign.steps = 60
    campaign.backoff_ms = 1
    case.Ra = 2e4
    case.dt = 1.5e-2
    case.perturbation = 2e-2
    checkpoint.every = 5
    telemetry.enabled = true
  )");
  ParamMap ref_params = base;
  ref_params.set("campaign.dir", dir_ + "/ref");
  Scheduler ref(CampaignSpec::from_params(ref_params), make_case_runner());
  ASSERT_TRUE(ref.run().all_done());
  const auto ref_final = final_checkpoints(ref.spec());
  ASSERT_EQ(ref_final.size(), 1u);
  const std::string id = ref_final.begin()->first;

  // Session 1: drain, as SIGINT does, once the case has begun writing
  // checkpoints. The runner leaves at its next step boundary.
  ParamMap params = base;
  params.set("campaign.dir", dir_ + "/drained");
  const CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 1u);
  ASSERT_EQ(spec.cases[0].id, id);
  Scheduler first(spec, make_case_runner());
  std::atomic<bool> returned{false};
  std::thread drainer([&] {
    const fs::path started = fs::path(spec.config.dir) / id / "checkpoints";
    while (!fs::exists(started) && !returned.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    first.request_drain();
  });
  const CampaignReport drained = first.run();
  returned.store(true);
  drainer.join();
  EXPECT_EQ(drained.drained, 1);
  EXPECT_EQ(drained.completed, 0);
  EXPECT_EQ(read_manifest(spec.manifest_path()).cases.at(id).state, "retried");
  const std::int64_t drained_step = final_checkpoints(spec).at(id).step;
  ASSERT_GT(drained_step, 0);
  ASSERT_LT(drained_step, 60) << "the case finished before the drain";

  // Session 2: a fresh scheduler resumes from the drained checkpoint. The
  // attempt-2 telemetry stream starts right after it, not at step 1.
  Scheduler second(spec, make_case_runner());
  const CampaignReport resumed = second.run();
  ASSERT_TRUE(resumed.all_done());
  EXPECT_EQ(resumed.completed, 1);
  EXPECT_EQ(resumed.outcomes[0].attempts, 2);
  std::string header, first_step;
  {
    std::ifstream in(fs::path(spec.config.dir) / id / "telemetry" /
                     "run.ndjson");
    std::getline(in, header);
    for (std::string line; std::getline(in, line);) {
      if (line.find(R"("type":"step")") != std::string::npos) {
        first_step = line;
        break;
      }
    }
  }
  EXPECT_EQ(metadata_of(header, "attempt"), "2") << header;
  EXPECT_EQ(number_of(first_step, "step"),
            static_cast<double>(drained_step + 1))
      << first_step;

  // The drained-and-resumed final state is bitwise identical to the
  // uninterrupted reference: the exact-restart guarantee, exercised through
  // the drain path.
  const auto resumed_final = final_checkpoints(spec);
  const fluid::Checkpoint& ck = resumed_final.at(id);
  const fluid::Checkpoint& ref_ck = ref_final.at(id);
  EXPECT_EQ(ck.step, ref_ck.step);
  EXPECT_EQ(ck.time, ref_ck.time);
  ASSERT_EQ(ck.u.size(), ref_ck.u.size());
  for (usize i = 0; i < ck.u.size(); ++i) {
    ASSERT_EQ(ck.u[i], ref_ck.u[i]) << "u dof " << i;
    ASSERT_EQ(ck.temperature[i], ref_ck.temperature[i]) << "T dof " << i;
  }
}

}  // namespace
}  // namespace felis::sched
