// Tests for the common substrate: error checks, profiler region tree, trace
// recorder, parameter map, declarations and the command-line parser, and
// sample statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/params.hpp"
#include "common/profiler.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"

namespace felis {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(FELIS_CHECK(1 + 1 == 2));
  try {
    FELIS_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Error, CheckIsAlwaysOnAndReportsSite) {
  // FELIS_CHECK is active in every build configuration (unlike FELIS_ASSERT)
  // and its message carries the failing expression and source location.
  try {
    FELIS_CHECK(1 > 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 > 2"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    EXPECT_NE(what.find("felis check failed"), std::string::npos);
  }
}

TEST(Error, ErrorIsCatchableAsStdException) {
  // Library contract failures must be recoverable: felis::Error derives from
  // std::runtime_error so generic driver loops can catch and continue.
  try {
    FELIS_CHECK_MSG(false, "recoverable");
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("recoverable"), std::string::npos);
    return;
  }
  FAIL() << "expected std::exception";
}

TEST(Error, CheckEvaluatesExpressionExactlyOnce) {
  int evals = 0;
  const auto bump = [&evals] {
    ++evals;
    return true;
  };
  FELIS_CHECK(bump());
  EXPECT_EQ(evals, 1);
  FELIS_CHECK_MSG(bump(), "side effects must not double-fire");
  EXPECT_EQ(evals, 2);
}

TEST(Error, AssertSemanticsMatchBuildConfiguration) {
  // In NDEBUG builds FELIS_ASSERT / FELIS_ASSERT_MSG compile out entirely
  // (their arguments are not evaluated); in debug builds they behave exactly
  // like FELIS_CHECK. The always-live branch is covered for every config by
  // test_race_stress, which forces NDEBUG off.
#ifdef NDEBUG
  int evals = 0;
  FELIS_ASSERT((++evals, false));
  FELIS_ASSERT_MSG((++evals, false), "unused " << evals);
  EXPECT_EQ(evals, 0);
#else
  EXPECT_THROW(FELIS_ASSERT(false), Error);
  EXPECT_THROW(FELIS_ASSERT_MSG(false, "msg " << 1), Error);
  EXPECT_NO_THROW(FELIS_ASSERT(true));
  EXPECT_NO_THROW(FELIS_ASSERT_MSG(true, "msg"));
#endif
}

TEST(Profiler, NestedRegionsAccumulateTimeAndCalls) {
  Profiler prof;
  for (int i = 0; i < 3; ++i) {
    auto step = prof.scope("step");
    {
      auto p = prof.scope("pressure");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      auto v = prof.scope("velocity");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const RegionNode* step = prof.find("step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->calls, 3);
  const RegionNode* pressure = prof.find("step/pressure");
  ASSERT_NE(pressure, nullptr);
  EXPECT_EQ(pressure->calls, 3);
  EXPECT_GT(pressure->seconds, 0.0);
  // Inclusive parent time covers children.
  EXPECT_GE(step->seconds, pressure->seconds + prof.find("step/velocity")->seconds);
  EXPECT_EQ(prof.find("step/nonexistent"), nullptr);
}

TEST(Profiler, CountersChargeCurrentRegionAndAggregate) {
  Profiler prof;
  {
    auto a = prof.scope("ax");
    OpCounters kernel;
    kernel.flops = 100;
    kernel.bytes = 800;
    prof.add(kernel);
    {
      auto g = prof.scope("gs");
      prof.add_message(64);
      prof.add_message(32);
      prof.add_reduction();
    }
  }
  const RegionNode* ax = prof.find("ax");
  ASSERT_NE(ax, nullptr);
  EXPECT_DOUBLE_EQ(ax->counters.flops, 100);
  EXPECT_DOUBLE_EQ(ax->counters.bytes, 800);
  EXPECT_DOUBLE_EQ(ax->counters.reductions, 0);
  const OpCounters inc = ax->inclusive_counters();
  EXPECT_DOUBLE_EQ(inc.messages, 2);
  EXPECT_DOUBLE_EQ(inc.msg_bytes, 96);
  EXPECT_DOUBLE_EQ(inc.reductions, 1);
}

TEST(Profiler, ResetClearsValuesKeepsShape) {
  Profiler prof;
  {
    auto a = prof.scope("x");
    OpCounters kernel;
    kernel.flops = 5;
    prof.add(kernel);
  }
  prof.reset();
  const RegionNode* x = prof.find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->calls, 0);
  EXPECT_DOUBLE_EQ(x->counters.flops, 0);
}

TEST(Profiler, ReportContainsRegionNames) {
  Profiler prof;
  {
    auto s = prof.scope("step");
    auto p = prof.scope("pressure");
  }
  const std::string rep = prof.report();
  EXPECT_NE(rep.find("step"), std::string::npos);
  EXPECT_NE(rep.find("pressure"), std::string::npos);
}

TEST(Profiler, PopWithoutPushThrows) {
  Profiler prof;
  EXPECT_THROW(prof.pop(), Error);
}

TEST(Profiler, ConcurrentCounterChargingLosesNothing) {
  // The add calls are the documented thread-safe subset: kernels dispatched
  // onto a backend charge the current region concurrently. Totals must be
  // exact.
  Profiler prof;
  constexpr int kThreads = 4;
  constexpr int kReps = 10000;
  {
    auto r = prof.scope("kernel");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&prof] {
        for (int i = 0; i < kReps; ++i) {
          OpCounters kernel;
          kernel.flops = 2;
          kernel.bytes = 16;
          prof.add(kernel);
          prof.add_message(8);
          prof.add_reduction();
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const RegionNode* kernel = prof.find("kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_DOUBLE_EQ(kernel->counters.flops, 2.0 * kThreads * kReps);
  EXPECT_DOUBLE_EQ(kernel->counters.bytes, 16.0 * kThreads * kReps);
  EXPECT_DOUBLE_EQ(kernel->counters.messages, 1.0 * kThreads * kReps);
  EXPECT_DOUBLE_EQ(kernel->counters.msg_bytes, 8.0 * kThreads * kReps);
  EXPECT_DOUBLE_EQ(kernel->counters.reductions, 1.0 * kThreads * kReps);
}

TEST(Profiler, RegionsRecordIntoAnAttachedTraceRecorder) {
  TraceRecorder trace;
  Profiler prof;
  prof.set_trace(&trace);
  {
    auto s = prof.scope("step");
    auto p = prof.scope("pressure");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Children pop first, so the inner interval is recorded before the outer.
  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "step/pressure");
  EXPECT_EQ(outer.name, "step");
  EXPECT_EQ(inner.stream, kRegionTrack);
  EXPECT_EQ(outer.stream, kRegionTrack);
  EXPECT_GE(inner.t_begin, 0.0);
  EXPECT_GE(inner.t_end, inner.t_begin);
  // The outer interval contains the inner one on the recorder's clock.
  EXPECT_LE(outer.t_begin, inner.t_begin);
  EXPECT_GE(outer.t_end, inner.t_end);
  // The aggregate tree still accumulated alongside the trace.
  EXPECT_EQ(prof.find("step/pressure")->calls, 1);

  // A detached profiler records nothing more, but keeps counting.
  prof.set_trace(nullptr);
  { auto s = prof.scope("after"); }
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(prof.find("after")->calls, 1);
}

TEST(TraceRecorder, CapKeepsTheFirstEventsAndCountsTheRest) {
  TraceRecorder trace(/*max_events=*/3);
  Profiler prof;
  prof.set_trace(&trace);
  for (int i = 0; i < 10; ++i) {
    auto r = prof.scope("region");
  }
  trace.record(0, "schwarz", 0.0, 1e-3);  // every track shares the one cap
  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].name, "region");
  EXPECT_EQ(trace.dropped(), 8u);
  // start() forgets both the events and the drop count.
  trace.start();
  EXPECT_EQ(trace.events().size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

/// A typed read of any key, as the declarations read theirs.
template <class T>
T read(const ParamMap& p, const char* key, T def) {
  return p.has(key) ? parse_value<T>(key, p.get_string(key, "")) : def;
}

TEST(ParamMap, ParseAndTypedAccess) {
  const auto p = ParamMap::parse(R"(
    # RBC case
    case.Ra = 1e6
    case.Pr = 0.7
    mesh.nx = 8
    fluid.dealias = true
    name = rbc   # trailing comment
  )");
  EXPECT_DOUBLE_EQ(read<real_t>(p, "case.Ra", 0), 1e6);
  EXPECT_DOUBLE_EQ(read<real_t>(p, "case.Pr", 0), 0.7);
  EXPECT_EQ(read<int>(p, "mesh.nx", 0), 8);
  EXPECT_TRUE(read<bool>(p, "fluid.dealias", false));
  EXPECT_EQ(p.get_string("name", ""), "rbc");
}

TEST(ParamMap, DefaultsAndErrors) {
  ParamMap p;
  p.set("a", 2.5);
  EXPECT_DOUBLE_EQ(read<real_t>(p, "a", 0), 2.5);
  EXPECT_DOUBLE_EQ(read<real_t>(p, "missing", 1.0), 1.0);
  EXPECT_EQ(p.get_string("missing", "def"), "def");
  p.set("s", std::string("abc"));
  EXPECT_THROW(read<real_t>(p, "s", 0), Error);
  EXPECT_THROW(read<bool>(p, "s", false), Error);
  EXPECT_THROW(ParamMap::parse("no equals sign"), Error);
  // Out-of-range values are named errors too, never std::out_of_range.
  p.set("mesh.nx", std::string("99999999999"));
  EXPECT_THROW(read<int>(p, "mesh.nx", 0), Error);
  p.set("case.Ra", std::string("1e400"));
  EXPECT_THROW(read<real_t>(p, "case.Ra", 0), Error);
}

// ---- declarations and the command-line parser ------------------------------

const Param<real_t> kRa{"case.Ra", 1e-3, 1e30, "Rayleigh number"};
const Param<int> kNx{"mesh.nx", 1, 4096, "elements in x"};
const Param<bool> kOverlap{"fluid.overlap", "overlap the coarse solve"};
const Param<std::string> kType{"case.type", "the case to build"};
const Param<real_t> kNu{"validation.nu.*", 0, 1e9, "reference Nu per type"};
const ParamDecl kMonitor{"campaign.monitor", ParamType::kRemoved, 0, 0,
                         "read the manifest with --status"};
const ParamDecl* const kDeclared[] = {&kRa, &kNx, &kOverlap, &kType, &kNu,
                                      &kMonitor};
const ParamList kDecls[] = {kDeclared};

std::string message_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(Param, ReadsTypedValuesInsideTheirRange) {
  const ParamMap p =
      ParamMap::parse("case.Ra = 1e5; mesh.nx = 8; fluid.overlap = off");
  EXPECT_EQ(kRa.get(p, 1.0), 1e5);
  EXPECT_EQ(kNx.get(p, 3), 8);
  EXPECT_FALSE(kOverlap.get(p, true));
  EXPECT_EQ(kType.get(p, "rbc"), "rbc");  // absent: the reader's default
  EXPECT_TRUE(kNx.in(p));
  EXPECT_FALSE(kType.in(p));
  for (const char* bad : {"mesh.nx = 0", "mesh.nx = 4097", "mesh.nx = 2.5",
                          "case.Ra = 0", "case.Ra = nan", "case.Ra = inf",
                          "case.Ra = 1e400", "case.Ra = 1e4x"}) {
    const ParamMap q = ParamMap::parse(bad);
    const std::string m = message_of([&] {
      kRa.get(q, 1.0);
      kNx.get(q, 3);
    });
    EXPECT_NE(m.find(q.entries().begin()->first), std::string::npos)
        << bad << ": " << m;
  }
  EXPECT_NE(message_of([] { kNx.get(ParamMap::parse("mesh.nx = 0"), 3); })
                .find("outside its range [1, 4096]"),
            std::string::npos);
}

TEST(Param, ARangeWithoutAMaxTakesEveryValueOfItsType) {
  const Param<int> count{"count", 0, "a count"};
  const Param<real_t> length{"length", kPositive, "a length"};
  const ParamMap big = ParamMap::parse("count = 2147483647; length = 1e300");
  EXPECT_EQ(count.get(big, 0), 2147483647);
  EXPECT_EQ(length.get(big, 1.0), 1e300);
  EXPECT_EQ(message_of([&] { count.get(ParamMap::parse("count = -1"), 0); }),
            "parameter 'count' = -1 is outside its range [0, 2147483647]");
  EXPECT_EQ(message_of([&] { length.get(ParamMap::parse("length = 0"), 1.0); }),
            "parameter 'length' = 0 is outside its range (0, inf)");
  EXPECT_THROW(count.get(ParamMap::parse("count = 2147483648"), 0), Error);
  EXPECT_THROW(length.get(ParamMap::parse("length = inf"), 1.0), Error);
}

TEST(Param, CheckNamesAnUndeclaredKeyWithItsNearestDeclaredOne) {
  for (const auto& [text, expected] :
       std::vector<std::pair<const char*, const char*>>{
           {"case.Raa = 1; mesh.nxx = 9", "undeclared key 'case.Raa' (did you mean 'case.Ra'?)"},
           {"fluid.ovelrap = true", "undeclared key 'fluid.ovelrap' (did you mean 'fluid.overlap'?)"},
           {"mesh.nxx = 9", "undeclared key 'mesh.nxx' (did you mean 'mesh.nx'?)"},
           {"zzz = 1", "undeclared key 'zzz'"}})  // nothing within distance 2
    EXPECT_EQ(message_of([&] { check_params(ParamMap::parse(text), kDecls); }), expected);
  EXPECT_EQ(&find_param("mesh.nx", kDecls), &kNx);

  // A prefix declaration covers the keys below it; values are checked too.
  EXPECT_NO_THROW(check_params(
      ParamMap::parse("validation.nu.rbc = 1; case.Ra = 1e6"), kDecls));
  EXPECT_THROW(check_params(ParamMap::parse("validation.nu.rbc = -1"), kDecls),
               Error);
  EXPECT_THROW(check_params(ParamMap::parse("validation.nu. = 1"), kDecls),
               Error);
  EXPECT_THROW(check_params(ParamMap::parse("fluid.overlap = maybe"), kDecls),
               Error);
  // A removed key is refused with its reason, and is never suggested.
  const std::string removed = message_of(
      [] { check_params(ParamMap::parse("campaign.monitor = 1"), kDecls); });
  EXPECT_NE(removed.find("'campaign.monitor' was removed: read the manifest"),
            std::string::npos)
      << removed;
  EXPECT_EQ(message_of([] { find_param("campaign.monitr", kDecls); })
                .find("did you mean"),
            std::string::npos);
}

const Param<std::string> kCaseArg{"--case", "case file"};
const Param<bool> kListArg{"--list", "list and exit"};
const Param<real_t> kRaArg{"Ra", 1, 1e9, "Rayleigh number"};
const Param<int> kStepsArg{"steps", 1, 100, "steps"};
const CommandLine kCli{"host", {&kCaseArg, &kListArg}, {&kRaArg, &kStepsArg},
                       &kCaseArg};

ParamMap parse_args(std::vector<std::string> args) {
  args.insert(args.begin(), "host");
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  return kCli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CommandLine, ReadsOptionsAndPositionalsThroughTheirDeclarations) {
  ParamMap a = parse_args({"1e4", "10"});
  EXPECT_EQ(kRaArg.get(a, 0), 1e4);
  EXPECT_EQ(kStepsArg.get(a, 0), 10);
  // The replacing option takes the first positional's place.
  a = parse_args({"--case", "f.txt", "10"});
  EXPECT_EQ(kCaseArg.get(a, ""), "f.txt");
  EXPECT_EQ(kStepsArg.get(a, 0), 10);
  EXPECT_FALSE(kRaArg.in(a));
  EXPECT_TRUE(kListArg.get(parse_args({"--list"}), false));
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--bogus"},
                                             {"1e4", "10", "3"},
                                             {"abc"},
                                             {"1e4", "0"},
                                             {"1e4", "7x"},
                                             {"--case"},
                                             {"--case", "f", "1", "2"},
                                             {"-1"}})
    EXPECT_THROW(parse_args(bad), UsageError) << bad.front();
  const std::string m = message_of([] { parse_args({"--bogus"}); });
  EXPECT_EQ(m, "unknown argument '--bogus' (valid: <Ra>, <steps>, --case, "
               "--list)");
  const std::string usage = kCli.usage();
  EXPECT_EQ(usage.rfind("usage: host [Ra] [steps] [options]\n", 0), 0u)
      << usage;
  EXPECT_NE(usage.find("steps [1, 100]"), std::string::npos) << usage;
}

TEST(Param, FuzzedFilesAndCommandLinesParseOrThrowFelisErrors) {
  // Random byte soup over the grammar's alphabet, mutated real inputs and
  // random argument lists, from a fixed seed: every input either parses or
  // throws felis::Error, never anything else, and a parsed command line's
  // values read back without error.
  std::mt19937 rng(20260101);
  const std::string alphabet = "=;#\n \t.-+e0123456789abcdxyzRa_*";
  const std::string valid =
      "case.Ra = 1e5\nmesh.nx = 8\nfluid.overlap = true\ncase.type = rbc\n"
      "validation.nu.rbc = 1\n";
  const std::vector<std::string> tokens = {
      "case.Ra", "mesh.nx", "fluid.overlap", "case.type", "validation.nu.",
      "campaign.monitor", "=", ";", "\n", "#", "1e4", "-1", "1e400", "nan",
      "true", "0x1p3", " ", "2147483648", "", "rbc"};
  const auto pick = [&](usize n) { return static_cast<usize>(rng() % n); };
  usize parsed = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text = iter % 3 == 0 ? valid : "";
    for (usize i = pick(64); i > 0; --i) {
      const char c = alphabet[pick(alphabet.size())];
      if (iter % 3 == 0) text[pick(text.size())] = c;  // a mutated real file
      else text += iter % 3 == 1 ? tokens[pick(tokens.size())] : std::string(1, c);
    }
    try {
      const ParamMap p = ParamMap::parse(text);
      check_params(p, kDecls);
      kRa.get(p, 1.0);
      kNx.get(p, 3);
      kOverlap.get(p, false);
      kType.get(p, "");
      ++parsed;
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-felis exception " << e.what() << " on '" << text
                    << "'";
    }
    std::vector<std::string> args;
    for (usize i = pick(5); i > 0; --i) {
      const usize k = pick(tokens.size() + 2);
      args.push_back(k == 0 ? "--case" : k == 1 ? "--list" : tokens[k - 2]);
    }
    try {
      const ParamMap a = parse_args(args);
      kRaArg.get(a, 1);
      kStepsArg.get(a, 1);
      kCaseArg.get(a, "");
      kListArg.get(a, false);
    } catch (const UsageError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a UsageError: " << e.what();
    }
  }
  EXPECT_GT(parsed, 100u);  // the fuzz also reaches the accepting paths
}

TEST(SampleStats, MomentsMatchClosedForm) {
  SampleStats s;
  for (const real_t x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_GT(s.ci99_halfwidth(), 0.0);
}

TEST(SampleStats, ConstantSamplesHaveZeroVariance) {
  SampleStats s;
  for (int i = 0; i < 10; ++i) s.add(3.25);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci99_halfwidth(), 0.0);
}

TEST(PowerFit, RecoversExactPowerLaw) {
  // y = 0.1 x^{1/3}, the classical Nu–Ra scaling shape.
  std::vector<real_t> x, y;
  for (const real_t ra : {1e4, 1e5, 1e6, 1e7}) {
    x.push_back(ra);
    y.push_back(0.1 * std::pow(ra, 1.0 / 3.0));
  }
  const PowerFit fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.exponent, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(fit.prefactor, 0.1, 1e-12);
}

TEST(PowerFit, RejectsNonPositiveData) {
  EXPECT_THROW(fit_power_law({1.0, 2.0}, {1.0, -1.0}), Error);
}

}  // namespace
}  // namespace felis
