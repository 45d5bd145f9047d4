// Tests for the common substrate: error checks, profiler region tree, trace
// recorder, parameter map, and sample statistics.
#include <gtest/gtest.h>

#include <cmath>
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

TEST(ParamMap, ParseAndTypedAccess) {
  const auto p = ParamMap::parse(R"(
    # RBC case
    case.Ra = 1e6
    case.Pr = 0.7
    mesh.nx = 8
    fluid.dealias = true
    name = rbc   # trailing comment
  )");
  EXPECT_DOUBLE_EQ(p.get_real("case.Ra"), 1e6);
  EXPECT_DOUBLE_EQ(p.get_real("case.Pr"), 0.7);
  EXPECT_EQ(p.get_int("mesh.nx"), 8);
  EXPECT_TRUE(p.get_bool("fluid.dealias"));
  EXPECT_EQ(p.get_string("name"), "rbc");
}

TEST(ParamMap, DefaultsAndErrors) {
  ParamMap p;
  p.set("a", 2.5);
  EXPECT_DOUBLE_EQ(p.get_real("a"), 2.5);
  EXPECT_DOUBLE_EQ(p.get_real("missing", 1.0), 1.0);
  EXPECT_THROW(p.get_real("missing"), Error);
  p.set("s", std::string("abc"));
  EXPECT_THROW(p.get_real("s"), Error);
  EXPECT_THROW(p.get_bool("s"), Error);
  EXPECT_THROW(ParamMap::parse("no equals sign"), Error);
  // Out-of-range values are named errors too, never std::out_of_range.
  p.set("mesh.nx", std::string("99999999999"));
  EXPECT_THROW(p.get_int("mesh.nx"), Error);
  p.set("case.Ra", std::string("1e400"));
  EXPECT_THROW(p.get_real("case.Ra"), Error);
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
