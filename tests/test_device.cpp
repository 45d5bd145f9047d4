// Tests for the device abstraction layer: streams (ordering, concurrency,
// wait semantics, task errors), backends (blocked dispatch, deterministic
// reductions, selection), per-thread workspaces and the trace recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/params.hpp"
#include "device/backend.hpp"
#include "device/stream.hpp"
#include "device/workspace.hpp"

namespace felis::device {
namespace {

TEST(StreamTest, TasksRunInSubmissionOrder) {
  Stream stream;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i)
    stream.submit([&order, i] { order.push_back(i); });
  stream.wait();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<usize>(i)], i);
}

TEST(StreamTest, WaitBlocksUntilAllDone) {
  Stream stream;
  std::atomic<int> done{0};
  for (int i = 0; i < 5; ++i)
    stream.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  stream.wait();
  EXPECT_EQ(done.load(), 5);
}

TEST(StreamTest, TwoStreamsRunConcurrently) {
  // Two tasks that rendezvous: they can only complete if they truly run on
  // different threads at the same time.
  Stream a, b;
  std::atomic<int> arrived{0};
  const auto rendezvous = [&arrived] {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::yield();
    }
  };
  a.submit(rendezvous);
  b.submit(rendezvous);
  a.wait();
  b.wait();
  EXPECT_EQ(arrived.load(), 2);
}

TEST(StreamTest, WaitRethrowsATaskErrorOnceAndLaterTasksStillRun) {
  Stream stream;
  int ran = 0;
  stream.submit([] { throw Error("task failed"); });
  stream.submit([] { throw Error("second failure"); });
  stream.submit([&ran] { ran = 1; });
  try {
    stream.wait();
    ADD_FAILURE() << "wait() swallowed the task's error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "task failed");  // the first error wins
  }
  EXPECT_EQ(ran, 1);
  EXPECT_NO_THROW(stream.wait());
  stream.submit([&ran] { ran = 2; });
  EXPECT_NO_THROW(stream.wait());
  EXPECT_EQ(ran, 2);
}

TEST(StreamTest, AnUncollectedErrorDiesWithItsStream) {
  // Nobody waits: the destructor drops the error instead of terminating.
  Stream stream;
  stream.submit([] { throw Error("never collected"); });
}

TEST(StreamTest, ReusableAfterWait) {
  Stream stream;
  int value = 0;
  stream.submit([&value] { value = 1; });
  stream.wait();
  stream.submit([&value] { value = 2; });
  stream.wait();
  EXPECT_EQ(value, 2);
}

TEST(BackendTest, SerialAndOpenMpCoverAllIndices) {
  SerialBackend serial;
  OpenMpBackend omp1(1), omp2(2), omp4(4);
  for (Backend* backend :
       std::initializer_list<Backend*>{&serial, &omp1, &omp2, &omp4}) {
    std::vector<std::atomic<int>> hits(257);
    backend->parallel_for(257, [&hits](lidx_t i) {
      hits[static_cast<usize>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << backend->name();
    EXPECT_FALSE(backend->name().empty());
    EXPECT_GE(backend->concurrency(), 1);
  }
  EXPECT_EQ(omp4.concurrency(), 4);
}

TEST(BackendTest, DefaultBackendIsUsable) {
  Backend& backend = default_backend();
  std::atomic<lidx_t> sum{0};
  backend.parallel_for(10, [&sum](lidx_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(BackendTest, PositiveGrainGivesExactBlockPartition) {
  // grain > 0 is a contract: every backend must produce exactly
  // ceil(n/grain) blocks with block b = [b*grain, min(n, (b+1)*grain)).
  SerialBackend serial;
  OpenMpBackend omp3(3);
  for (Backend* backend : std::initializer_list<Backend*>{&serial, &omp3}) {
    std::vector<std::pair<lidx_t, lidx_t>> blocks;
    std::mutex mutex;
    backend->parallel_for_blocked(10, /*grain=*/3,
                                  [&](lidx_t begin, lidx_t end, int worker) {
                                    EXPECT_GE(worker, 0);
                                    const std::lock_guard<std::mutex> lock(mutex);
                                    blocks.emplace_back(begin, end);
                                  });
    std::sort(blocks.begin(), blocks.end());
    ASSERT_EQ(blocks.size(), 4u) << backend->name();
    EXPECT_EQ(blocks[0], (std::pair<lidx_t, lidx_t>{0, 3}));
    EXPECT_EQ(blocks[1], (std::pair<lidx_t, lidx_t>{3, 6}));
    EXPECT_EQ(blocks[2], (std::pair<lidx_t, lidx_t>{6, 9}));
    EXPECT_EQ(blocks[3], (std::pair<lidx_t, lidx_t>{9, 10}));
  }
}

TEST(BackendTest, SingleWorkerAutoGrainIsOneChunk) {
  // grain <= 0 on the serial backend, or on a one-thread team, must collapse
  // to a single fn(0, n, 0) call — a dispatched kernel runs as one plain
  // loop, zero overhead.
  SerialBackend serial;
  OpenMpBackend omp1(1);
  for (Backend* backend : std::initializer_list<Backend*>{&serial, &omp1}) {
    for (const lidx_t grain : {0, -3}) {
      int calls = 0;
      backend->parallel_for_blocked(1000, grain,
                                    [&](lidx_t begin, lidx_t end, int worker) {
                                      ++calls;
                                      EXPECT_EQ(begin, 0);
                                      EXPECT_EQ(end, 1000);
                                      EXPECT_EQ(worker, 0);
                                    });
      EXPECT_EQ(calls, 1) << backend->name() << " grain=" << grain;
    }
  }
}

TEST(BackendTest, EmptyRangeNeverInvokesCallback) {
  SerialBackend serial;
  OpenMpBackend omp(2);
  for (Backend* backend : std::initializer_list<Backend*>{&serial, &omp}) {
    backend->parallel_for_blocked(0, 0, [](lidx_t, lidx_t, int) { FAIL(); });
    backend->parallel_for_blocked(0, 7, [](lidx_t, lidx_t, int) { FAIL(); });
    EXPECT_EQ(backend->reduce_sum(0, [](lidx_t, lidx_t) -> real_t {
      ADD_FAILURE();
      return 0;
    }), 0.0);
    EXPECT_EQ(backend->reduce_max(0, [](lidx_t, lidx_t) -> real_t {
      ADD_FAILURE();
      return 0;
    }), -std::numeric_limits<real_t>::infinity());
  }
}

TEST(BackendTest, ReduceSumBitwiseIdenticalAcrossBackends) {
  // The deterministic-reduction contract: identical bits for every backend
  // and thread count, because the block partition fixes the FP association.
  const lidx_t n = 3 * kReduceGrain + 517;  // several blocks plus a ragged tail
  RealVec x(static_cast<usize>(n));
  for (lidx_t i = 0; i < n; ++i)
    x[static_cast<usize>(i)] = std::sin(0.37 * static_cast<real_t>(i)) + 1e-14;
  const auto span = [&x](lidx_t begin, lidx_t end) {
    real_t s = 0;
    for (lidx_t i = begin; i < end; ++i) s += x[static_cast<usize>(i)];
    return s;
  };
  SerialBackend serial;
  const real_t expect = serial.reduce_sum(n, span);
  for (int threads : {1, 2, 3, 4}) {
    OpenMpBackend omp(threads);
    const real_t got = omp.reduce_sum(n, span);
    EXPECT_EQ(got, expect) << "threads=" << threads;  // bitwise, not NEAR
  }
}

TEST(BackendTest, MultiComponentReduceSumIsDeterministic) {
  const lidx_t n = 2 * kReduceGrain + 99;
  const auto fn = [](lidx_t begin, lidx_t end, real_t* acc) {
    for (lidx_t i = begin; i < end; ++i) {
      const real_t v = std::cos(0.11 * static_cast<real_t>(i));
      acc[0] += v;
      acc[1] += v * v;
      acc[2] += 1.0;
    }
  };
  SerialBackend serial;
  real_t expect[3];
  serial.reduce_sum(n, 3, expect, fn);
  EXPECT_EQ(expect[2], static_cast<real_t>(n));
  for (int threads : {1, 4}) {
    OpenMpBackend omp(threads);
    real_t got[3];
    omp.reduce_sum(n, 3, got, fn);
    for (int c = 0; c < 3; ++c) EXPECT_EQ(got[c], expect[c]) << "threads=" << threads;
  }
}

TEST(BackendTest, ReduceMaxFindsGlobalMaximum) {
  const lidx_t n = 5000;
  const auto span = [](lidx_t begin, lidx_t end) {
    real_t m = -std::numeric_limits<real_t>::infinity();
    for (lidx_t i = begin; i < end; ++i) {
      // Peak at i = 3791, negative everywhere else.
      m = std::max(m, i == 3791 ? real_t(2.5) : -1.0 - 1e-3 * i);
    }
    return m;
  };
  SerialBackend serial;
  OpenMpBackend omp(3);
  EXPECT_EQ(serial.reduce_max(n, span, /*grain=*/1), 2.5);
  EXPECT_EQ(omp.reduce_max(n, span, /*grain=*/1), 2.5);
  EXPECT_EQ(omp.reduce_max(n, span), 2.5);
}

TEST(BackendTest, SerialDispatchPropagatesExceptions) {
  // Parallel backends forbid throwing callbacks (an escaping exception in an
  // OpenMP region is fatal); the serial backend simply propagates.
  SerialBackend serial;
  EXPECT_THROW(serial.parallel_for_blocked(
                   4, 0, [](lidx_t, lidx_t, int) { throw Error("boom"); }),
               Error);
}

/// A case file naming `family` ("" leaves device.backend unset).
ParamMap backend_params(const std::string& family) {
  ParamMap params;
  if (!family.empty()) params.set("device.backend", family);
  return params;
}

/// Team selection with FELIS_BACKEND unset (restored afterwards), so an
/// absent device.backend key means auto.
class BackendTeams : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* env = std::getenv("FELIS_BACKEND")) saved_ = env;
    ::unsetenv("FELIS_BACKEND");
  }
  void TearDown() override {
    if (saved_)
      ::setenv("FELIS_BACKEND", saved_->c_str(), 1);
    else
      ::unsetenv("FELIS_BACKEND");
  }
  std::optional<std::string> saved_;
};

TEST_F(BackendTeams, FamilyAndTeamSizeTable) {
  // (device.backend, threads) -> (name, concurrency). An absent key is the
  // process default family, auto when FELIS_BACKEND is unset.
  struct Row {
    const char* family;
    int threads;
    const char* name;
    int concurrency;
  };
  for (const Row& row : {Row{"serial", 1, "serial", 1},
                         Row{"serial", 2, "serial", 1},
                         Row{"openmp", 1, "openmp", 1},
                         Row{"openmp", 2, "openmp", 2},
                         Row{"auto", 1, "serial", 1},
                         Row{"auto", 2, "openmp", 2},
                         Row{"", 1, "serial", 1},
                         Row{"", 2, "openmp", 2}}) {
    const Backend& backend = select_backend(backend_params(row.family), row.threads);
    EXPECT_EQ(backend.name(), row.name) << row.family << " x" << row.threads;
    EXPECT_EQ(backend.concurrency(), row.concurrency)
        << row.family << " x" << row.threads;
  }
  ::setenv("FELIS_BACKEND", "openmp", 1);
  EXPECT_EQ(select_backend(backend_params(""), 1).name(), "openmp");
  ::setenv("FELIS_BACKEND", "serial", 1);
  EXPECT_EQ(select_backend(backend_params(""), 2).name(), "serial");
}

TEST_F(BackendTeams, OneInstancePerFamilyAndTeamSize) {
  const ParamMap omp = backend_params("openmp");
  EXPECT_EQ(&select_backend(omp, 2), &select_backend(omp, 2));
  EXPECT_EQ(&select_backend(omp, 1), &select_backend(omp, 1));
  EXPECT_NE(&select_backend(omp, 1), &select_backend(omp, 2));
  EXPECT_EQ(&select_backend(backend_params("auto"), 2), &select_backend(omp, 2));
  EXPECT_EQ(&select_backend(backend_params("serial"), 1),
            &select_backend(backend_params("serial"), 2));
  // The whole process team is the team of process_threads() workers.
  EXPECT_EQ(&select_backend(omp), &select_backend(omp, process_threads()));
  EXPECT_EQ(select_backend(omp).concurrency(), process_threads());
  EXPECT_EQ(&default_backend(), &select_backend(ParamMap()));
}

TEST(BackendSelection, ByNameAndErrors) {
  EXPECT_EQ(select_backend(backend_params("serial")).name(), "serial");
  EXPECT_EQ(select_backend(backend_params("openmp")).name(), "openmp");
  EXPECT_NO_THROW(select_backend(backend_params("auto")));
  const auto message = [](const ParamMap& params, int threads) -> std::string {
    try {
      select_backend(params, threads);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_NE(message(backend_params("cuda"), 1).find("unknown device backend 'cuda'"),
            std::string::npos);
  EXPECT_NE(message(backend_params("cuda"), 1).find("serial|openmp|auto"),
            std::string::npos);
  for (const char* family : {"serial", "openmp", "auto"})
    EXPECT_NE(message(backend_params(family), 0).find("team of 0 threads"),
              std::string::npos)
        << family;
  EXPECT_THROW(OpenMpBackend(0), Error);
}

TEST(BackendSelection, EnvironmentVariableOverridesDefault) {
  ::setenv("FELIS_BACKEND", "serial", 1);
  EXPECT_EQ(default_backend().name(), "serial");
  ::setenv("FELIS_BACKEND", "openmp", 1);
  EXPECT_EQ(default_backend().name(), "openmp");
  ::unsetenv("FELIS_BACKEND");
  EXPECT_NO_THROW(default_backend());
}

TEST(BackendSelection, ParamsKeyWinsOverEnvironment) {
  ::setenv("FELIS_BACKEND", "openmp", 1);
  ParamMap params;
  params.set("device.backend", std::string("serial"));
  EXPECT_EQ(select_backend(params).name(), "serial");
  ::unsetenv("FELIS_BACKEND");
  ParamMap empty;
  EXPECT_NO_THROW(select_backend(empty));
}

TEST(Workspace, FramesReuseBuffersLifo) {
  Workspace& ws = Workspace::mine();
  {
    WorkspaceFrame frame;
    RealVec& a = frame.vec(100);
    RealVec& b = frame.vec(50);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(b.size(), 50u);
    EXPECT_NE(&a, &b);
    a[0] = 1.0;
    b[49] = 2.0;
    {
      WorkspaceFrame nested;
      RealVec& c = nested.vec(10);
      EXPECT_NE(&c, &a);
      EXPECT_NE(&c, &b);
      c[9] = 3.0;
    }
    EXPECT_EQ(ws.depth(), 2u);  // nested frame restored its mark
  }
  EXPECT_EQ(ws.depth(), 0u);
  const usize after_first = ws.buffers_allocated();
  // A second identical frame must not allocate new buffers.
  {
    WorkspaceFrame frame;
    frame.vec(100);
    frame.vec(50);
  }
  EXPECT_EQ(ws.buffers_allocated(), after_first);
}

TEST(Workspace, DistinctPerThread) {
  Workspace* main_ws = &Workspace::mine();
  Workspace* other_ws = nullptr;
  real_t seen = 0;
  std::thread t([&] {
    other_ws = &Workspace::mine();
    WorkspaceFrame frame;
    RealVec& v = frame.vec(8);
    v[0] = 42.0;
    seen = v[0];
  });
  t.join();
  EXPECT_NE(main_ws, other_ws);
  EXPECT_EQ(seen, 42.0);
}

TEST(Workspace, WorkersGetDisjointScratchUnderDispatch) {
  // The pattern every converted kernel uses: a frame per chunk callback.
  // Buffers handed to concurrently running chunks must never alias.
  OpenMpBackend omp(4);
  std::atomic<int> overlaps{0};
  std::mutex mutex;
  std::vector<RealVec*> live;
  omp.parallel_for_blocked(64, /*grain=*/1, [&](lidx_t begin, lidx_t end, int) {
    WorkspaceFrame frame;
    RealVec& scratch = frame.vec(256);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      for (RealVec* other : live)
        if (other == &scratch) overlaps.fetch_add(1);
      live.push_back(&scratch);
    }
    for (lidx_t i = begin; i < end; ++i)
      scratch[static_cast<usize>(i) % 256] = static_cast<real_t>(i);
    const std::lock_guard<std::mutex> lock(mutex);
    live.erase(std::find(live.begin(), live.end(), &scratch));
  });
  EXPECT_EQ(overlaps.load(), 0);
}

TEST(Trace, RecordsAndRenders) {
  TraceRecorder trace;
  trace.start();
  trace.timed(0, "schwarz", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  trace.record(1, "coarse", 0.0, 0.001);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "schwarz");
  EXPECT_GT(events[0].t_end, events[0].t_begin);
  const std::string timeline = trace.render(60);
  EXPECT_NE(timeline.find("stream 0"), std::string::npos);
  EXPECT_NE(timeline.find("stream 1"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace felis::device
