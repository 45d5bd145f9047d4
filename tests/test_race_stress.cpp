// Concurrency stress tests, designed to run under ThreadSanitizer
// (`cmake --preset tsan`): they hammer the subsystems where felis overlaps
// work — the thread-simulated MPI collectives, the two-phase gather-scatter
// on concurrent channels, device streams, the task-overlapped coarse-grid
// solve, and the snapshot-stream / async-POD producer-consumer handoff —
// with randomized interleavings. Under plain builds they still verify
// results, so logic bugs surface even without TSan.
//
// This binary is compiled with NDEBUG undefined regardless of build type
// (see tests/CMakeLists.txt), so it also hosts the debug-configuration
// FELIS_ASSERT tests: assertions must throw felis::Error, never abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "comm/comm.hpp"
#include "device/backend.hpp"
#include "device/stream.hpp"
#include "device/workspace.hpp"
#include "field/tensor.hpp"
#include "gs/gather_scatter.hpp"
#include "insitu/async_pod.hpp"
#include "linalg/matrix.hpp"
#include "mesh/hex_mesh.hpp"
#include "mesh/partition.hpp"
#include "precon/hsmg.hpp"

namespace felis {
namespace {

// Small random pause to shake out interleavings without slowing TSan runs.
void jitter(std::mt19937& rng) {
  std::uniform_int_distribution<int> d(0, 3);
  const int k = d(rng);
  if (k == 0) std::this_thread::yield();
  if (k == 1) std::this_thread::sleep_for(std::chrono::microseconds(d(rng)));
}

// ---- comm: barrier / allreduce / sendrecv / allgatherv ----------------------

TEST(CommStress, BarrierGenerationHammer) {
  // Each round every rank publishes its round number, meets at the barrier,
  // and then must observe every peer's value for the *same* round. A stale
  // generation counter or a lost wakeup shows up as a mismatched round (or,
  // under TSan, as a race on the slots).
  constexpr int kRanks = 4;
  constexpr int kRounds = 200;
  std::vector<int> slots(kRanks, -1);
  comm::run_parallel(kRanks, [&](comm::Communicator& comm) {
    std::mt19937 rng(static_cast<unsigned>(comm.rank()) * 7919u + 17u);
    for (int round = 0; round < kRounds; ++round) {
      slots[static_cast<usize>(comm.rank())] = round;
      jitter(rng);
      comm.barrier();
      for (int r = 0; r < kRanks; ++r)
        ASSERT_EQ(slots[static_cast<usize>(r)], round) << "rank " << comm.rank();
      comm.barrier();  // nobody advances to the next round's write early
    }
  });
}

TEST(CommStress, AllreduceHammerMixedOpsAndSizes) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 60;
  comm::run_parallel(kRanks, [&](comm::Communicator& comm) {
    std::mt19937 rng(static_cast<unsigned>(comm.rank()) * 31337u + 3u);
    for (int round = 0; round < kRounds; ++round) {
      const usize count = static_cast<usize>(1 + (round * 13) % 64);
      const comm::ReduceOp op = static_cast<comm::ReduceOp>(round % 3);
      RealVec v(count);
      for (usize i = 0; i < count; ++i)
        v[i] = static_cast<real_t>(comm.rank() + 1) *
               (static_cast<real_t>(i) + 1 + round);
      jitter(rng);
      comm.allreduce(v.data(), count, op);
      for (usize i = 0; i < count; ++i) {
        const real_t base = static_cast<real_t>(i) + 1 + round;
        real_t expect = 0;
        switch (op) {
          case comm::ReduceOp::kSum:
            expect = base * (kRanks * (kRanks + 1)) / 2.0;
            break;
          case comm::ReduceOp::kMin: expect = base; break;
          case comm::ReduceOp::kMax: expect = base * kRanks; break;
        }
        ASSERT_NEAR(v[i], expect, 1e-12) << "round " << round << " i " << i;
      }
    }
  });
}

TEST(CommStress, SendRecvAllToAllRandomOrder) {
  // Buffered all-to-all with per-round tags; each rank receives from its
  // peers in a randomly shuffled order, so matching must work out of order.
  constexpr int kRanks = 4;
  constexpr int kRounds = 50;
  comm::run_parallel(kRanks, [&](comm::Communicator& comm) {
    std::mt19937 rng(static_cast<unsigned>(comm.rank()) * 101u + 29u);
    for (int round = 0; round < kRounds; ++round) {
      for (int dst = 0; dst < kRanks; ++dst) {
        if (dst == comm.rank()) continue;
        std::vector<gidx_t> payload{
            static_cast<gidx_t>(comm.rank()), static_cast<gidx_t>(dst),
            static_cast<gidx_t>(round),
            static_cast<gidx_t>(comm.rank() * 1000 + dst * 10 + round)};
        comm.send_vec(dst, /*tag=*/round, payload);
      }
      std::vector<int> sources;
      for (int src = 0; src < kRanks; ++src)
        if (src != comm.rank()) sources.push_back(src);
      std::shuffle(sources.begin(), sources.end(), rng);
      for (const int src : sources) {
        jitter(rng);
        const auto payload = comm.recv_vec<gidx_t>(src, /*tag=*/round);
        ASSERT_EQ(payload.size(), 4u);
        EXPECT_EQ(payload[0], static_cast<gidx_t>(src));
        EXPECT_EQ(payload[1], static_cast<gidx_t>(comm.rank()));
        EXPECT_EQ(payload[2], static_cast<gidx_t>(round));
        EXPECT_EQ(payload[3],
                  static_cast<gidx_t>(src * 1000 + comm.rank() * 10 + round));
      }
    }
  });
}

TEST(CommStress, AllgathervVariableLengthBlobs) {
  constexpr int kRanks = 3;
  constexpr int kRounds = 40;
  comm::run_parallel(kRanks, [&](comm::Communicator& comm) {
    std::mt19937 rng(static_cast<unsigned>(comm.rank()) * 577u + 7u);
    for (int round = 0; round < kRounds; ++round) {
      const usize len = static_cast<usize>((comm.rank() + 1) * (round % 5 + 1));
      std::vector<gidx_t> mine(len);
      for (usize i = 0; i < len; ++i)
        mine[i] = static_cast<gidx_t>(comm.rank() * 100000 + round * 100 +
                                      static_cast<gidx_t>(i));
      jitter(rng);
      const auto all = comm.allgatherv(mine);
      ASSERT_EQ(all.size(), static_cast<usize>(kRanks));
      for (int r = 0; r < kRanks; ++r) {
        const auto& blob = all[static_cast<usize>(r)];
        ASSERT_EQ(blob.size(), static_cast<usize>((r + 1) * (round % 5 + 1)));
        for (usize i = 0; i < blob.size(); ++i)
          ASSERT_EQ(blob[i], static_cast<gidx_t>(r * 100000 + round * 100 +
                                                 static_cast<gidx_t>(i)));
      }
    }
  });
}

// ---- gather-scatter on concurrent channels ----------------------------------

/// Dense reference: combine all values with equal global id (kAdd).
RealVec reference_gs_add(const std::vector<gidx_t>& ids, const RealVec& field) {
  std::map<gidx_t, real_t> sum;
  for (usize i = 0; i < ids.size(); ++i) sum[ids[i]] += field[i];
  RealVec out(field.size());
  for (usize i = 0; i < ids.size(); ++i) out[i] = sum[ids[i]];
  return out;
}

TEST(GsStress, ConcurrentChannelsFromTwoThreadsPerRank) {
  // The task-overlapped preconditioner (§5.3) runs the coarse-grid GS on a
  // stream thread while the fine GS runs on the rank's thread. Reproduce the
  // pattern raw: per rank, two threads apply two GatherScatter instances on
  // distinct channels concurrently, many rounds, each verifying against a
  // serial dense reference.
  constexpr int kRanks = 3;
  constexpr int kRounds = 25;
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  const auto fine_locals = mesh::distribute_mesh(mesh, /*degree=*/3, kRanks);
  const auto coarse_locals = mesh::distribute_mesh(mesh, /*degree=*/1, kRanks);

  // Serial references over the undistributed meshes.
  const auto fine_serial = mesh::distribute_mesh(mesh, 3, 1).front();
  const auto coarse_serial = mesh::distribute_mesh(mesh, 1, 1).front();
  const auto make_field = [](const mesh::LocalMesh& lm) {
    RealVec f(static_cast<usize>(lm.num_local_dofs()));
    const lidx_t npe = lm.nodes_per_element();
    for (lidx_t e = 0; e < lm.num_elements(); ++e)
      for (lidx_t q = 0; q < npe; ++q)
        f[static_cast<usize>(e * npe + q)] = std::sin(
            0.31 * static_cast<real_t>(lm.element_gids[static_cast<usize>(e)] *
                                           npe +
                                       q));
    return f;
  };
  const RealVec fine_ref =
      reference_gs_add(fine_serial.node_ids, make_field(fine_serial));
  const RealVec coarse_ref =
      reference_gs_add(coarse_serial.node_ids, make_field(coarse_serial));

  comm::run_parallel(kRanks, [&](comm::Communicator& comm) {
    const mesh::LocalMesh& flm = fine_locals[static_cast<usize>(comm.rank())];
    const mesh::LocalMesh& clm = coarse_locals[static_cast<usize>(comm.rank())];
    // Collective constructions happen in the same order on every rank,
    // before any concurrency starts.
    const gs::GatherScatter fine_gs(flm, comm, /*channel=*/0);
    const gs::GatherScatter coarse_gs(clm, comm, /*channel=*/1);
    comm.barrier();

    const auto hammer = [&](const gs::GatherScatter& gsop,
                            const mesh::LocalMesh& lm, const RealVec& ref,
                            unsigned seed) {
      std::mt19937 rng(seed);
      const lidx_t npe = lm.nodes_per_element();
      for (int round = 0; round < kRounds; ++round) {
        const real_t scale = 1 + 0.5 * round;
        RealVec f = make_field(lm);
        for (real_t& x : f) x *= scale;
        jitter(rng);
        gsop.apply(f, gs::GsOp::kAdd);
        for (lidx_t e = 0; e < lm.num_elements(); ++e) {
          const gidx_t ge = lm.element_gids[static_cast<usize>(e)];
          for (lidx_t q = 0; q < npe; ++q)
            ASSERT_NEAR(f[static_cast<usize>(e * npe + q)],
                        scale * ref[static_cast<usize>(
                                    ge * npe + static_cast<gidx_t>(q))],
                        1e-11 * scale);
        }
      }
    };

    std::thread coarse_thread([&] {
      hammer(coarse_gs, clm, coarse_ref,
             static_cast<unsigned>(comm.rank()) * 13u + 5u);
    });
    hammer(fine_gs, flm, fine_ref, static_cast<unsigned>(comm.rank()) * 17u + 3u);
    coarse_thread.join();
    comm.barrier();
  });
}

// ---- device streams ---------------------------------------------------------

TEST(StreamStress, ManyProducersRandomStreamsAndWaits) {
  constexpr int kStreams = 4;
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 100;
  std::vector<std::unique_ptr<device::Stream>> streams;
  for (int s = 0; s < kStreams; ++s)
    streams.push_back(std::make_unique<device::Stream>());
  std::atomic<long> sum{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(static_cast<unsigned>(p) * 271u + 11u);
      std::uniform_int_distribution<int> pick(0, kStreams - 1);
      for (int t = 0; t < kTasksPerProducer; ++t) {
        const int s = pick(rng);
        streams[static_cast<usize>(s)]->submit([&sum] { sum.fetch_add(1); });
        // Occasionally synchronize mid-stream from a producer thread, the
        // way the solver waits on the coarse stream mid-iteration.
        if (t % 17 == 0) streams[static_cast<usize>(s)]->wait();
        jitter(rng);
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& s : streams) s->wait();
  EXPECT_EQ(sum.load(), static_cast<long>(kProducers) * kTasksPerProducer);
}

TEST(StreamStress, OrderingHoldsPerStreamUnderConcurrentSubmission) {
  // Two threads submit tagged tasks to the same stream; within-stream order
  // must match overall submission order (the queue is the synchronization
  // point), and the shared log must never tear.
  device::Stream stream;
  std::vector<int> log;
  std::mutex submit_mutex;  // serializes the submit+append pair, not the task
  int next_tag = 0;
  std::vector<int> submitted;
  auto producer = [&](unsigned seed) {
    std::mt19937 rng(seed);
    for (int i = 0; i < 80; ++i) {
      std::lock_guard<std::mutex> lock(submit_mutex);
      const int tag = next_tag++;
      submitted.push_back(tag);
      stream.submit([&log, tag] { log.push_back(tag); });
      jitter(rng);
    }
  };
  std::thread a(producer, 1u), b(producer, 2u);
  a.join();
  b.join();
  stream.wait();
  ASSERT_EQ(log.size(), submitted.size());
  EXPECT_EQ(log, submitted);
}

TEST(StreamStress, TraceRecorderSharedAcrossStreams) {
  // TraceRecorder::now() used to read t0_ without the lock while start()
  // rewrote it — exactly this pattern, two streams tracing concurrently.
  device::TraceRecorder trace;
  for (int round = 0; round < 5; ++round) {
    trace.start();
    device::Stream coarse, fine;
    std::atomic<int> done{0};
    for (int i = 0; i < 20; ++i) {
      coarse.submit([&] {
        trace.timed(1, "coarse", [&] { done.fetch_add(1); });
      });
      fine.submit([&] {
        trace.timed(0, "fine", [&] { done.fetch_add(1); });
      });
    }
    coarse.wait();
    fine.wait();
    EXPECT_EQ(done.load(), 40);
    EXPECT_EQ(trace.events().size(), 40u);
    EXPECT_FALSE(trace.render().empty());
  }
}

// ---- overlapped coarse-grid solve -------------------------------------------

TEST(OverlapStress, TaskParallelHsmgMatchesSerialUnderRepetition) {
  // Multi-rank task-overlapped preconditioner: the coarse CG (with its
  // allreduces) runs on each rank's coarse stream while the fine smoother
  // (with its gather-scatter) runs on the rank thread. The overlapped result
  // must equal the serial one on every repetition.
  constexpr int kRanks = 2;
  constexpr int kReps = 8;
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  // The OpenMP backend inside the overlapped preconditioner is the hardest
  // concurrency case in the code: the fine smoother dispatches chunks on the
  // team from the rank thread while the coarse solve runs serially on the
  // stream thread, each pulling scratch from its own OS-thread workspace.
  device::OpenMpBackend omp(2);
  comm::run_parallel(kRanks, [&](comm::Communicator& comm) {
    auto fine =
        operators::make_rank_setup(mesh, /*degree=*/4, comm, false, true, &omp);
    auto coarse = precon::make_coarse_setup(mesh, comm);
    const operators::Context fctx = fine.ctx();
    const operators::Context cctx = coarse.ctx();
    RealVec r(fctx.num_dofs());
    for (usize i = 0; i < r.size(); ++i)
      r[i] = std::cos(M_PI * fctx.coef->x[i]) * std::sin(M_PI * fctx.coef->y[i]);
    fctx.gs->apply(r, gs::GsOp::kAdd);

    precon::HsmgPrecon serial(fctx, cctx, precon::OverlapMode::kSerial);
    precon::HsmgPrecon overlapped(fctx, cctx, precon::OverlapMode::kTaskParallel);
    RealVec z_serial, z_overlap;
    serial.apply(r, z_serial);
    for (int rep = 0; rep < kReps; ++rep) {
      overlapped.apply(r, z_overlap);
      ASSERT_EQ(z_overlap.size(), z_serial.size());
      for (usize i = 0; i < z_serial.size(); ++i)
        ASSERT_NEAR(z_overlap[i], z_serial[i], 1e-13)
            << "rep " << rep << " rank " << comm.rank();
    }
  });
}

// ---- backend-dispatched kernels / per-thread workspaces ---------------------

TEST(KernelStress, SharedAdvectorConcurrentApplyMatchesSerial) {
  // The historical race: Advector::apply used mutable member scratch, so two
  // threads applying the SAME instance corrupted each other. Scratch now
  // comes from the per-thread device::Workspace; concurrent apply() calls on
  // one instance must be clean under TSan and agree with a serial reference.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  comm::SelfComm comm;
  device::OpenMpBackend omp(2);
  auto setup = operators::make_rank_setup(mesh, /*degree=*/4, comm,
                                          /*dealias=*/true, true, &omp);
  const operators::Context ctx = setup.ctx();
  const usize nd = ctx.num_dofs();
  RealVec cx(nd), cy(nd), cz(nd), u(nd);
  for (usize i = 0; i < nd; ++i) {
    cx[i] = std::sin(0.5 * ctx.coef->x[i]);
    cy[i] = std::cos(0.3 * ctx.coef->y[i]);
    cz[i] = 0.2 * ctx.coef->z[i];
    u[i] = std::sin(ctx.coef->x[i] + ctx.coef->y[i]);
  }
  operators::Advector adv(ctx);
  adv.set_velocity(cx, cy, cz);
  RealVec ref(nd, 0.0);
  adv.apply(u, ref, -1.0);

  constexpr int kThreads = 3;
  constexpr int kReps = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 131u + 7u);
      RealVec out(nd);
      for (int rep = 0; rep < kReps; ++rep) {
        std::fill(out.begin(), out.end(), 0.0);
        jitter(rng);
        adv.apply(u, out, -1.0);
        for (usize i = 0; i < nd; ++i)
          ASSERT_EQ(out[i], ref[i]) << "thread " << t << " rep " << rep;
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(KernelStress, AxHelmholtzUnderOpenMpBackendMatchesSerial) {
  // The same kernel dispatched through serial and multi-threaded backends,
  // hammered from concurrent caller threads: workspace frames must hand every
  // chunk disjoint scratch (TSan verifies), results must be bitwise equal.
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = mesh::make_box_mesh(cfg);
  comm::SelfComm comm;
  device::SerialBackend serial;
  device::OpenMpBackend omp(4);
  auto s_setup = operators::make_rank_setup(mesh, 5, comm, false, true, &serial);
  auto p_setup = operators::make_rank_setup(mesh, 5, comm, false, true, &omp);
  const operators::Context sc = s_setup.ctx(), pc = p_setup.ctx();
  const usize nd = sc.num_dofs();
  RealVec u(nd);
  for (usize i = 0; i < nd; ++i)
    u[i] = std::cos(1.7 * sc.coef->x[i]) * sc.coef->z[i];
  RealVec ref(nd);
  operators::ax_helmholtz(sc, u, ref, 1.1, 0.3);

  constexpr int kThreads = 2;
  constexpr int kReps = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 53u + 11u);
      RealVec out(nd);
      for (int rep = 0; rep < kReps; ++rep) {
        jitter(rng);
        operators::ax_helmholtz(pc, u, out, 1.1, 0.3);
        for (usize i = 0; i < nd; ++i)
          ASSERT_EQ(out[i], ref[i]) << "thread " << t << " rep " << rep;
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(KernelStress, WorkspaceFramesNestAcrossConcurrentDispatch) {
  // Nested frames (kernel calling kernel) on many OS threads at once: each
  // thread's LIFO arena must stay private and restore cleanly.
  device::OpenMpBackend omp(4);
  constexpr int kOuter = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kOuter; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 50; ++rep) {
        omp.parallel_for_blocked(64, /*grain=*/4,
                                 [&](lidx_t begin, lidx_t end, int /*worker*/) {
                                   device::WorkspaceFrame outer;
                                   RealVec& a = outer.vec(64);
                                   for (lidx_t i = begin; i < end; ++i)
                                     a[static_cast<usize>(i)] =
                                         static_cast<real_t>(i);
                                   device::WorkspaceFrame inner;
                                   RealVec& b = inner.vec(32);
                                   b[0] = a[static_cast<usize>(begin)];
                                   ASSERT_NE(&a, &b);
                                   for (lidx_t i = begin; i < end; ++i)
                                     ASSERT_EQ(a[static_cast<usize>(i)],
                                               static_cast<real_t>(i));
                                 });
        ASSERT_EQ(device::Workspace::mine().depth(), 0u);
      }
    });
  }
  for (auto& t : threads) t.join();
}

// ---- in-situ snapshot stream / async POD ------------------------------------

TEST(InsituStress, ManyProducersManyConsumersDrainExactly) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 120;
  insitu::SnapshotStream stream(/*capacity=*/4);
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};
  std::atomic<long> checksum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::mt19937 rng(static_cast<unsigned>(p) * 41u + 1u);
      for (int i = 0; i < kPerProducer; ++i) {
        RealVec snap{static_cast<real_t>(p), static_cast<real_t>(i)};
        jitter(rng);
        ASSERT_TRUE(stream.push(std::move(snap)));
        produced.fetch_add(1);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto snap = stream.pop()) {
        ASSERT_EQ(snap->size(), 2u);
        checksum.fetch_add(static_cast<long>((*snap)[0]) * kPerProducer +
                           static_cast<long>((*snap)[1]));
        consumed.fetch_add(1);
      }
    });
  }
  // Join producers (first kProducers threads), then close; consumers drain.
  for (int p = 0; p < kProducers; ++p) threads[static_cast<usize>(p)].join();
  stream.close();
  for (int c = 0; c < kConsumers; ++c)
    threads[static_cast<usize>(kProducers + c)].join();

  EXPECT_EQ(produced.load(), kProducers * kPerProducer);
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  long expect = 0;
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kPerProducer; ++i)
      expect += static_cast<long>(p) * kPerProducer + i;
  EXPECT_EQ(checksum.load(), expect);
}

TEST(InsituStress, PodDrainsWhileSolverPushes) {
  // The §5.2 pipeline: solver pushes snapshots through a small bounded queue
  // (back-pressure!) while AsyncPod's consumer thread folds them into the
  // incremental SVD concurrently.
  constexpr usize kN = 24;
  constexpr int kSnapshots = 80;
  insitu::SnapshotStream stream(/*capacity=*/2);
  insitu::AsyncPod async(stream, RealVec(kN, 1.0), /*max_rank=*/6);
  std::mt19937 rng(123);
  for (int s = 0; s < kSnapshots; ++s) {
    RealVec snap(kN);
    for (usize i = 0; i < kN; ++i)
      snap[i] = std::sin(0.1 * static_cast<real_t>(s) +
                         0.4 * static_cast<real_t>(i)) +
                0.01 * static_cast<real_t>(s % 7);
    jitter(rng);
    ASSERT_TRUE(stream.push(std::move(snap)));
  }
  insitu::StreamingPod& pod = async.finish();
  EXPECT_EQ(pod.snapshot_count(), static_cast<usize>(kSnapshots));
  EXPECT_GT(pod.rank(), 0u);
  // After finish() no further pushes are accepted.
  EXPECT_FALSE(stream.push(RealVec(kN, 0.0)));
}

TEST(InsituStress, CloseRacesWithPushAndPop) {
  // close() may arrive while producers are blocked on a full queue and
  // consumers on an empty one; everyone must wake and terminate cleanly.
  for (int round = 0; round < 20; ++round) {
    insitu::SnapshotStream stream(/*capacity=*/1);
    std::thread producer([&] {
      int pushed = 0;
      while (stream.push(RealVec{1.0})) {
        if (++pushed > 10000) break;  // close() lost: fail via assert below
      }
      EXPECT_LE(pushed, 10000);
    });
    std::thread consumer([&] {
      std::mt19937 rng(static_cast<unsigned>(round));
      int popped = 0;
      while (popped < 3 + round % 4 && stream.pop()) {
        ++popped;
        jitter(rng);
      }
    });
    consumer.join();
    stream.close();
    producer.join();
    EXPECT_TRUE(stream.closed());
  }
}

// ---- debug-configuration assertion semantics --------------------------------
// NDEBUG is force-undefined for this binary, so FELIS_ASSERT is always live
// here; these tests prove assertions throw felis::Error and never abort.

TEST(DebugAssert, AssertIsLiveAndThrowsError) {
#ifdef NDEBUG
  FAIL() << "test_race_stress must be built with NDEBUG undefined";
#endif
  EXPECT_NO_THROW(FELIS_ASSERT(2 + 2 == 4));
  EXPECT_THROW(FELIS_ASSERT(2 + 2 == 5), Error);
  try {
    FELIS_ASSERT_MSG(false, "ctx " << 7 << "/" << 9);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ctx 7/9"), std::string::npos);
    EXPECT_NE(what.find("felis check failed"), std::string::npos);
  }
}

TEST(DebugAssert, MatrixAccessorsBoundsCheckedWithoutAbort) {
  linalg::Matrix m(3, 2);
  EXPECT_NO_THROW(m(2, 1));
  EXPECT_THROW(m(3, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
  EXPECT_THROW(m(-1, 0), Error);
  const linalg::Matrix& cm = m;
  EXPECT_THROW(cm(0, -1), Error);
  EXPECT_THROW(m.col(2), Error);
  EXPECT_NO_THROW(m.col(1));
}

TEST(DebugAssert, TensorKernelsRejectMalformedOperators) {
  field::Op1D op;
  op.rows = 3;
  op.cols = 3;
  op.a.assign(4, 1.0);  // too small for 3x3
  RealVec u(27, 1.0), out(27, 0.0);
  EXPECT_THROW(field::apply_axis0(op, u.data(), out.data(), 3, 3), Error);
  EXPECT_THROW(field::apply_axis1(op, u.data(), out.data(), 3, 3), Error);
  EXPECT_THROW(field::apply_axis2(op, u.data(), out.data(), 3, 3), Error);

  op.a.assign(9, 1.0);
  EXPECT_NO_THROW(field::apply_axis0(op, u.data(), out.data(), 3, 3));
  EXPECT_THROW(op(3, 0), Error);
  EXPECT_THROW(op(0, 3), Error);
  EXPECT_DOUBLE_EQ(op(2, 2), 1.0);

  RealVec ur(27), us(27), ut(27);
  field::Op1D d2;
  d2.rows = d2.cols = 2;
  d2.a.assign(4, 1.0);
  // Operator order (2) disagrees with the element order (3).
  EXPECT_THROW(field::grad_ref(d2, u.data(), ur.data(), us.data(), ut.data(), 3),
               Error);
  RealVec work(64);
  // interp3 expects op m×n with m=2, n=3; a 2x2 op must be rejected.
  EXPECT_THROW(field::interp3(d2, u.data(), out.data(), work.data(), 3, 2),
               Error);
}

}  // namespace
}  // namespace felis
