// Tests for the communicator substrate: serial SelfComm, threads-as-ranks
// SimComm collectives (including rank-order, arrival-independent
// floating-point reductions) and point-to-point messaging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "comm/comm.hpp"

namespace felis::comm {
namespace {

TEST(SelfComm, TrivialCollectives) {
  SelfComm comm;
  EXPECT_EQ(comm.rank(), 0);
  EXPECT_EQ(comm.size(), 1);
  real_t v = 3.5;
  comm.allreduce(&v, 1, ReduceOp::kSum);
  EXPECT_DOUBLE_EQ(v, 3.5);
  const auto gathered = comm.allgatherv(std::vector<gidx_t>{1, 2, 3});
  ASSERT_EQ(gathered.size(), 1u);
  EXPECT_EQ(gathered[0], (std::vector<gidx_t>{1, 2, 3}));
}

TEST(SelfComm, SelfSendRoundTrip) {
  SelfComm comm;
  comm.send_vec(0, 7, std::vector<real_t>{1.5, 2.5});
  comm.send_vec(0, 9, std::vector<real_t>{9.0});
  // Tag matching out of order.
  EXPECT_EQ(comm.recv_vec<real_t>(0, 9), (std::vector<real_t>{9.0}));
  EXPECT_EQ(comm.recv_vec<real_t>(0, 7), (std::vector<real_t>{1.5, 2.5}));
  EXPECT_THROW(comm.recv_vec<real_t>(0, 7), Error);
}

class SimCommRanks : public ::testing::TestWithParam<int> {};

TEST_P(SimCommRanks, AllreduceSumMinMax) {
  const int nranks = GetParam();
  run_parallel(nranks, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), nranks);
    // Sum of ranks: R(R-1)/2.
    real_t v = static_cast<real_t>(comm.rank());
    comm.allreduce(&v, 1, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v, nranks * (nranks - 1) / 2.0);

    gidx_t mn = 100 + comm.rank();
    comm.allreduce(&mn, 1, ReduceOp::kMin);
    EXPECT_EQ(mn, 100);

    real_t mx = -static_cast<real_t>(comm.rank());
    comm.allreduce(&mx, 1, ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(mx, 0.0);
  });
}

TEST_P(SimCommRanks, RepeatedVectorAllreduceIsConsistent) {
  const int nranks = GetParam();
  run_parallel(nranks, [&](Communicator& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<real_t> v(5);
      for (usize i = 0; i < v.size(); ++i)
        v[i] = comm.rank() + static_cast<real_t>(i) + round;
      comm.allreduce(v.data(), v.size(), ReduceOp::kSum);
      for (usize i = 0; i < v.size(); ++i) {
        const real_t expect =
            nranks * (static_cast<real_t>(i) + round) + nranks * (nranks - 1) / 2.0;
        EXPECT_DOUBLE_EQ(v[i], expect);
      }
    }
  });
}

TEST_P(SimCommRanks, AllgathervPreservesRankOrderAndSizes) {
  const int nranks = GetParam();
  run_parallel(nranks, [&](Communicator& comm) {
    // Rank r contributes r+1 entries of value r.
    std::vector<gidx_t> mine(static_cast<usize>(comm.rank() + 1), comm.rank());
    const auto all = comm.allgatherv(mine);
    ASSERT_EQ(static_cast<int>(all.size()), nranks);
    for (int r = 0; r < nranks; ++r) {
      ASSERT_EQ(all[static_cast<usize>(r)].size(), static_cast<usize>(r + 1));
      for (const gidx_t v : all[static_cast<usize>(r)]) EXPECT_EQ(v, r);
    }
  });
}

TEST_P(SimCommRanks, RingExchange) {
  const int nranks = GetParam();
  if (nranks < 2) return;
  run_parallel(nranks, [&](Communicator& comm) {
    const int next = (comm.rank() + 1) % nranks;
    const int prev = (comm.rank() + nranks - 1) % nranks;
    comm.send_vec(next, 42, std::vector<real_t>{static_cast<real_t>(comm.rank())});
    const auto got = comm.recv_vec<real_t>(prev, 42);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_DOUBLE_EQ(got[0], static_cast<real_t>(prev));
  });
}

TEST_P(SimCommRanks, TagMatchingAcrossRanks) {
  const int nranks = GetParam();
  if (nranks < 2) return;
  run_parallel(nranks, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      // Send two differently-tagged messages to every other rank.
      for (int r = 1; r < nranks; ++r) {
        comm.send_vec(r, 1, std::vector<gidx_t>{111});
        comm.send_vec(r, 2, std::vector<gidx_t>{222});
      }
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      EXPECT_EQ(comm.recv_vec<gidx_t>(0, 2).at(0), 222);
      EXPECT_EQ(comm.recv_vec<gidx_t>(0, 1).at(0), 111);
    }
  });
}

TEST_P(SimCommRanks, BarrierOrdersPhases) {
  const int nranks = GetParam();
  std::atomic<int> phase_one{0};
  std::atomic<bool> violation{false};
  run_parallel(nranks, [&](Communicator& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    if (phase_one.load() != nranks) violation.store(true);
    comm.barrier();
  });
  EXPECT_FALSE(violation.load());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SimCommRanks, ::testing::Values(1, 2, 4, 7));

/// Sum one value per rank across a simulated world while forcing the order
/// in which ranks reach the allreduce: the rank at position k of `arrival`
/// sleeps k * 40 ms first. Returns every rank's result.
std::vector<real_t> staggered_sum(const std::vector<real_t>& values,
                                  const std::vector<int>& arrival) {
  const int nranks = static_cast<int>(values.size());
  std::vector<real_t> results(values.size());
  run_parallel(nranks, [&](Communicator& comm) {
    const auto position =
        std::find(arrival.begin(), arrival.end(), comm.rank()) - arrival.begin();
    std::this_thread::sleep_for(std::chrono::milliseconds(40 * position));
    real_t v = values[static_cast<usize>(comm.rank())];
    comm.allreduce(&v, 1, ReduceOp::kSum);
    results[static_cast<usize>(comm.rank())] = v;
  });
  return results;
}

TEST(SimCommRankOrder, AllreduceSumIsIndependentOfArrivalOrder) {
  // Rank order: (1e16 + 1) - 1e16 = 0, because 1e16 + 1 rounds to 1e16.
  // Combining in arrival order gives 1 for arrivals (0,2,1) and (2,0,1).
  const std::vector<real_t> values = {1e16, 1.0, -1e16};
  const real_t rank_order = (values[0] + values[1]) + values[2];
  ASSERT_EQ(rank_order, 0.0);
  std::vector<int> arrival = {0, 1, 2};
  do {
    for (const real_t r : staggered_sum(values, arrival))
      EXPECT_EQ(r, rank_order) << "arrival order " << arrival[0] << ","
                               << arrival[1] << "," << arrival[2];
  } while (std::next_permutation(arrival.begin(), arrival.end()));

  // Four ranks: rank order gives ((1e16 + 1) - 1e16) + 1 = 1; arrival order
  // (1,3,0,2) would give 2 and (3,2,1,0) would give 0.
  const std::vector<real_t> four = {1e16, 1.0, -1e16, 1.0};
  const real_t four_rank_order = ((four[0] + four[1]) + four[2]) + four[3];
  ASSERT_EQ(four_rank_order, 1.0);
  for (const std::vector<int>& order :
       {std::vector<int>{1, 3, 0, 2}, std::vector<int>{3, 2, 1, 0}})
    for (const real_t r : staggered_sum(four, order))
      EXPECT_EQ(r, four_rank_order)
          << "arrival order " << order[0] << "," << order[1] << ","
          << order[2] << "," << order[3];
}

TEST(RunParallel, PropagatesExceptions) {
  EXPECT_THROW(
      run_parallel(1, [](Communicator&) { throw Error("rank failure"); }), Error);
}

}  // namespace
}  // namespace felis::comm
