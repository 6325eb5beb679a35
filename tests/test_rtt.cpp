#include "core/rtt.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "curves/analysis.h"
#include "trace/generator.h"
#include "util/rng.h"
#include "util/service_timer.h"

namespace qos {
namespace {

Trace make_trace(std::initializer_list<Time> arrivals) {
  std::vector<Request> reqs;
  for (Time a : arrivals) reqs.push_back(Request{.arrival = a});
  return Trace(std::move(reqs));
}

// Maximum number of requests that can all meet their deadline, over every
// subsequence of the trace, served FIFO at integer-period capacity.
// Exponential: only for tiny traces.  Independent oracle for RTT optimality.
std::int64_t brute_force_max_feasible(const Trace& trace,
                                      double capacity_iops, Time delta) {
  const Time period = static_cast<Time>(1e6 / capacity_iops);
  EXPECT_EQ(static_cast<double>(period) * capacity_iops, 1e6)
      << "test requires integer service period";
  const std::size_t n = trace.size();
  std::int64_t best = 0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    Time prev_finish = 0;
    bool feasible = true;
    std::int64_t count = 0;
    for (std::size_t i = 0; i < n && feasible; ++i) {
      if (!(mask & (1u << i))) continue;
      const Time start = std::max(trace[i].arrival, prev_finish);
      const Time finish = start + period;
      if (finish > trace[i].arrival + delta) {
        feasible = false;
        break;
      }
      prev_finish = finish;
      ++count;
    }
    if (feasible) best = std::max(best, count);
  }
  return best;
}

TEST(MaxQ1Slots, FloorOfCapacityTimesDelta) {
  EXPECT_EQ(max_q1_slots(1000, 10'000), 10);   // 1000 IOPS * 10 ms
  EXPECT_EQ(max_q1_slots(417, 10'000), 4);     // floor(4.17)
  EXPECT_EQ(max_q1_slots(50, 10'000), 0);      // deadline shorter than slot
  EXPECT_EQ(max_q1_slots(100, 0), 0);
}

TEST(RttAdmission, AdmitsBelowLimit) {
  RttAdmission adm(1000, 10'000);  // maxQ1 = 10
  EXPECT_TRUE(adm.admit(0));
  EXPECT_TRUE(adm.admit(9));
  EXPECT_FALSE(adm.admit(10));
  EXPECT_FALSE(adm.admit(11));
}

TEST(RttDecompose, NoOverloadAdmitsEverything) {
  // 1 request per 10 ms at 1000 IOPS (1 ms service), delta 5 ms.
  std::vector<Request> reqs;
  for (int i = 0; i < 100; ++i) reqs.push_back(Request{.arrival = i * 10'000});
  Decomposition d = rtt_decompose(Trace(std::move(reqs)), 1000, 5'000);
  EXPECT_EQ(d.admitted, 100);
  EXPECT_EQ(d.dropped(), 0);
  EXPECT_DOUBLE_EQ(d.admitted_fraction(), 1.0);
}

TEST(RttDecompose, BurstOverflowsToQ2) {
  // 10 simultaneous requests; C = 1000 IOPS, delta = 5 ms => maxQ1 = 5.
  Trace t = make_trace({0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  Decomposition d = rtt_decompose(t, 1000, 5'000);
  EXPECT_EQ(d.admitted, 5);
  // The first five (in arrival order) are primary.
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_EQ(d.klass[i], ServiceClass::kPrimary);
  for (std::uint64_t i = 5; i < 10; ++i)
    EXPECT_EQ(d.klass[i], ServiceClass::kOverflow);
}

TEST(RttDecompose, SlotFreedByServiceReopens) {
  // maxQ1 = 1 (C = 100, delta = 10 ms).  Request at 0 occupies the slot
  // until 10 ms; request at 5 ms must overflow, request at 10 ms fits.
  Trace t = make_trace({0, 5'000, 10'000});
  Decomposition d = rtt_decompose(t, 100, 10'000);
  EXPECT_EQ(d.klass[0], ServiceClass::kPrimary);
  EXPECT_EQ(d.klass[1], ServiceClass::kOverflow);
  EXPECT_EQ(d.klass[2], ServiceClass::kPrimary);
}

TEST(RttDecompose, ZeroSlotsDivertsAll) {
  Trace t = make_trace({0, 1000});
  Decomposition d = rtt_decompose(t, 50, 10'000);  // maxQ1 = 0
  EXPECT_EQ(d.admitted, 0);
  EXPECT_DOUBLE_EQ(d.admitted_fraction(), 0.0);
}

TEST(RttDecompose, EmptyTrace) {
  Decomposition d = rtt_decompose(Trace(), 100, 10'000);
  EXPECT_EQ(d.admitted, 0);
  EXPECT_DOUBLE_EQ(d.admitted_fraction(), 1.0);
}

TEST(RttDecompose, AdmittedAlwaysMeetDeadline) {
  Trace t = generate_poisson(800, 20 * kUsPerSec, 123);
  const Time delta = 10'000;
  Decomposition d = rtt_decompose(t, 500, delta);
  for (const auto& r : t) {
    if (d.klass[r.seq] != ServiceClass::kPrimary) continue;
    EXPECT_LE(d.q1_finish[r.seq], r.arrival + delta)
        << "seq " << r.seq << " arrival " << r.arrival;
  }
}

TEST(RttDecompose, DropsAtLeastLowerBound) {
  Trace t = generate_poisson(2000, 5 * kUsPerSec, 7);
  const double c = 500;
  const Time delta = 20'000;
  Decomposition d = rtt_decompose(t, c, delta);
  EXPECT_GE(d.dropped(), mandatory_miss_lower_bound(t, c, delta));
}

struct OptimalityCase {
  std::uint64_t seed;
  double capacity;
  Time delta;
  Time horizon;
  double rate;
};

class RttOptimality : public ::testing::TestWithParam<OptimalityCase> {};

INSTANTIATE_TEST_SUITE_P(
    SmallRandomTraces, RttOptimality,
    ::testing::Values(
        OptimalityCase{1, 1000, 3'000, 12'000, 900},
        OptimalityCase{2, 1000, 3'000, 12'000, 900},
        OptimalityCase{3, 500, 4'000, 20'000, 600},
        OptimalityCase{4, 500, 4'000, 20'000, 600},
        OptimalityCase{5, 2000, 2'000, 6'000, 1800},
        OptimalityCase{6, 2000, 2'000, 6'000, 1800},
        OptimalityCase{7, 250, 8'000, 40'000, 300},
        OptimalityCase{8, 250, 8'000, 40'000, 300},
        OptimalityCase{9, 1000, 1'000, 12'000, 1200},
        OptimalityCase{10, 1000, 5'000, 12'000, 1500}));

TEST_P(RttOptimality, MatchesBruteForceOptimum) {
  const auto& param = GetParam();
  // Draw a small random trace (<= 14 requests) and compare RTT's admitted
  // count with the brute-force maximum feasible subsequence.
  Rng rng(param.seed);
  std::vector<Request> reqs;
  const auto count = static_cast<std::size_t>(rng.uniform_int(6, 14));
  for (std::size_t i = 0; i < count; ++i)
    reqs.push_back(Request{.arrival = rng.uniform_int(0, param.horizon)});
  Trace t(std::move(reqs));

  Decomposition d = rtt_decompose(t, param.capacity, param.delta);
  const std::int64_t opt =
      brute_force_max_feasible(t, param.capacity, param.delta);
  EXPECT_EQ(d.admitted, opt)
      << "RTT must admit a maximum feasible set (Lemmas 1-3)";
}

class RttOptimalityTied : public ::testing::TestWithParam<OptimalityCase> {};

INSTANTIATE_TEST_SUITE_P(
    TieHeavyTraces, RttOptimalityTied,
    ::testing::Values(OptimalityCase{11, 1000, 3'000, 12'000, 0},
                      OptimalityCase{12, 1000, 3'000, 12'000, 0},
                      OptimalityCase{13, 500, 4'000, 16'000, 0},
                      OptimalityCase{14, 500, 4'000, 16'000, 0},
                      OptimalityCase{15, 250, 8'000, 24'000, 0},
                      OptimalityCase{16, 2000, 2'000, 8'000, 0}));

TEST_P(RttOptimalityTied, MatchesBruteForceWithSimultaneousArrivals) {
  const auto& param = GetParam();
  // Arrivals snapped to a coarse grid so many requests share instants —
  // stresses the queue-census tie handling (completions before arrivals).
  Rng rng(param.seed);
  std::vector<Request> reqs;
  const auto count = static_cast<std::size_t>(rng.uniform_int(8, 13));
  const Time grid = 2'000;
  for (std::size_t i = 0; i < count; ++i) {
    const Time slot = rng.uniform_int(0, param.horizon / grid);
    reqs.push_back(Request{.arrival = slot * grid});
  }
  Trace t(std::move(reqs));
  Decomposition d = rtt_decompose(t, param.capacity, param.delta);
  EXPECT_EQ(d.admitted,
            brute_force_max_feasible(t, param.capacity, param.delta));
}

TEST(RttDecompose, FractionMonotoneInCapacity) {
  Trace t = generate_poisson(1000, 10 * kUsPerSec, 99);
  double prev = -1;
  for (double c : {100, 200, 400, 800, 1600, 3200}) {
    const double f = rtt_decompose(t, c, 10'000).admitted_fraction();
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

// The replay as first written: every admission's finish kept in an
// unbounded FIFO vector, drained by a moving index.  Frozen here as the
// oracle for the ring-backed RttReplay step.
Decomposition reference_decompose(const Trace& trace, double capacity_iops,
                                  Time delta) {
  const std::int64_t max_q1 = max_q1_slots(capacity_iops, delta);
  Decomposition d;
  d.klass.assign(trace.size(), ServiceClass::kOverflow);
  d.q1_finish.assign(trace.size(), kTimeMax);
  std::vector<Time> finish;
  std::size_t completed = 0;
  ServiceTimer timer(capacity_iops);
  Time last_finish = 0;
  for (const auto& r : trace) {
    while (completed < finish.size() && finish[completed] <= r.arrival)
      ++completed;
    if (static_cast<std::int64_t>(finish.size() - completed) < max_q1) {
      const Time start = std::max(r.arrival, last_finish);
      Time dur = timer.next();
      if (dur <= 0) dur = 1;
      last_finish = start + dur;
      finish.push_back(last_finish);
      d.klass[r.seq] = ServiceClass::kPrimary;
      d.q1_finish[r.seq] = last_finish;
      ++d.admitted;
    }
  }
  return d;
}

// Random arrivals in bursts: runs of equal timestamps (ties) separated by
// gaps from 0 to `max_gap` us.
Trace random_tied_trace(std::uint64_t seed, std::size_t n, Time max_gap) {
  Rng rng(seed);
  std::vector<Request> reqs;
  Time t = 0;
  while (reqs.size() < n) {
    t += rng.uniform_int(0, max_gap);
    const auto run = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t i = 0; i < run && reqs.size() < n; ++i)
      reqs.push_back(Request{.arrival = t});
  }
  return Trace(std::move(reqs));
}

TEST(RttReplay, RingMatchesUnboundedFifoReplay) {
  // Capacities span maxQ1 = 0, a ring far smaller than the trace, maxQ1 at
  // or above N, and sub-microsecond periods where the 1 us clamp governs.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace t = random_tied_trace(seed, 1500, 4000);
    for (double c : {50.0, 99.9, 100.0, 333.3, 1000.0, 4096.5, 1e5, 2e6,
                     3.7e6, 5e8}) {
      for (Time delta : {Time{1'000}, Time{10'000}, Time{50'000}}) {
        const Decomposition want = reference_decompose(t, c, delta);
        const Decomposition got = rtt_decompose(t, c, delta);
        ASSERT_EQ(got.admitted, want.admitted)
            << "seed " << seed << " C " << c << " delta " << delta;
        ASSERT_EQ(got.klass, want.klass);
        ASSERT_EQ(got.q1_finish, want.q1_finish);
      }
    }
  }
}

TEST(RttReplay, PendingNeverExceedsMaxQ1OrOffers) {
  const Trace t = random_tied_trace(17, 400, 50);
  RttReplay replay(800, 10'000, t.size());  // maxQ1 = 8
  EXPECT_EQ(replay.max_q1(), 8);
  std::int64_t offered = 0, admitted = 0;
  Time prev_finish = 0;
  for (const auto& r : t) {
    ++offered;
    if (replay.admit(r.arrival)) {
      ++admitted;
      EXPECT_GT(replay.last_finish(), prev_finish);  // FIFO finishes rise
      prev_finish = replay.last_finish();
    }
    EXPECT_LE(replay.pending(), std::min(replay.max_q1(), offered));
  }
  EXPECT_EQ(admitted, rtt_decompose(t, 800, 10'000).admitted);
}

TEST(RttReplay, SingleSlotRingAdmitsOneAtATime) {
  // maxQ1 = 1: each admission must finish before the next is admitted.
  RttReplay replay(100, 10'000, 4);
  EXPECT_TRUE(replay.admit(0));
  EXPECT_EQ(replay.last_finish(), 10'000);
  EXPECT_FALSE(replay.admit(9'999));
  EXPECT_TRUE(replay.admit(10'000));  // finish <= arrival drains
  EXPECT_EQ(replay.last_finish(), 20'000);
  EXPECT_EQ(replay.pending(), 1);
}

}  // namespace
}  // namespace qos
