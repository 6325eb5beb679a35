#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "core/fcfs.h"
#include "sim/server.h"

namespace qos {
namespace {

Trace make_trace(std::initializer_list<Time> arrivals) {
  std::vector<Request> reqs;
  for (Time a : arrivals) reqs.push_back(Request{.arrival = a});
  return Trace(std::move(reqs));
}

TEST(Simulator, SingleRequestTimings) {
  Trace t = make_trace({1000});
  FcfsScheduler fcfs;
  ConstantRateServer server(100);  // 10 ms per request
  SimResult r = simulate(t, fcfs, server);
  ASSERT_EQ(r.completions.size(), 1u);
  EXPECT_EQ(r.completions[0].arrival, 1000);
  EXPECT_EQ(r.completions[0].start, 1000);
  EXPECT_EQ(r.completions[0].finish, 11'000);
}

TEST(Simulator, QueueingDelaysSecondRequest) {
  Trace t = make_trace({0, 0});
  FcfsScheduler fcfs;
  ConstantRateServer server(100);
  SimResult r = simulate(t, fcfs, server);
  ASSERT_EQ(r.completions.size(), 2u);
  EXPECT_EQ(r.completions[0].finish, 10'000);
  EXPECT_EQ(r.completions[1].start, 10'000);
  EXPECT_EQ(r.completions[1].finish, 20'000);
}

TEST(Simulator, IdleGapThenSecondBusyPeriod) {
  Trace t = make_trace({0, 1'000'000});
  FcfsScheduler fcfs;
  ConstantRateServer server(100);
  SimResult r = simulate(t, fcfs, server);
  EXPECT_EQ(r.completions[1].start, 1'000'000);
  EXPECT_EQ(r.completions[1].finish, 1'010'000);
}

TEST(Simulator, AllRequestsComplete) {
  std::vector<Request> reqs;
  for (int i = 0; i < 5000; ++i)
    reqs.push_back(Request{.arrival = (i % 997) * 1000});
  Trace t(std::move(reqs));
  FcfsScheduler fcfs;
  ConstantRateServer server(5000);
  SimResult r = simulate(t, fcfs, server);
  EXPECT_EQ(r.completions.size(), t.size());
  // Every seq appears exactly once.
  auto by_seq = r.by_seq();
  for (std::size_t i = 0; i < by_seq.size(); ++i)
    EXPECT_EQ(by_seq[i].seq, i);
}

TEST(Simulator, FcfsPreservesArrivalOrder) {
  Trace t = make_trace({0, 100, 200, 300});
  FcfsScheduler fcfs;
  ConstantRateServer server(1000);
  SimResult r = simulate(t, fcfs, server);
  for (std::size_t i = 1; i < r.completions.size(); ++i)
    EXPECT_GT(r.completions[i].finish, r.completions[i - 1].finish);
}

TEST(Simulator, ServiceNeverOverlapsOnOneServer) {
  Trace t = make_trace({0, 0, 0, 500, 500, 90'000});
  FcfsScheduler fcfs;
  ConstantRateServer server(37);
  SimResult r = simulate(t, fcfs, server);
  for (std::size_t i = 1; i < r.completions.size(); ++i)
    EXPECT_GE(r.completions[i].start, r.completions[i - 1].finish);
}

TEST(Simulator, StartNeverBeforeArrival) {
  Trace t = make_trace({0, 10, 20, 1'000'000});
  FcfsScheduler fcfs;
  ConstantRateServer server(50);
  SimResult r = simulate(t, fcfs, server);
  for (const auto& c : r.completions) EXPECT_GE(c.start, c.arrival);
}

TEST(Simulator, MakespanIsLastFinish) {
  Trace t = make_trace({0, 0});
  FcfsScheduler fcfs;
  ConstantRateServer server(100);
  SimResult r = simulate(t, fcfs, server);
  EXPECT_EQ(r.makespan(), 20'000);
}

TEST(Simulator, EmptyTrace) {
  Trace t;
  FcfsScheduler fcfs;
  ConstantRateServer server(100);
  SimResult r = simulate(t, fcfs, server);
  EXPECT_TRUE(r.completions.empty());
  EXPECT_EQ(r.makespan(), 0);
}

CompletionRecord rec(std::uint64_t seq, Time finish) {
  CompletionRecord c;
  c.seq = seq;
  c.finish = finish;
  return c;
}

TEST(SimResultBySeq, DuplicateSeqAborts) {
  SimResult r;
  r.completions = {rec(0, 10), rec(1, 20), rec(1, 30)};
  EXPECT_DEATH((void)r.by_seq(), "Invariant failed");
}

TEST(SimResultBySeq, OutOfRangeSeqAborts) {
  // Three completions but a seq of 5: some seq in [0,3) necessarily has no
  // completion, so the result would contain default-constructed holes.
  SimResult r;
  r.completions = {rec(0, 10), rec(1, 20), rec(5, 30)};
  EXPECT_DEATH((void)r.by_seq(), "Invariant failed");
}

// Hands every arrival to next_for twice: one arrival, two completions.
class DoubleDispatchScheduler final : public Scheduler {
 public:
  int server_count() const override { return 1; }
  void on_arrival(const Request& r, Time) override {
    queue_.push_back(r);
    queue_.push_back(r);
  }
  std::optional<Dispatch> next_for(int, Time) override {
    if (queue_.empty()) return std::nullopt;
    Dispatch d{.request = queue_.front()};
    queue_.erase(queue_.begin());
    return d;
  }

 private:
  std::vector<Request> queue_;
};

TEST(Simulator, SecondCompletionOfARequestAborts) {
  Trace t = make_trace({0, 1'000});
  DoubleDispatchScheduler twice;
  ConstantRateServer server(100);
  EXPECT_DEATH((void)simulate(t, twice, server),
               "Postcondition failed: "
               "result\\.completions\\.size\\(\\) == trace\\.size\\(\\)");
}

TEST(Simulator, WorkConservationAtFullLoad) {
  // Saturated server: busy time equals total service demand, so the last
  // finish is N / C after the first start.
  std::vector<Request> reqs;
  for (int i = 0; i < 1000; ++i) reqs.push_back(Request{.arrival = 0});
  Trace t(std::move(reqs));
  FcfsScheduler fcfs;
  ConstantRateServer server(250);  // 4 ms per request
  SimResult r = simulate(t, fcfs, server);
  EXPECT_EQ(r.makespan(), 4'000'000);
}

}  // namespace
}  // namespace qos
