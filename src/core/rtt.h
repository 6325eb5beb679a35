// RTT decomposition (paper Algorithm 1, Section 3.1).
//
// RTT partitions an arrival stream into a primary class Q1 (guaranteed
// response time delta at capacity C) and an overflow class Q2.  A request is
// admitted to Q1 iff the number of pending Q1 requests (queued or in
// service) is below maxQ1 = floor(C * delta): any admitted request then
// completes within maxQ1 service slots of 1/C seconds each, i.e. within
// delta.  The paper proves RTT admits a maximum-cardinality deadline-feasible
// set among all online or offline partitioners (Lemmas 1-3); tests verify
// this against brute force and against the Lemma-1 lower bound.
//
// Three forms are provided:
//   * RttAdmission — the O(1) online admission test, embedded in the
//     recombination schedulers where lenQ1 reflects live service;
//   * RttReplay — one step of the analytic replay, assuming a dedicated
//     server of capacity C for Q1 (the model used for capacity planning,
//     paper Section 2.2; core/capacity.h counts admissions with it);
//   * rtt_decompose — that replay over a whole trace, keeping each
//     request's class and Q1 finish time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/completion.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/service_timer.h"
#include "util/time.h"

namespace qos {

/// Number of Q1 slots for capacity C (IOPS) and deadline delta (us).
std::int64_t max_q1_slots(double capacity_iops, Time delta);

/// O(1) online admission test.  The owner tracks lenQ1 (pending primary
/// requests including the one in service).
class RttAdmission {
 public:
  RttAdmission(double capacity_iops, Time delta)
      : max_q1_(max_q1_slots(capacity_iops, delta)) {}

  /// True iff a request arriving with `len_q1` pending primaries may join Q1.
  bool admit(std::int64_t len_q1) const { return len_q1 < max_q1_; }

  std::int64_t max_q1() const { return max_q1_; }

  /// Re-tighten (or relax) the bound to `max_q1` slots, e.g. when a
  /// capacity monitor observes the server delivering Ĉ < C and the Q1
  /// guarantee only holds for maxQ1 = Ĉ·δ (see fault/degraded_rtt.h).
  /// Already-admitted requests are unaffected; only future admits see the
  /// new bound.
  void set_max_q1(std::int64_t max_q1) {
    QOS_EXPECTS(max_q1 >= 0);
    max_q1_ = max_q1;
  }

 private:
  std::int64_t max_q1_;
};

/// One step of the analytic RTT replay: a dedicated capacity-C server that
/// drains its Q1 admissions in FIFO order.  Offer requests in arrival order;
/// a request is admitted iff fewer than maxQ1 earlier admissions are still
/// pending (finish > arrival).  Service slots come from one ServiceTimer
/// (a zero-length slot is clamped to 1 us), so finishes strictly increase
/// and the pending ones fit a ring of min(maxQ1, requests offered) slots.
/// rtt_decompose, multi_class_decompose and the capacity planner's
/// count-only probe all replay through this one step.
class RttReplay {
 public:
  /// At most `max_requests` requests may be offered (it sizes the ring).
  RttReplay(double capacity_iops, Time delta, std::size_t max_requests)
      : max_q1_(max_q1_slots(capacity_iops, delta)),
        timer_(capacity_iops),
        ring_(static_cast<std::size_t>(std::min<std::int64_t>(
            max_q1_, static_cast<std::int64_t>(max_requests)))) {}

  /// Offer the next request; true iff RTT admits it to Q1, in which case
  /// last_finish() is its completion instant.
  bool admit(Time arrival) {
    while (pending_ > 0 && ring_[head_] <= arrival) {
      if (++head_ == ring_.size()) head_ = 0;
      --pending_;
    }
    if (static_cast<std::int64_t>(pending_) >= max_q1_) return false;
    const Time start = std::max(arrival, last_finish_);
    Time dur = timer_.next();
    if (dur <= 0) dur = 1;
    last_finish_ = start + dur;
    std::size_t tail = head_ + pending_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = last_finish_;
    ++pending_;
    return true;
  }

  /// Admitted requests not yet finished as of the last offer, including it.
  std::int64_t pending() const { return static_cast<std::int64_t>(pending_); }
  Time last_finish() const { return last_finish_; }
  std::int64_t max_q1() const { return max_q1_; }

 private:
  std::int64_t max_q1_;
  ServiceTimer timer_;
  std::vector<Time> ring_;  ///< pending finishes, oldest at head_
  std::size_t head_ = 0;
  std::size_t pending_ = 0;
  Time last_finish_ = 0;  ///< finish of the most recently admitted request
};

/// Result of analytically replaying RTT over a trace with a dedicated
/// capacity-C server draining Q1 in FIFO order.
struct Decomposition {
  std::vector<ServiceClass> klass;  ///< indexed by request seq
  std::vector<Time> q1_finish;      ///< finish time per seq; kTimeMax for Q2
  std::int64_t admitted = 0;        ///< |Q1|

  std::int64_t total() const { return static_cast<std::int64_t>(klass.size()); }
  std::int64_t dropped() const { return total() - admitted; }
  double admitted_fraction() const {
    return total() == 0 ? 1.0
                        : static_cast<double>(admitted) /
                              static_cast<double>(total());
  }
};

class MetricRegistry;

/// Replay RTT over `trace` at dedicated capacity `capacity_iops` with
/// deadline `delta`.  O(N).  A non-null `registry` additionally accumulates
/// "rtt.admitted" / "rtt.rejected" counters and the time-weighted
/// "q1.occupancy" series of the analytic replay.
Decomposition rtt_decompose(const Trace& trace, double capacity_iops,
                            Time delta, MetricRegistry* registry = nullptr);

}  // namespace qos
