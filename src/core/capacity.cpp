#include "core/capacity.h"

#include <algorithm>

#include "core/rtt.h"
#include "util/check.h"

namespace qos {

namespace {

std::vector<Time> arrival_times(const Trace& trace) {
  std::vector<Time> out;
  out.reserve(trace.size());
  for (const Request& r : trace) out.push_back(r.arrival);
  return out;
}

/// Decomposition::admitted_fraction() from the count alone.
double admitted_fraction(std::int64_t admitted, std::size_t n) {
  return n == 0 ? 1.0
                : static_cast<double>(admitted) / static_cast<double>(n);
}

CapacityResult min_capacity_of(std::span<const Time> arrivals,
                               double fraction, Time delta,
                               CapacityHint hint) {
  QOS_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  QOS_EXPECTS(delta > 0);
  QOS_EXPECTS(hint.infeasible_below >= 0);
  QOS_EXPECTS(hint.feasible_at >= 0);
  QOS_EXPECTS(hint.feasible_at == 0 ||
              hint.feasible_at > hint.infeasible_below);
  CapacityResult result;
  if (arrivals.empty()) {
    result.cmin_iops = 0;
    result.achieved_fraction = 1.0;
    return result;
  }

  // A capacity meets the target iff its admitted fraction is >= fraction
  // (exact comparison intended: the caller passes targets like 0.90 that
  // the ratio of integers must meet or exceed), i.e. iff at most `budget`
  // requests are rejected — so a probe stops at its verdict.
  const auto n = static_cast<std::int64_t>(arrivals.size());
  const std::int64_t budget = n - min_admitted_for(fraction, n);
  auto probe = [&](std::int64_t c) {
    return rtt_admitted_count(arrivals, static_cast<double>(c), delta, budget);
  };
  std::int64_t hi_admitted = -1;  // admitted count at hi, once hi is probed
  auto ok = [&](std::int64_t c) {
    ++result.probes;
    const std::optional<std::int64_t> admitted = probe(c);
    // Every feasible probe becomes the new hi, and feasible probes run to
    // the end, so this is the count achieved_fraction needs.
    if (admitted) hi_admitted = *admitted;
    return admitted.has_value();
  };

  bool verify = hint.verify;
#ifdef QOS_VERIFY_CAPACITY_HINTS
  verify = true;
#endif
  if (verify) {
    // Probe the asserted bounds outside the `ok` census so verification
    // never perturbs CapacityResult::probes (table outputs print it).
    if (hint.infeasible_below > 0)
      QOS_CHECK(!probe(hint.infeasible_below).has_value());
    if (hint.feasible_at > 0) QOS_CHECK(probe(hint.feasible_at).has_value());
  }

  std::int64_t lo = hint.infeasible_below;  // infeasible (or 0)
  std::int64_t hi;
  if (hint.feasible_at > 0) {
    hi = hint.feasible_at;  // bracket fully known: straight binary search
  } else {
    // Exponential doubling to bracket.  With no hint this probes 1, 2, 4,
    // ... exactly as the original unhinted search; with a lower bound it
    // starts just above it, so a warm start near the answer converges in
    // a couple of probes.
    hi = lo + 1;
    while (!ok(hi)) {
      lo = hi;
      hi *= 2;
      QOS_CHECK(hi < (1LL << 40));  // capacity explosion => logic error
    }
  }
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (ok(mid))
      hi = mid;
    else
      lo = mid;
  }
  result.cmin_iops = static_cast<double>(hi);
  // Only a hinted feasible_at that the search never re-probed lacks a count.
  if (hi_admitted < 0)
    hi_admitted = *rtt_admitted_count(arrivals, result.cmin_iops, delta);
  result.achieved_fraction = admitted_fraction(hi_admitted, arrivals.size());
  return result;
}

}  // namespace

std::optional<std::int64_t> rtt_admitted_count(std::span<const Time> arrivals,
                                               double capacity_iops,
                                               Time delta,
                                               std::int64_t reject_budget) {
  QOS_EXPECTS(reject_budget >= 0);
  const auto n = static_cast<std::int64_t>(arrivals.size());
  RttReplay replay(capacity_iops, delta, arrivals.size());
  // No Q1 slot at all (every probe below 1/delta IOPS): all are rejected.
  if (replay.max_q1() == 0)
    return n > reject_budget ? std::nullopt : std::optional<std::int64_t>(0);
  std::int64_t rejected = 0;
  for (Time arrival : arrivals)
    if (!replay.admit(arrival) && ++rejected > reject_budget)
      return std::nullopt;
  return n - rejected;
}

std::int64_t min_admitted_for(double fraction, std::int64_t n) {
  QOS_EXPECTS(n > 0);
  QOS_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  // double(a) / double(n) is non-decreasing in a and reaches 1.0 at a = n,
  // so bisect on the very expression the fraction test evaluates rather
  // than trusting ceil(fraction * n), which rounding can put one off.
  std::int64_t lo = -1, hi = n;  // lo fails (or is below range), hi passes
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) / static_cast<double>(n) >= fraction)
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

double fraction_guaranteed(const Trace& trace, double capacity_iops,
                           Time delta) {
  const std::vector<Time> arrivals = arrival_times(trace);
  return admitted_fraction(*rtt_admitted_count(arrivals, capacity_iops, delta),
                           arrivals.size());
}

double overflow_headroom_iops(Time delta) {
  QOS_EXPECTS(delta > 0);
  return 1e6 / static_cast<double>(delta);
}

std::vector<CapacityPoint> capacity_profile(const Trace& trace, Time delta,
                                            std::vector<double> fractions) {
  std::sort(fractions.begin(), fractions.end());
  std::vector<CapacityPoint> out;
  out.reserve(fractions.size());
  const std::vector<Time> arrivals = arrival_times(trace);
  CapacityHint hint;
  for (double f : fractions) {
    const CapacityResult r = min_capacity_of(arrivals, f, delta, hint);
    out.push_back({f, r.cmin_iops});
    // Cmin is non-decreasing in f, so this answer lower-bounds the next
    // (clamped: a zero Cmin, e.g. of an empty trace, bounds nothing).
    hint.infeasible_below =
        std::max<std::int64_t>(static_cast<std::int64_t>(r.cmin_iops) - 1, 0);
  }
  return out;
}

CapacityResult min_capacity(const Trace& trace, double fraction, Time delta,
                            CapacityHint hint) {
  return min_capacity_of(arrival_times(trace), fraction, delta, hint);
}

}  // namespace qos
