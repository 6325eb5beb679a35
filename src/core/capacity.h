// Capacity provisioning (paper Section 2.2).
//
// Given a response-time bound delta, find the minimum server capacity Cmin
// such that RTT guarantees fraction f of the workload meets its deadline.
// The paper performs a deterministic O(log C) binary search over capacity,
// evaluating the RTT-admitted fraction at each probe; we do the same on an
// integer IOPS grid.  Provision Cmin + dC with dC = 1/delta to prevent
// starvation of the overflow class (paper's experimentally sufficient value,
// and exactly the extra capacity that absorbs one in-flight overflow request
// per deadline window — see core/miser.h).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "trace/trace.h"
#include "util/time.h"

namespace qos {

struct CapacityResult {
  double cmin_iops = 0;       ///< least integer capacity meeting the target
  double achieved_fraction = 0;  ///< RTT fraction at cmin_iops
  int probes = 0;             ///< fraction evaluations performed
};

/// Caller-supplied bracket seed for min_capacity.  Both bounds are
/// optional; a default-constructed hint reproduces the unhinted search
/// probe for probe.
///
/// The guaranteed fraction is non-decreasing in capacity and Cmin is
/// non-decreasing in the target fraction, so a previous search's answer
/// brackets the next one: after cmin(f0) = c0, any search for f >= f0 may
/// assert `infeasible_below = c0 - 1`, and any search for f <= f1 with
/// known cmin(f1) = c1 may assert `feasible_at = c1`.  capacity_profile
/// threads exactly that hint through its ascending fractions, collapsing
/// most searches to a handful of probes (see CapacityResult::probes).
struct CapacityHint {
  /// Every integer capacity <= this is known infeasible (0 = no knowledge).
  std::int64_t infeasible_below = 0;
  /// This integer capacity is known feasible (0 = no knowledge).
  std::int64_t feasible_at = 0;
  /// Debug probe: re-evaluate both asserted bounds before trusting them and
  /// abort (QOS_CHECK) on a lying hint instead of returning an unspecified
  /// wrong answer.  Verification probes are not counted in
  /// CapacityResult::probes, so enabling this never changes reported
  /// results.  Building with -DQOS_VERIFY_CAPACITY_HINTS forces it on for
  /// every search regardless of this flag.
  bool verify = false;
};

/// Fraction of `trace` that RTT admits to Q1 (and hence guarantees) at
/// capacity `capacity_iops` with deadline `delta`.  Equals
/// rtt_decompose(trace, capacity_iops, delta).admitted_fraction(), computed
/// by the count-only replay below.
double fraction_guaranteed(const Trace& trace, double capacity_iops,
                           Time delta);

/// Count-only RTT replay, the kernel of every capacity probe: how many of
/// `arrivals` (non-decreasing) RTT admits to Q1 at capacity `capacity_iops`
/// with deadline `delta`, i.e. rtt_decompose(...).admitted without building
/// the per-request Decomposition.  Returns std::nullopt as soon as more
/// than `reject_budget` requests have been rejected, without reading the
/// rest of the trace.
std::optional<std::int64_t> rtt_admitted_count(
    std::span<const Time> arrivals, double capacity_iops, Time delta,
    std::int64_t reject_budget = std::numeric_limits<std::int64_t>::max());

/// The least admitted count `a` in [0, n] for which
/// double(a) / double(n) >= fraction — the exact integer form of the
/// planner's `admitted_fraction() >= fraction` test, so a probe may stop
/// once more than n - min_admitted_for(fraction, n) requests are rejected.
/// Requires n > 0 and fraction in [0, 1].
std::int64_t min_admitted_for(double fraction, std::int64_t n);

/// Binary-search the least integer capacity whose guaranteed fraction is
/// >= `fraction` (in [0, 1]).  `fraction == 1.0` demands zero overflow.
/// A wrong hint (claiming infeasible_below >= the true Cmin, or a
/// feasible_at that is not feasible) yields an unspecified wrong answer —
/// hints assert knowledge, they are not heuristics.  Set
/// `hint.verify` (or build with -DQOS_VERIFY_CAPACITY_HINTS) to check the
/// asserted bounds at entry and abort on a lie.
CapacityResult min_capacity(const Trace& trace, double fraction, Time delta,
                            CapacityHint hint = {});

/// The paper's overflow headroom dC = 1/delta, in IOPS.
double overflow_headroom_iops(Time delta);

/// One point of the capacity-QoS tradeoff curve (paper Section 4.1).
struct CapacityPoint {
  double fraction = 0;
  double cmin_iops = 0;
};

/// The knee curve: Cmin at each requested fraction (sorted ascending).
/// Defaults to the paper's Table 1 fractions.  Each search is warm-started
/// from the previous fraction's answer (monotonicity of Cmin in f); the
/// runner's parallel profile (runner/parallel_capacity.h) instead brackets
/// with the endpoint fractions so the middle searches run concurrently.
std::vector<CapacityPoint> capacity_profile(
    const Trace& trace, Time delta,
    std::vector<double> fractions = {0.90, 0.95, 0.99, 0.995, 0.999, 1.0});

}  // namespace qos
