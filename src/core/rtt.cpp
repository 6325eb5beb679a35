#include "core/rtt.h"

#include "obs/metrics.h"

namespace qos {

std::int64_t max_q1_slots(double capacity_iops, Time delta) {
  QOS_EXPECTS(capacity_iops > 0 && delta >= 0);
  // floor(C * delta) computed in double; values in practice are far below
  // 2^53 so the conversion is exact.
  return static_cast<std::int64_t>(capacity_iops * to_sec(delta));
}

namespace {

// The registry hooks are compiled in (or out) rather than branch-tested per
// request, so the unobserved instantiation stays the bare replay loop.  The
// capacity planner does not come through here: it needs only the admitted
// count (see rtt_admitted_count in core/capacity.h).
template <bool kObserved>
Decomposition decompose_loop(const Trace& trace, double capacity_iops,
                             Time delta, Counter* admitted, Counter* rejected,
                             OccupancySeries* q1_occ) {
  Decomposition d;
  d.klass.assign(trace.size(), ServiceClass::kOverflow);
  d.q1_finish.assign(trace.size(), kTimeMax);
  RttReplay replay(capacity_iops, delta, trace.size());
  for (const auto& r : trace) {
    if (replay.admit(r.arrival)) {
      d.klass[r.seq] = ServiceClass::kPrimary;
      d.q1_finish[r.seq] = replay.last_finish();
      ++d.admitted;
      if constexpr (kObserved) {
        admitted->add();
        q1_occ->update(r.arrival, replay.pending());
      }
    } else {
      if constexpr (kObserved) rejected->add();
    }
  }
  return d;
}

}  // namespace

Decomposition rtt_decompose(const Trace& trace, double capacity_iops,
                            Time delta, MetricRegistry* registry) {
  QOS_EXPECTS(capacity_iops > 0 && delta >= 0);
  if (registry == nullptr) {
    return decompose_loop<false>(trace, capacity_iops, delta, nullptr, nullptr,
                                 nullptr);
  }
  return decompose_loop<true>(trace, capacity_iops, delta,
                              &registry->counter("rtt.admitted"),
                              &registry->counter("rtt.rejected"),
                              &registry->occupancy("q1.occupancy"));
}

}  // namespace qos
