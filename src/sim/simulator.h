// Deterministic event-driven simulation of a trace through a scheduler.
//
// The engine replaces the role DiskSim plays in the paper: it delivers
// arrivals to the scheduler at trace timestamps, asks the scheduler for work
// whenever a server is idle, and records exact start/finish times per
// request.  Single-threaded and fully deterministic: events are ordered by
// (time, kind, sequence) with completions before arrivals at equal times.
// Completions live in an indexed min-heap keyed by (finish, server index)
// and dispatch offers walk an idle-server free list, so each event costs
// O(log servers) instead of a scan over every slot; equal-time completions
// still retire in server-index order (the heap's tie-break).
#pragma once

#include <span>
#include <vector>

#include "sim/completion.h"
#include "sim/scheduler.h"
#include "sim/server.h"
#include "trace/trace.h"

namespace qos {

struct SimResult {
  std::vector<CompletionRecord> completions;  ///< in finish order

  /// Completions indexed by request seq (same size as the input trace).
  /// Every request completes exactly once, so each seq in [0, size) has
  /// one record; a duplicate or out-of-range seq is an invariant
  /// violation, not silently aliased.
  std::vector<CompletionRecord> by_seq() const;

  /// Latest finish instant (0 for empty results).
  Time makespan() const;
};

/// Run `trace` through `scheduler`, with `servers[i]` backing scheduler
/// server index i.  `servers.size()` must equal scheduler.server_count().
/// Every request the scheduler eventually dispatches is recorded; the
/// scheduler must not drop requests (overflow goes to Q2, not away) nor
/// dispatch one twice: the simulator checks that every request completes
/// exactly once.
///
/// When `sink` is non-null the engine emits kArrival / kDispatch /
/// kCompletion events to it, and forwards the sink to every server via
/// Server::attach_observability so server-side events (fault injection)
/// share the stream (scheduler-internal events require attaching the sink
/// to the scheduler too, via Scheduler::attach_observability).  A null sink
/// costs one branch per event.  The trace must satisfy Trace::validate().
SimResult simulate(const Trace& trace, Scheduler& scheduler,
                   std::span<Server* const> servers,
                   EventSink* sink = nullptr);

/// Convenience overload for single-server policies.
SimResult simulate(const Trace& trace, Scheduler& scheduler, Server& server,
                   EventSink* sink = nullptr);

}  // namespace qos
