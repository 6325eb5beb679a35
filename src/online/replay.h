// replay_trace — drive an online::Shaper from a materialized trace under a
// VirtualClock, reconstructing exactly the run shape_and_run would produce.
//
// This is the proof obligation that keeps the online path honest: the
// Shaper exposes the same scheduler machinery imperatively, and this
// harness shows the exposure is lossless.  It runs the simulator's own
// event loop (ServiceLoop, sim/engine.h) with the Shaper as its dispatch
// half: completions go through on_completion, arrivals through admit, the
// fill through poll_dispatch's callback form, where the server model is
// asked for the service duration before the dispatch is reported — so the
// event order, server-emitted events included, is simulate()'s by
// construction.  The differential tests (tests/test_online_shaper.cpp)
// assert per policy that the admission decisions, the completion records
// and the emitted event stream are bit-identical to shape_and_run's, with
// and without a fault-injecting server decorator.
//
// Servers default to the ones shape_and_run builds (build_backing_servers:
// ConstantRate at Cmin + dC, Split: Cmin primary + dC overflow, each passed
// through `shaping.server_decorator`) — so the fault layer composes here
// too.
#pragma once

#include <span>
#include <vector>

#include "online/shaper.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace qos::online {

struct ReplayOutcome {
  /// One decision per trace request, in arrival order.
  std::vector<Decision> decisions;
  /// Completion records in finish order — the same shape (and, for a
  /// faithful replay, the same bytes) as shape_and_run's SimResult.
  SimResult sim;
};

/// Replay `trace` through a fresh Shaper built from `options`.
/// options.max_q2_depth must be 0 (shedding changes the stream the
/// scheduler sees; the replay contract is the unbounded one).  A non-empty
/// `servers` is used as given, as simulate() uses its servers (one per
/// scheduler server, borrowed, no decorator applied); empty builds
/// shape_and_run's servers from `options`.
ReplayOutcome replay_trace(const Trace& trace, const ShaperOptions& options,
                           std::span<Server* const> servers = {});

}  // namespace qos::online
