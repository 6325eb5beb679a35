// Streaming simulation driver: pull requests from a RequestStream, push
// completions to a callback, never materialize either side.
//
// simulate_stream makes the *identical* SimEngine call sequence the
// materialized simulate() makes from a Trace — retire everything before each
// arrival, push it, drain at the end — so streamed and materialized runs of
// the same request sequence produce bit-identical completions and event
// streams (tests/test_stream.cpp).  The only difference is what is resident:
// at most the same-instant arrival batch plus per-server in-flight state,
// which is what lets bench/giant_run push 10^8 requests through a fixed RSS
// ceiling.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "sim/engine.h"
#include "sim/simulator.h"
#include "stream/stream.h"

namespace qos::stream {

/// Event counters from a streamed run (SimEngine's counters at drain).
struct StreamStats {
  std::uint64_t requests = 0;     ///< arrivals delivered
  std::uint64_t dispatches = 0;
  std::uint64_t completions = 0;
  Time makespan = 0;              ///< last completion instant

  std::uint64_t events() const {
    return requests + dispatches + completions;
  }
};

/// Core form: each CompletionRecord goes to `out` in retire order (the same
/// order simulate() appends them).  The stream contract (sorted, dense seq,
/// valid records) is checked request by request — the streaming equivalent
/// of simulate()'s trace.validate() precondition.
template <typename Out>
StreamStats simulate_stream(RequestStream& requests, Scheduler& scheduler,
                            std::span<Server* const> servers, EventSink* sink,
                            Out&& out) {
  SimEngine engine(scheduler, servers, sink);
  StreamStats stats;
  auto collect = [&out, &stats](const CompletionRecord& record) {
    stats.makespan = std::max(stats.makespan, record.finish);
    out(record);
  };
  std::uint64_t expected_seq = 0;
  while (auto r = requests.next()) {
    QOS_CHECK(request_record_ok(*r));
    QOS_CHECK(r->seq == expected_seq);
    ++expected_seq;
    engine.advance_until(r->arrival, collect);
    engine.push_arrival(*r);
  }
  engine.advance_until(kTimeMax, collect);
  QOS_ENSURES(engine.drained());
  stats.requests = engine.arrivals_delivered();
  stats.dispatches = engine.dispatches();
  stats.completions = engine.completions();
  QOS_ENSURES(stats.completions == stats.requests);
  return stats;
}

/// Materializing convenience — a SimResult interchangeable with simulate()'s
/// (for tests and small runs; O(n) memory, obviously).
SimResult collect_stream(RequestStream& requests, Scheduler& scheduler,
                         std::span<Server* const> servers,
                         EventSink* sink = nullptr);

/// Single-server overload, mirroring simulate()'s.
SimResult collect_stream(RequestStream& requests, Scheduler& scheduler,
                         Server& server, EventSink* sink = nullptr);

}  // namespace qos::stream
