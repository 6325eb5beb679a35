#include "sim/simulator.h"

#include <algorithm>

#include "sim/engine.h"
#include "util/check.h"

namespace qos {

std::vector<CompletionRecord> SimResult::by_seq() const {
  std::vector<CompletionRecord> out(completions.size());
  std::vector<bool> seen(completions.size(), false);
  for (const auto& c : completions) {
    QOS_CHECK(c.seq < out.size());
    // Each request completes exactly once; a duplicate seq is a broken
    // result (hand-built or corrupted), never a legitimate run.
    QOS_CHECK(!seen[c.seq]);
    seen[c.seq] = true;
    out[c.seq] = c;
  }
  // size() slots, unique in-range seqs => every slot filled (pigeonhole).
  return out;
}

Time SimResult::makespan() const {
  Time last = 0;
  for (const auto& c : completions) last = std::max(last, c.finish);
  return last;
}

SimResult simulate(const Trace& trace, Scheduler& scheduler,
                   std::span<Server* const> servers, EventSink* sink) {
  QOS_EXPECTS(trace.validate());

  // The event loop lives in SimEngine (sim/engine.h) so the materialized,
  // streamed, sharded and replayed drivers share one event order.  This
  // driver is the reference cadence (ServiceLoop::run).
  SimEngine engine(scheduler, servers, sink);
  SimResult result;
  result.completions.reserve(trace.size());
  engine.run(trace, [&result](const CompletionRecord& record) {
    result.completions.push_back(record);
  });

  QOS_ENSURES(result.completions.size() == trace.size());
  return result;
}

SimResult simulate(const Trace& trace, Scheduler& scheduler, Server& server,
                   EventSink* sink) {
  Server* servers[] = {&server};
  return simulate(trace, scheduler, servers, sink);
}

}  // namespace qos
