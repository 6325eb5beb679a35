#include "stream/sharded.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/sharded_sink.h"
#include "runner/thread_pool.h"
#include "sim/engine.h"
#include "util/check.h"

namespace qos::stream {
namespace {

struct Lane {
  std::uint32_t tenant = 0;
  TenantSim sim;
  std::vector<Server*> servers;  ///< raw views for the engine
  std::unique_ptr<SimEngine> engine;
  std::unique_ptr<MetricRegistry> registry;   ///< private metric shard
  std::vector<Request> inbox;                 ///< this window's arrivals
  std::vector<CompletionRecord> window_out;   ///< this window's completions
};

bool merged_before(const CompletionRecord& a, const CompletionRecord& b) {
  if (a.finish != b.finish) return a.finish < b.finish;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.server < b.server;
}

}  // namespace

ShardedStats simulate_sharded(
    RequestStream& requests, const TenantFactory& factory,
    const ShardedOptions& options,
    const std::function<void(const CompletionRecord&)>& out) {
  QOS_EXPECTS(options.shards >= 1);
  QOS_EXPECTS(options.lookahead > 0);

  ThreadPool pool(options.shards);
  std::vector<std::unique_ptr<Lane>> lanes;  ///< kept sorted by tenant id

  // Per-lane buffered sinks, canonically merged to options.sink at every
  // barrier flush (obs/sharded_sink.h).  Lane buffers are each written by
  // exactly one worker per window and only touched by the coordinator
  // between windows, so no event crosses threads unsynchronized.
  std::optional<ShardedEventSink> event_merge;
  if (options.sink != nullptr) event_merge.emplace(options.sink);

  auto lane_for = [&](std::uint32_t tenant) -> Lane& {
    // Tenant ids are whatever Request::client carries (an SPC ASU is a
    // full uint32), so lanes are found by binary search of the sorted list
    // rather than by a table sized to the largest id.
    const auto at = std::lower_bound(
        lanes.begin(), lanes.end(), tenant,
        [](const std::unique_ptr<Lane>& l, std::uint32_t t) {
          return l->tenant < t;
        });
    if (at != lanes.end() && (*at)->tenant == tenant) return **at;
    auto lane = std::make_unique<Lane>();
    lane->tenant = tenant;
    lane->sim = factory(tenant);
    QOS_CHECK(lane->sim.scheduler != nullptr);
    QOS_CHECK(static_cast<int>(lane->sim.servers.size()) ==
              lane->sim.scheduler->server_count());
    for (auto& s : lane->sim.servers) {
      QOS_CHECK(s != nullptr);
      lane->servers.push_back(s.get());
    }
    EventSink* lane_sink =
        event_merge ? event_merge->lane(tenant) : nullptr;
    if (options.registry != nullptr)
      lane->registry = std::make_unique<MetricRegistry>();
    if (lane_sink != nullptr || lane->registry != nullptr)
      lane->sim.scheduler->attach_observability(lane_sink,
                                                lane->registry.get());
    lane->engine = std::make_unique<SimEngine>(*lane->sim.scheduler,
                                               lane->servers, lane_sink);
    Lane& ref = *lane;
    lanes.insert(at, std::move(lane));
    return ref;
  };

  // The stream contract is validated at the coordinator, exactly as
  // simulate_stream does — lanes then only ever see per-tenant subsequences
  // of an already-checked stream.
  std::uint64_t expected_seq = 0;
  Time prev_arrival = 0;
  auto validate = [&](const Request& r) {
    QOS_CHECK(request_record_ok(r));
    QOS_CHECK(r.seq == expected_seq);
    QOS_CHECK(r.arrival >= prev_arrival);
    ++expected_seq;
    prev_arrival = r.arrival;
  };

  ShardedStats stats;
  const Time delta = options.lookahead;
  std::optional<Request> peek = requests.next();
  if (peek) validate(*peek);
  std::vector<CompletionRecord> merged;

  while (true) {
    // Realign the window to the next event anywhere — buffered stream head
    // or any lane's pending arrival/completion — so empty virtual time
    // costs nothing.
    Time next_event = peek ? peek->arrival : kTimeMax;
    for (const auto& lane : lanes)
      next_event = std::min(next_event, lane->engine->next_event_time());
    if (next_event == kTimeMax) break;
    const Time window = next_event - next_event % delta;
    const Time limit = window > kTimeMax - delta ? kTimeMax : window + delta;

    // Feed: every arrival inside this window goes to its tenant's inbox.
    while (peek && peek->arrival < limit) {
      lane_for(peek->client).inbox.push_back(*peek);
      peek = requests.next();
      if (peek) validate(*peek);
    }

    // Barrier step: all lanes advance to the window edge in parallel.  A
    // lane's evolution is a pure function of its inbox and prior state;
    // the pool only chooses which worker runs it.
    pool.parallel_for(lanes.size(), [&lanes, limit](std::size_t i) {
      Lane& lane = *lanes[i];
      auto collect = [&lane](const CompletionRecord& record) {
        lane.window_out.push_back(record);
      };
      for (const Request& r : lane.inbox) {
        lane.engine->advance_until(r.arrival, collect);
        lane.engine->push_arrival(r);
      }
      lane.inbox.clear();
      lane.engine->advance_until(limit, collect);
    });

    // Event flush first: the window's events re-serialize into the canonical
    // (time, seq, server) order on the coordinator.  Windows tile virtual
    // time, so per-window flushes concatenate into one globally ordered
    // stream — identical to what a 1-shard run hands the same sink.
    if (event_merge) event_merge->flush();

    // Canonical merge: tenant-ascending concatenation, then a stable sort
    // on (finish, seq, server).  Every finish in this window precedes every
    // finish of later windows, so per-window emission is globally sorted.
    merged.clear();
    for (auto& lane : lanes) {
      merged.insert(merged.end(), lane->window_out.begin(),
                    lane->window_out.end());
      lane->window_out.clear();
    }
    std::stable_sort(merged.begin(), merged.end(), merged_before);
    for (const CompletionRecord& record : merged) {
      stats.makespan = std::max(stats.makespan, record.finish);
      out(record);
    }
    ++stats.windows;
  }

  for (const auto& lane : lanes) {
    QOS_ENSURES(lane->engine->drained());
    stats.requests += lane->engine->arrivals_delivered();
    stats.dispatches += lane->engine->dispatches();
    stats.completions += lane->engine->completions();
  }
  stats.tenants = lanes.size();
  if (event_merge) {
    event_merge->finish();  // drain handed-off windows, join the drain thread
    stats.events_forwarded = event_merge->forwarded();
    stats.event_digest = event_merge->digest();
  }

  // Metric fan-in after the run, in tenant-ascending order: integer metric
  // arithmetic is exact, and occupancy integrals are doubles whose fixed
  // fold order makes the global snapshot bit-identical across shard counts.
  if (options.registry != nullptr)
    for (const auto& lane : lanes) options.registry->fan_in(*lane->registry);

  return stats;
}

SimResult simulate_sharded(RequestStream& requests,
                           const TenantFactory& factory,
                           const ShardedOptions& options) {
  SimResult result;
  simulate_sharded(requests, factory, options,
                   [&result](const CompletionRecord& record) {
                     result.completions.push_back(record);
                   });
  return result;
}

}  // namespace qos::stream
