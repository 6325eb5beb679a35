#include "online/replay.h"

#include "sim/engine.h"
#include "util/check.h"
#include "util/clock.h"

namespace qos::online {

namespace {

// The Shaper as a ServiceLoop's dispatch half, through its public API only.
// The Shaper's clock follows the loop's instants.
struct ShaperDispatch {
  Shaper* shaper;
  VirtualClock* clock;
  std::vector<Decision>* decisions;

  int server_count() const { return shaper->server_count(); }

  void arrive(const Request& r, Time now) {
    clock->advance_to(now);
    decisions->push_back(shaper->admit(r, now));
  }

  template <typename Start>
  void fill(Time now, Start&& start) {
    clock->advance_to(now);
    shaper->poll_dispatch(now, [&start](const DispatchCommand& cmd) {
      start(cmd.server, Scheduler::Dispatch{cmd.request, cmd.klass});
    });
  }

  void complete(const Request& r, ServiceClass klass, int server, Time now) {
    clock->advance_to(now);
    shaper->on_completion(r, klass, server, now);
  }
};

}  // namespace

ReplayOutcome replay_trace(const Trace& trace, const ShaperOptions& options,
                           std::span<Server* const> servers) {
  QOS_EXPECTS(options.max_q2_depth == 0);
  QOS_EXPECTS(trace.validate());

  VirtualClock clock;
  Shaper shaper(options, clock);
  BackingServers backing;
  if (servers.empty()) {
    backing = build_backing_servers(shaper.options().shaping,
                                    options.cmin_iops, shaper.server_count());
    servers = backing.servers;
  }

  ReplayOutcome out;
  out.decisions.reserve(trace.size());
  out.sim.completions.reserve(trace.size());
  ServiceLoop<ShaperDispatch> loop(
      ShaperDispatch{&shaper, &clock, &out.decisions}, servers,
      shaper.event_sink());
  loop.run(trace, [&out](const CompletionRecord& record) {
    out.sim.completions.push_back(record);
  });

  QOS_ENSURES(out.decisions.size() == trace.size());
  QOS_ENSURES(out.sim.completions.size() == trace.size());
  return out;
}

}  // namespace qos::online
