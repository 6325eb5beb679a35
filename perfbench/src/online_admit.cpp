// online-admit: the paper-presets inputs driven through online::Shaper.
//
// One thread replays each preset under each policy the way replay_trace
// does (completions, then arrivals, then a dispatch fill, all on a
// VirtualClock), with ConstantRateServer service durations and Cmin(0.90)
// planned in set-up.  Decisions are folded into a digest; completions are
// buffered, a bounded chunk at a time, and tallied with the loop's clock
// stopped.  In wall time the loop is closed (the next call waits for the
// previous one); in virtual time it is open, on the trace's own arrival
// schedule, so the decision mix is fixed by the input.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/capacity.h"
#include "online/shaper.h"
#include "probe.h"
#include "util/clock.h"
#include "util/indexed_heap.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Call timings of the traced pass.
struct Probes {
  CallStats admit, poll, complete, server;
  TimedScheduler::Stats sched[4];
  std::uint64_t empty_polls = 0;
  /// admit() durations, 1 ns buckets; longer calls land in the last one.
  std::vector<std::uint64_t> admit_hist = std::vector<std::uint64_t>(1 << 16);

  /// Percentile of admit() time, the timer's bias removed like the means.
  double admit_percentile(double q) const {
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(admit.calls));
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while (i + 1 < admit_hist.size() && (seen += admit_hist[i]) <= rank) ++i;
    return std::max(0.0, static_cast<double>(i) - timer_cost().bias_ns);
  }
};

/// Completions buffered before the loop's clock stops to tally them.
constexpr std::size_t kTallyChunk = std::size_t{1} << 16;

struct PassOut {
  double loop_s = 0;  ///< the replay loops alone, without the tally
  double tally_s = 0;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;  ///< admits + dispatches + completions
  Fold decision_hash;
  Tally tally;
  /// Completions not yet tallied; the tally's scattered histogram writes
  /// stay out of the timed loop.
  std::vector<qos::CompletionRecord> completions;

  /// Tallies the buffered completions of a replay under `policy`.
  void flush(qos::Policy policy) {
    const std::int64_t t0 = now_ns();
    for (const qos::CompletionRecord& c : completions) tally.add(c, policy);
    completions.clear();
    tally_s += static_cast<double>(now_ns() - t0) * 1e-9;
  }
};

/// What every pass over the same inputs must reproduce: the first pass's
/// digests.
struct Expected {
  std::uint64_t decisions = 0;
  std::uint64_t completions = 0;
};

Expected expected(const PassOut& p) {
  return {p.decision_hash.value(), p.tally.digest().value()};
}

void replay(const qos::Trace& trace, std::size_t policy, double cmin,
            PassOut& out, Probes* probes) {
  qos::VirtualClock clock;
  qos::online::ShaperOptions options;
  options.shaping.policy = kPolicies[policy];
  options.shaping.delta = kDelta;
  options.cmin_iops = cmin;
  if (probes != nullptr) {
    // Same scheduler the Shaper would build, behind a timing decorator.
    options.make_custom_scheduler = [shaping = options.shaping, cmin,
                                     stats = &probes->sched[policy]] {
      return std::make_unique<TimedScheduler>(
          qos::make_scheduler(shaping, cmin), *stats);
    };
  }
  qos::online::Shaper shaper(options, clock);
  auto owned = make_servers(kPolicies[policy], cmin,
                            options.shaping.resolved_headroom_iops());
  if (probes != nullptr)
    for (auto& s : owned)
      s = std::make_unique<TimedServer>(std::move(s), probes->server);

  out.completions.reserve(kTallyChunk);
  out.tally.begin_run();
  std::int64_t t0 = now_ns();
  std::vector<qos::CompletionRecord> slot(owned.size());
  qos::IndexedMinHeap<qos::Time> pending(static_cast<int>(owned.size()));
  std::size_t next_arrival = 0;

  while (true) {
    const qos::Time next_completion =
        pending.empty() ? qos::kTimeMax : pending.top_key();
    const qos::Time arrival_time = next_arrival < trace.size()
                                       ? trace[next_arrival].arrival
                                       : qos::kTimeMax;
    const qos::Time now = std::min(next_completion, arrival_time);
    if (now == qos::kTimeMax) break;
    clock.advance_to(now);

    while (!pending.empty() && pending.top_key() == now) {
      const int s = pending.pop();
      const qos::CompletionRecord& record = slot[static_cast<std::size_t>(s)];
      if (out.completions.size() == kTallyChunk) {
        out.loop_s += static_cast<double>(now_ns() - t0) * 1e-9;
        out.flush(kPolicies[policy]);
        t0 = now_ns();
      }
      out.completions.push_back(record);
      ++out.events;
      const qos::Request r{.arrival = record.arrival,
                           .seq = record.seq,
                           .client = record.client};
      if (probes == nullptr) {
        shaper.on_completion(r, record.klass, s, now);
      } else {
        Timed t(probes->complete, SpanName::kOnlineComplete, r.seq);
        shaper.on_completion(r, record.klass, s, now);
      }
    }

    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival == now) {
      const qos::Request& r = trace[next_arrival++];
      qos::online::Decision d;
      if (probes == nullptr) {
        d = shaper.admit(r, now);
      } else {
        Timed t(probes->admit, SpanName::kOnlineAdmit, r.seq);
        d = shaper.admit(r, now);
        const std::int64_t ns = t.stop() - t.start();
        ++probes->admit_hist[std::min<std::size_t>(
            static_cast<std::size_t>(ns), probes->admit_hist.size() - 1)];
      }
      out.decision_hash.add(d.seq)
          .add(static_cast<std::uint64_t>(d.admit))
          .add(std::uint64_t{d.demoted})
          .add(d.deadline)
          .add(d.depth)
          .add(d.max_q1);
      ++out.decisions;
      ++out.events;
    }

    std::vector<qos::online::DispatchCommand> commands;
    if (probes == nullptr) {
      commands = shaper.poll_dispatch(now);
    } else {
      Timed t(probes->poll, SpanName::kOnlinePoll, probes->poll.calls);
      commands = shaper.poll_dispatch(now);
      t.stop();
      if (commands.empty()) ++probes->empty_polls;
    }
    for (const qos::online::DispatchCommand& cmd : commands) {
      const auto s = static_cast<std::size_t>(cmd.server);
      const qos::Time dur = owned[s]->service_duration(cmd.request, now);
      slot[s] = qos::CompletionRecord{
          .seq = cmd.request.seq,
          .client = cmd.request.client,
          .arrival = cmd.request.arrival,
          .start = now,
          .finish = now + dur,
          .klass = cmd.klass,
          .server = static_cast<std::uint8_t>(cmd.server),
      };
      pending.push(cmd.server, now + dur);
      ++out.events;
    }
  }
  out.loop_s += static_cast<double>(now_ns() - t0) * 1e-9;
  out.flush(kPolicies[policy]);
  out.tally.add_shed(shaper.shed());
  out.tally.end_run(trace.size());
}

PassOut run_pass(const std::vector<qos::Trace>& traces,
                 const std::vector<double>& cmin, Probes* probes) {
  PassOut out;
  for (std::size_t i = 0; i < traces.size(); ++i)
    for (std::size_t p = 0; p < std::size(kPolicies); ++p)
      replay(traces[i], p, cmin[i], out, probes);
  out.completions = {};
  return out;
}

struct Plan {
  std::vector<double> cmin;
  double plan_s = 0;
  CallStats calls;
  std::uint64_t probes = 0;
};

/// Cmin(0.90) per preset, the first point of capacity_profile.
Plan plan(const std::vector<qos::Trace>& traces) {
  Plan out;
  for (const qos::Trace& trace : traces) {
    Timed t = Timed::phase(out.calls, SpanName::kCorePlan);
    const qos::CapacityResult r = qos::min_capacity(trace, 0.90, kDelta);
    t.stop();
    out.cmin.push_back(r.cmin_iops);
    out.probes += static_cast<std::uint64_t>(r.probes);
  }
  out.plan_s = out.calls.seconds();
  return out;
}

void print_pass(int n, const PassOut& p) {
  std::printf("online-admit pass %d loop_s %.4f admit_decisions_per_s %.0f "
              "sim_events_per_s %.0f (%llu decisions, %llu events)\n",
              n, p.loop_s, static_cast<double>(p.decisions) / p.loop_s,
              static_cast<double>(p.events) / p.loop_s,
              static_cast<unsigned long long>(p.decisions),
              static_cast<unsigned long long>(p.events));
  print_counts("online-admit pass", p.tally.offered(), p.tally.completed(),
               p.tally.failed(), p.tally.shed());
}

void print_digests(const Plan& plan, const PassOut& p) {
  Fold h;
  for (double c : plan.cmin) h.add(c);
  std::printf("online-admit plan digest %s decision digest %s completion "
              "digest %s\n",
              h.hex().c_str(), p.decision_hash.hex().c_str(),
              p.tally.digest().hex().c_str());
}

void check_pass(Result& result, const Expected& want, const PassOut& p) {
  result.attempted += p.tally.offered();
  result.failed += p.tally.failed();
  result.check(p.tally.shed() == 0, "online-admit: the Shaper shed requests");
  result.check(p.tally.failed() == 0,
               "online-admit: a request failed (lost, duplicated, shed or a "
               "late Q1 under Miser/Split)");
  result.check(p.decisions == p.tally.offered(),
               "online-admit: not one decision per request");
  result.check(p.tally.digest().value() == want.completions &&
                   p.decision_hash.value() == want.decisions,
               "online-admit: passes over the same inputs disagree");
}

}  // namespace

Result run_online_admit(const Args& args) {
  Result result;
  if (!args.trace) {
    CallStats gen;
    const std::vector<qos::Trace> traces = make_presets(args, gen);
    const Plan p = plan(traces);
    print_inputs("online-admit", args, traces);

    std::vector<double> decisions_per_s, events_per_s;
    std::optional<Expected> want;
    std::optional<PassOut> last;
    int n = 0;
    const std::int64_t start = now_ns();
    do {
      last.reset();  // one tally alive at a time
      const PassOut& out = last.emplace(run_pass(traces, p.cmin, nullptr));
      if (!want) want = expected(out);
      print_pass(++n, out);
      check_pass(result, *want, out);
      decisions_per_s.push_back(static_cast<double>(out.decisions) /
                                out.loop_s);
      events_per_s.push_back(static_cast<double>(out.events) / out.loop_s);
    } while (static_cast<double>(now_ns() - start) * 1e-9 < args.seconds);

    const Tally& tally = last->tally;
    print_digests(p, *last);
    tally.print("online-admit");
    add_end_to_end(result, {gen.seconds() + p.plan_s}, {p.plan_s},
                   events_per_s, decisions_per_s, tally);
    return result;
  }

  // Traced run: an untraced reference pass, then set-up and one pass with
  // every layer call timed.
  CallStats untimed;
  std::vector<qos::Trace> traces = make_presets(args, untimed);
  const PassOut reference = run_pass(traces, plan(traces).cmin, nullptr);
  check_pass(result, expected(reference), reference);
  traces = {};

  enable_spans(8);
  CallStats phase, gen;
  Probes probes;
  Timed root = Timed::phase(phase, SpanName::kPhase);
  traces = make_presets(args, gen);
  // The rotation of the calibrated traces is the benchmark's own work.
  const double rotate_ns =
      static_cast<double>(now_ns() - root.start()) - gen.gross_ns();
  const Plan p = plan(traces);
  const PassOut traced = run_pass(traces, p.cmin, &probes);
  const double wall_s = static_cast<double>(root.stop() - root.start()) * 1e-9;
  print_inputs("online-admit", args, traces);
  print_pass(1, traced);
  print_digests(p, traced);
  check_pass(result, expected(reference), traced);
  traced.tally.print("online-admit traced");

  LayerReport L;
  const CallStats sched_all = report_schedulers(L, probes.sched);
  CallStats sched_arrival;
  for (const TimedScheduler::Stats& s : probes.sched)
    sched_arrival.merge(s.arrival);
  L.trace_gen_s = gen.seconds();
  L.sim_server_ns_per_call = probes.server.mean_ns();
  L.core_plan_probes = static_cast<double>(p.probes);
  L.core_plan_ns_per_probe =
      p.calls.net_ns() / static_cast<double>(p.probes);
  L.core_q1_admit_ratio = traced.tally.q1_admit_ratio();
  L.online_admit_ns = probes.admit.mean_ns();
  L.online_admit_p50_ns = probes.admit_percentile(0.50);
  L.online_admit_p99_ns = probes.admit_percentile(0.99);
  L.online_poll_dispatch_ns = probes.poll.mean_ns();
  L.online_on_completion_ns = probes.complete.mean_ns();
  L.online_empty_poll_ratio = static_cast<double>(probes.empty_polls) /
                              static_cast<double>(probes.poll.calls);
  L.online_shaper_self_ns_per_decision =
      (probes.admit.net_ns() - sched_arrival.gross_ns()) /
      static_cast<double>(traced.decisions);
  L.self_s[0] = gen.seconds();
  L.self_s[2] = probes.server.seconds();
  L.self_s[3] = p.calls.seconds() + sched_all.seconds();
  L.self_s[4] = (probes.admit.net_ns() + probes.poll.net_ns() +
                 probes.complete.net_ns() - sched_all.gross_ns()) *
                1e-9;
  L.wall_s = wall_s;
  L.own_s = rotate_ns * 1e-9 + traced.tally_s;
  L.trace_overhead = traced.loop_s / reference.loop_s - 1.0;
  L.emit(result);
  if (!args.spans_out.empty())
    std::printf("spans written %zu to %s\n", write_spans(args.spans_out),
                args.spans_out.c_str());
  return result;
}

}  // namespace perfbench
