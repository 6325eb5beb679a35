// paper-presets: the paper's offline pipeline on its three calibrated
// traces.  Set-up materializes WebSearch, FinTrans and OpenMail (1 h each);
// every pass then profiles Cmin over the Table 1 fractions at δ = 10 ms and
// simulates the four policies at Cmin(0.90), as shape_and_run does.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/capacity.h"
#include "core/shaper.h"
#include "probe.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<double> kTable1Fractions = {0.90,  0.95,  0.99,
                                              0.995, 0.999, 1.0};

/// Call timings of the traced pass.
struct Probes {
  CallStats plan;
  std::uint64_t plan_probes = 0;
  CallStats simulate;
  CallStats server;
  TimedScheduler::Stats sched[4];
};

struct PassOut {
  double plan_s = 0;
  double wall_s = 0;
  /// The simulate step: its time, its arrivals and its events (arrivals +
  /// dispatches + completions).
  double sim_s = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t events = 0;
  double tally_s = 0;  ///< the benchmark's own work on the results
  Fold plan_digest;
  Tally tally;
};

/// What every pass over the same inputs must reproduce: the first pass's
/// digests.
struct Expected {
  std::uint64_t plan = 0;
  std::uint64_t completions = 0;
};

Expected expected(const PassOut& p) {
  return {p.plan_digest.value(), p.tally.digest().value()};
}

/// The Cmin profile of one trace.  The traced pass replays capacity_profile's
/// warm-started min_capacity sequence itself so each search's probe count is
/// visible; the transparency test checks both give the same points.
std::vector<qos::CapacityPoint> plan(const qos::Trace& trace, Probes* probes) {
  if (probes == nullptr)
    return qos::capacity_profile(trace, kDelta, kTable1Fractions);
  std::vector<qos::CapacityPoint> out;
  qos::CapacityHint hint;
  for (double f : kTable1Fractions) {
    Timed t = Timed::phase(probes->plan, SpanName::kCorePlan);
    const qos::CapacityResult r = qos::min_capacity(trace, f, kDelta, hint);
    t.stop();
    probes->plan_probes += static_cast<std::uint64_t>(r.probes);
    out.push_back({f, r.cmin_iops});
    hint.infeasible_below = static_cast<std::int64_t>(r.cmin_iops) - 1;
  }
  return out;
}

qos::SimResult simulate_policy(const qos::Trace& trace, std::size_t policy,
                               double cmin, Probes* probes) {
  qos::ShapingConfig config;
  config.policy = kPolicies[policy];
  config.delta = kDelta;
  auto scheduler = qos::make_scheduler(config, cmin);
  auto owned =
      make_servers(config.policy, cmin, config.resolved_headroom_iops());
  if (probes != nullptr) {
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler),
                                                 probes->sched[policy]);
    for (auto& s : owned)
      s = std::make_unique<TimedServer>(std::move(s), probes->server);
  }
  std::vector<qos::Server*> servers;
  for (auto& s : owned) servers.push_back(s.get());
  if (probes == nullptr) return qos::simulate(trace, *scheduler, servers);
  Timed t = Timed::phase(probes->simulate, SpanName::kSimSimulate);
  return qos::simulate(trace, *scheduler, servers);
}

PassOut run_pass(const std::vector<qos::Trace>& traces, Probes* probes) {
  PassOut out;
  const std::int64_t t0 = now_ns();
  std::vector<double> cmin;
  Fold plan_hash;
  for (const qos::Trace& trace : traces) {
    const std::int64_t p0 = now_ns();
    const auto points = plan(trace, probes);
    out.plan_s += static_cast<double>(now_ns() - p0) * 1e-9;
    for (const auto& p : points) plan_hash.add(p.fraction).add(p.cmin_iops);
    cmin.push_back(points.front().cmin_iops);  // Cmin(0.90)
  }
  out.plan_digest = plan_hash;

  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      const std::int64_t s0 = now_ns();
      const qos::SimResult sim = simulate_policy(traces[i], p, cmin[i], probes);
      const std::int64_t s1 = now_ns();
      out.sim_s += static_cast<double>(s1 - s0) * 1e-9;
      out.arrivals += traces[i].size();
      out.events += traces[i].size() + 2 * sim.completions.size();
      out.tally.begin_run();
      for (const qos::CompletionRecord& c : sim.completions)
        out.tally.add(c, kPolicies[p]);
      out.tally.end_run(traces[i].size());
      out.tally_s += static_cast<double>(now_ns() - s1) * 1e-9;
    }
  }
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

void print_pass(int n, const PassOut& p) {
  std::printf("paper-presets pass %d plan_s %.4f sim_s %.4f sim_events_per_s "
              "%.0f (%llu events)\n",
              n, p.plan_s, p.sim_s, static_cast<double>(p.events) / p.sim_s,
              static_cast<unsigned long long>(p.events));
  print_counts("paper-presets pass", p.tally.offered(), p.tally.completed(),
               p.tally.failed(), p.tally.shed());
}

void check_pass(Result& result, const Expected& want, const PassOut& p) {
  result.attempted += p.tally.offered();
  result.failed += p.tally.failed();
  result.check(p.tally.failed() == 0,
               "paper-presets: a request failed (lost, duplicated or a late "
               "Q1 under Miser/Split)");
  result.check(p.tally.digest().value() == want.completions &&
                   p.plan_digest.value() == want.plan,
               "paper-presets: passes over the same inputs disagree");
}

void print_digests(const PassOut& p) {
  std::printf("paper-presets plan digest %s completion digest %s\n",
              p.plan_digest.hex().c_str(), p.tally.digest().hex().c_str());
}

}  // namespace

Result run_paper_presets(const Args& args) {
  Result result;
  if (!args.trace) {
    CallStats gen;
    const std::vector<qos::Trace> traces = make_presets(args, gen);
    print_inputs("paper-presets", args, traces);

    std::vector<double> plan_s, events_per_s, decisions_per_s;
    std::optional<Expected> want;
    std::optional<PassOut> last;
    int n = 0;
    const std::int64_t start = now_ns();
    do {
      last.reset();  // one tally alive at a time
      const PassOut& p = last.emplace(run_pass(traces, nullptr));
      if (!want) want = expected(p);
      print_pass(++n, p);
      check_pass(result, *want, p);
      plan_s.push_back(p.plan_s);
      events_per_s.push_back(static_cast<double>(p.events) / p.sim_s);
      decisions_per_s.push_back(static_cast<double>(p.arrivals) / p.sim_s);
    } while (static_cast<double>(now_ns() - start) * 1e-9 < args.seconds);

    const Tally& tally = last->tally;
    print_digests(*last);
    tally.print("paper-presets");
    add_end_to_end(result, {gen.seconds()}, plan_s, events_per_s,
                   decisions_per_s, tally);
    return result;
  }

  // Traced run: an untraced reference pass, then set-up and one pass with
  // every layer call timed.
  CallStats untimed;
  std::vector<qos::Trace> traces = make_presets(args, untimed);
  const PassOut reference = run_pass(traces, nullptr);
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
  const PassOut traced = run_pass(traces, &probes);
  const double wall_s = static_cast<double>(root.stop() - root.start()) * 1e-9;
  print_inputs("paper-presets", args, traces);
  print_pass(1, traced);
  print_digests(traced);
  check_pass(result, expected(reference), traced);
  traced.tally.print("paper-presets traced");

  LayerReport L;
  const CallStats sched_all = report_schedulers(L, probes.sched);
  // Engine: simulate() minus everything its scheduler and server calls
  // took out of it, timers included.
  const double engine_ns = probes.simulate.net_ns() - sched_all.gross_ns() -
                           probes.server.gross_ns();
  L.trace_gen_s = gen.seconds();
  L.sim_server_ns_per_call = probes.server.mean_ns();
  L.sim_engine_self_ns_per_event =
      engine_ns / static_cast<double>(traced.events);
  L.core_plan_probes = static_cast<double>(probes.plan_probes);
  L.core_plan_ns_per_probe =
      probes.plan.net_ns() / static_cast<double>(probes.plan_probes);
  L.core_q1_admit_ratio = traced.tally.q1_admit_ratio();
  L.self_s[0] = gen.seconds();
  L.self_s[2] = engine_ns * 1e-9 + probes.server.seconds();
  L.self_s[3] = probes.plan.seconds() + sched_all.seconds();
  L.wall_s = wall_s;
  L.own_s = rotate_ns * 1e-9 + traced.tally_s;
  L.trace_overhead = traced.wall_s / reference.wall_s - 1.0;
  L.emit(result);
  if (!args.spans_out.empty())
    std::printf("spans written %zu to %s\n", write_spans(args.spans_out),
                args.spans_out.c_str());
  return result;
}

}  // namespace perfbench
