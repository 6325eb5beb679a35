// many-tenants: 256 equal-rate Poisson tenants merged into one stream and
// run through stream::simulate_sharded (2 shards, lookahead δ = 10 ms).
//
// Lanes follow giant_run's mix — policies cycle Miser/Split/FairQueue/FCFS,
// Cmin = 1.5x and headroom = 0.25x the tenant rate — at 330 IOPS per
// tenant, so every lane has maxQ1 = floor(1.5 * 330 * 0.01) = 4 slots.  At
// giant_run's own default of ~13 IOPS per tenant, floor(Cmin * δ) = 0 and
// every decomposing lane sends all its work to Q2; set-up refuses such a
// provisioning (the maxQ1 guard) and each run reports core.q1_admit_ratio.
//
// Set-up builds the 256 generator streams and plans each tenant: Cmin(0.90)
// of a 30 s sample of its arrivals must not exceed the provisioned Cmin.
// Lanes themselves are built lazily inside the timed run, where a user of
// simulate_sharded pays for them.  Nothing is materialized in the run.
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/capacity.h"
#include "core/rtt.h"
#include "probe.h"
#include "stream/gen_stream.h"
#include "stream/sharded.h"
#include "trace/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kTenants = 256;
constexpr double kRateIops = 330;
constexpr double kCminFactor = 1.5;
constexpr double kHeadroomFactor = 0.25;
constexpr double kPassSeconds = 20;  ///< virtual time of one pass
constexpr double kPlanSeconds = 30;  ///< per-tenant planning sample
constexpr qos::Policy kCycle[4] = {qos::Policy::kMiser, qos::Policy::kSplit,
                                   qos::Policy::kFairQueue,
                                   qos::Policy::kFcfs};

qos::Policy tenant_policy(std::uint32_t client) { return kCycle[client % 4]; }

std::size_t policy_index(qos::Policy p) { return static_cast<std::size_t>(p); }

/// Call timings of the traced pass.
struct Probes {
  CallStats sources, merge, sharded, output;
  CallStats sources_in_run;  ///< sources pulled from inside the run
  struct Lane {
    qos::Policy policy;
    TimedScheduler::Stats sched;
    CallStats server;
  };
  std::deque<Lane> lanes;  ///< stable addresses; filled by the factory
};

/// The 256 tenant streams of one pass.
std::vector<std::unique_ptr<qos::stream::RequestStream>> make_sources(
    const Args& args, Probes* probes) {
  const qos::Time duration = qos::from_sec(kPassSeconds * args.scale);
  std::vector<std::unique_ptr<qos::stream::RequestStream>> sources;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    auto s = qos::stream::make_poisson_stream(kRateIops, duration,
                                              derive_seed(args.seed, t));
    if (probes != nullptr)
      s = std::make_unique<TimedStream>(std::move(s), probes->sources,
                                        SpanName::kTraceSource, false);
    sources.push_back(std::move(s));
  }
  return sources;
}

struct PlanOut {
  double plan_s = 0;
  double max_cmin = 0;  ///< largest per-tenant Cmin(0.90)
  std::uint64_t probes = 0;
  CallStats gen, plan;
  Fold sample_digest;
  double hash_s = 0;  ///< the benchmark's own work: digesting the samples
};

/// Plans every tenant from a sample of its own arrivals and checks the
/// provisioning: maxQ1 >= 1 slot and Cmin(0.90) within the lane's Cmin.
PlanOut plan_tenants(const Args& args) {
  PlanOut out;
  Fold h;
  const auto sample = qos::from_sec(kPlanSeconds * args.scale);
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    qos::Trace trace;
    {
      Timed g = Timed::phase(out.gen, SpanName::kTraceGen);
      trace = qos::generate_poisson(kRateIops, sample,
                                    derive_seed(args.seed, t));
    }
    const std::int64_t h0 = now_ns();
    hash_requests(h, trace);
    out.hash_s += static_cast<double>(now_ns() - h0) * 1e-9;
    Timed p = Timed::phase(out.plan, SpanName::kCorePlan);
    const qos::CapacityResult r = qos::min_capacity(trace, 0.90, kDelta);
    p.stop();
    out.probes += static_cast<std::uint64_t>(r.probes);
    out.max_cmin = std::max(out.max_cmin, r.cmin_iops);
  }
  out.plan_s = out.plan.seconds();
  out.sample_digest = h;
  return out;
}

/// Counts the requests the benchmark offers, independently of the stats
/// simulate_sharded reports.
class CountingStream final : public qos::stream::RequestStream {
 public:
  explicit CountingStream(qos::stream::RequestStream& inner)
      : inner_(&inner) {}
  std::optional<qos::Request> next() override {
    auto r = inner_->next();
    if (r) ++count_;
    return r;
  }
  std::uint64_t count() const { return count_; }

 private:
  qos::stream::RequestStream* inner_;
  std::uint64_t count_ = 0;
};

struct PassOut {
  double wall_s = 0;
  std::uint64_t offered = 0;
  qos::stream::ShardedStats stats;
  Tally tally;
  bool maxq1_ok = true;
};

PassOut run_pass(const Args& args, Probes* probes) {
  PassOut out;
  auto sources = make_sources(args, probes);
  qos::stream::MergedStream merged(std::move(sources));
  std::optional<TimedStream> timed_merged;
  qos::stream::RequestStream* feed = &merged;
  if (probes != nullptr)
    feed = &timed_merged.emplace(merged, probes->merge,
                                 SpanName::kStreamMerge, true);
  CountingStream input(*feed);
  const CallStats sources_before = probes ? probes->sources : CallStats{};

  auto factory = [&](std::uint32_t client) {
    qos::ShapingConfig config;
    config.policy = tenant_policy(client);
    config.delta = kDelta;
    config.headroom_override_iops = kHeadroomFactor * kRateIops;
    const double cmin = kCminFactor * kRateIops;
    if (qos::max_q1_slots(cmin, kDelta) < 1) out.maxq1_ok = false;
    qos::stream::TenantSim sim;
    sim.scheduler = qos::make_scheduler(config, cmin);
    sim.servers =
        make_servers(config.policy, cmin, config.resolved_headroom_iops());
    if (probes != nullptr) {
      Probes::Lane& lane = probes->lanes.emplace_back();
      lane.policy = config.policy;
      const int id = static_cast<int>(client);
      sim.scheduler = std::make_unique<TimedScheduler>(std::move(sim.scheduler),
                                                       lane.sched, id);
      for (auto& s : sim.servers)
        s = std::make_unique<TimedServer>(std::move(s), lane.server, id);
    }
    return sim;
  };

  const qos::stream::ShardedOptions options{.shards = args.shards,
                                            .lookahead = kDelta};
  out.tally.begin_run();
  const std::int64_t t0 = now_ns();
  if (probes == nullptr) {
    out.stats = qos::stream::simulate_sharded(
        input, factory, options, [&out](const qos::CompletionRecord& c) {
          out.tally.add(c, tenant_policy(c.client));
        });
  } else {
    Timed t = Timed::phase(probes->sharded, SpanName::kStreamSharded);
    out.stats = qos::stream::simulate_sharded(
        input, factory, options,
        [&out, probes](const qos::CompletionRecord& c) {
          next_epoch();
          const std::int64_t o0 = now_ns();
          out.tally.add(c, tenant_policy(c.client));
          probes->output.add(now_ns() - o0);
        });
  }
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.offered = input.count();
  out.tally.end_run(out.offered);
  if (probes != nullptr) {
    probes->sources_in_run = probes->sources;
    probes->sources_in_run.calls -= sources_before.calls;
    probes->sources_in_run.ns -= sources_before.ns;
  }
  return out;
}

void print_pass(int n, const PassOut& p) {
  std::printf("many-tenants pass %d wall_s %.4f sim_events_per_s %.0f "
              "(%llu events, %llu windows, %llu lanes)\n",
              n, p.wall_s, static_cast<double>(p.stats.events()) / p.wall_s,
              static_cast<unsigned long long>(p.stats.events()),
              static_cast<unsigned long long>(p.stats.windows),
              static_cast<unsigned long long>(p.stats.tenants));
  print_counts("many-tenants pass", p.offered, p.tally.completed(),
               p.tally.failed(), p.tally.shed());
}

void print_plan(const PlanOut& p) {
  std::printf("many-tenants config tenants %llu rate_iops %.0f cmin_iops %.1f "
              "headroom_iops %.1f maxQ1 %lld lookahead_us %lld\n",
              static_cast<unsigned long long>(kTenants), kRateIops,
              kCminFactor * kRateIops, kHeadroomFactor * kRateIops,
              static_cast<long long>(
                  qos::max_q1_slots(kCminFactor * kRateIops, kDelta)),
              static_cast<long long>(kDelta));
  std::printf("many-tenants inputs sample digest %s planned max Cmin(0.90) "
              "%.0f iops\n",
              p.sample_digest.hex().c_str(), p.max_cmin);
}

void check_plan(Result& result, const PlanOut& p) {
  result.check(qos::max_q1_slots(kCminFactor * kRateIops, kDelta) >= 1,
               "many-tenants: lanes would have maxQ1 = 0 (Q2-only run)");
  result.check(p.max_cmin <= kCminFactor * kRateIops,
               "many-tenants: a tenant needs more than the provisioned Cmin "
               "to meet 90% of its deadlines");
}

void check_pass(Result& result, std::uint64_t want_digest, const PassOut& p) {
  result.attempted += p.offered;
  result.failed += p.tally.failed();
  result.check(p.stats.requests == p.offered,
               "many-tenants: simulate_sharded delivered a different number "
               "of requests than were offered");
  result.check(p.maxq1_ok, "many-tenants: a lane was built with maxQ1 = 0");
  result.check(p.tally.failed() == 0,
               "many-tenants: a request failed (lost, duplicated or a late "
               "Q1 under Miser/Split)");
  result.check(p.tally.q1_admit_ratio() >= 0.5,
               "many-tenants: fewer than half the requests at RTT lanes met "
               "their deadline in Q1");
  result.check(p.tally.digest().value() == want_digest,
               "many-tenants: passes over the same inputs disagree");
}

}  // namespace

Result run_many_tenants(const Args& args) {
  Result result;
  if (!args.trace) {
    const std::int64_t t0 = now_ns();
    {
      qos::stream::MergedStream merged(make_sources(args, nullptr));
    }
    const double sources_s = static_cast<double>(now_ns() - t0) * 1e-9;
    const PlanOut plan = plan_tenants(args);
    print_plan(plan);
    check_plan(result, plan);

    std::vector<double> events_per_s, decisions_per_s;
    std::optional<std::uint64_t> want;
    std::optional<PassOut> last;
    int n = 0;
    const std::int64_t start = now_ns();
    do {
      last.reset();  // one tally alive at a time
      const PassOut& p = last.emplace(run_pass(args, nullptr));
      if (!want) want = p.tally.digest().value();
      print_pass(++n, p);
      check_pass(result, *want, p);
      events_per_s.push_back(static_cast<double>(p.stats.events()) / p.wall_s);
      decisions_per_s.push_back(static_cast<double>(p.offered) / p.wall_s);
    } while (static_cast<double>(now_ns() - start) * 1e-9 < args.seconds);

    const Tally& tally = last->tally;
    std::printf("many-tenants completion digest %s\n",
                tally.digest().hex().c_str());
    tally.print("many-tenants");
    add_end_to_end(result, {sources_s + plan.gen.seconds() + plan.plan_s},
                   {plan.plan_s}, events_per_s, decisions_per_s, tally);
    return result;
  }

  // Traced run: an untraced reference pass, then set-up and one pass with
  // every layer call timed.
  const PassOut reference = run_pass(args, nullptr);
  check_pass(result, reference.tally.digest().value(), reference);

  enable_spans(8);
  CallStats phase;
  Probes probes;
  Timed root = Timed::phase(phase, SpanName::kPhase);
  const PlanOut plan = plan_tenants(args);
  const PassOut traced = run_pass(args, &probes);
  const double wall_s = static_cast<double>(root.stop() - root.start()) * 1e-9;
  print_plan(plan);
  check_plan(result, plan);
  print_pass(1, traced);
  std::printf("many-tenants completion digest %s\n",
              traced.tally.digest().hex().c_str());
  check_pass(result, reference.tally.digest().value(), traced);
  traced.tally.print("many-tenants traced");

  const LaneTotals lanes = collect_lane_totals(args.shards);
  LayerReport L;
  TimedScheduler::Stats by_policy[4];
  CallStats server_all;
  for (const Probes::Lane& lane : probes.lanes) {
    TimedScheduler::Stats& s = by_policy[policy_index(lane.policy)];
    s.arrival.merge(lane.sched.arrival);
    s.next.merge(lane.sched.next);
    s.complete.merge(lane.sched.complete);
    server_all.merge(lane.server);
  }
  const CallStats sched_all = report_schedulers(L, by_policy);
  const double events = static_cast<double>(traced.stats.events());
  const double requests = static_cast<double>(traced.stats.requests);
  const double merge_self_ns =
      probes.merge.net_ns() - probes.sources_in_run.gross_ns();
  // The coordinator's wall clock minus ingest and its own lane intervals,
  // each with its timers; the output callback's timer is removed too.
  const double coordinator_other_ns =
      probes.sharded.net_ns() - probes.merge.gross_ns() - lanes.main_gross_ns -
      static_cast<double>(probes.output.calls) * timer_cost().cost_ns;
  L.trace_gen_s = plan.gen.seconds();
  L.trace_source_ns_per_req = probes.sources.mean_ns();
  L.stream_merge_self_ns_per_req =
      merge_self_ns / static_cast<double>(probes.merge.calls);
  L.stream_coordinator_other_s = coordinator_other_ns * 1e-9;
  L.stream_lane_busy_s = lanes.busy_ns * 1e-9;
  L.stream_lane_imbalance = lanes.window_mean_ns > 0
                                ? lanes.window_max_ns / lanes.window_mean_ns
                                : 0;
  L.stream_windows = static_cast<double>(traced.stats.windows);
  L.stream_arrivals_per_window =
      requests / static_cast<double>(traced.stats.windows);
  L.sim_server_ns_per_call = server_all.mean_ns();
  L.sim_engine_self_ns_per_event =
      (lanes.busy_ns - sched_all.net_ns() - server_all.net_ns()) / events;
  L.core_plan_probes = static_cast<double>(plan.probes);
  L.core_plan_ns_per_probe =
      plan.plan.net_ns() / static_cast<double>(plan.probes);
  L.core_q1_admit_ratio = traced.tally.q1_admit_ratio();
  // Self time along the coordinator thread: the pool's other threads run
  // lanes concurrently and are counted in stream.lane_busy_s instead.
  L.self_s[0] = plan.gen.seconds() + probes.sources.seconds();
  L.self_s[1] =
      (merge_self_ns + coordinator_other_ns - probes.output.net_ns()) * 1e-9;
  L.self_s[2] = (lanes.main_busy_ns - lanes.main_sched_ns) * 1e-9;
  L.self_s[3] = plan.plan.seconds() + lanes.main_sched_ns * 1e-9;
  L.wall_s = wall_s;
  L.own_s = plan.hash_s + probes.output.seconds();
  L.extra_timer_calls = probes.output.calls;
  L.trace_overhead = traced.wall_s / reference.wall_s - 1.0;
  L.emit(result);
  if (!args.spans_out.empty())
    std::printf("spans written %zu to %s\n", write_spans(args.spans_out),
                args.spans_out.c_str());
  return result;
}

}  // namespace perfbench
