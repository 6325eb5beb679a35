#include "common.h"

#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

/// Miser and Split guarantee every Q1 admit its deadline.
bool guarantees_q1(qos::Policy p) {
  return p == qos::Policy::kMiser || p == qos::Policy::kSplit;
}

/// Length of each preset trace: 1 h times args.scale.
qos::Time preset_duration(const Args& args) {
  return static_cast<qos::Time>(static_cast<double>(qos::kPresetDuration) *
                                args.scale);
}

/// `trace` shifted cyclically by `offset` within [0, period): arrivals past
/// the end wrap to the start.  Every inter-arrival gap but the one at the
/// cut is kept, so the workload keeps its burst structure.
qos::Trace rotated(const qos::Trace& trace, qos::Time period,
                   qos::Time offset) {
  std::vector<qos::Request> requests(trace.begin(), trace.end());
  for (qos::Request& r : requests) r.arrival = (r.arrival + offset) % period;
  return qos::Trace(std::move(requests));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer over (seed, index); never 0, which the preset
  // generators read as "use the built-in seed".
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

std::string Fold::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void fold(Fold& h, const qos::CompletionRecord& c) {
  h.add(c.seq)
      .add(std::uint64_t{c.client})
      .add(c.arrival)
      .add(c.start)
      .add(c.finish)
      .add(static_cast<std::uint64_t>(c.klass))
      .add(std::uint64_t{c.server});
}

void hash_requests(Fold& h, const qos::Trace& trace) {
  h.add(std::uint64_t{trace.size()});
  for (const qos::Request& r : trace)
    h.add(r.arrival)
        .add(std::uint64_t{r.client})
        .add(r.lba)
        .add(std::uint64_t{r.size_blocks})
        .add(std::uint64_t{r.is_write});
}

std::vector<std::unique_ptr<qos::Server>> make_servers(qos::Policy policy,
                                                       double cmin_iops,
                                                       double headroom_iops) {
  std::vector<std::unique_ptr<qos::Server>> servers;
  if (policy == qos::Policy::kSplit) {
    servers.push_back(std::make_unique<qos::ConstantRateServer>(cmin_iops));
    servers.push_back(std::make_unique<qos::ConstantRateServer>(
        headroom_iops > 0 ? headroom_iops : 1.0));
  } else {
    servers.push_back(
        std::make_unique<qos::ConstantRateServer>(cmin_iops + headroom_iops));
  }
  return servers;
}

void print_inputs(const char* label, const Args& args,
                  const std::vector<qos::Trace>& traces) {
  Fold input;
  std::uint64_t requests = 0;
  for (const qos::Trace& t : traces) {
    hash_requests(input, t);
    requests += t.size();
  }
  std::printf("%s config presets WS FT OM duration_us %lld requests %llu "
              "policies FCFS Split FairQueue Miser delta_us %lld\n",
              label, static_cast<long long>(preset_duration(args)),
              static_cast<unsigned long long>(requests),
              static_cast<long long>(kDelta));
  std::printf("%s inputs digest %s\n", label,
              input.hex().c_str());
}

std::vector<qos::Trace> make_presets(const Args& args, CallStats& gen) {
  const qos::Time duration = preset_duration(args);
  std::vector<qos::Trace> traces;
  for (std::size_t i = 0; i < std::size(kPresets); ++i) {
    qos::Trace calibrated;
    {
      Timed t(gen, SpanName::kTraceGen, 0);
      calibrated = qos::preset_trace(kPresets[i], duration);
    }
    const auto offset = static_cast<qos::Time>(
        derive_seed(args.seed, i) % static_cast<std::uint64_t>(duration));
    traces.push_back(rotated(calibrated, duration, offset));
  }
  return traces;
}

void ResponseDist::add(qos::Time rt) {
  ++count_;
  if (rt < 0 || static_cast<std::uint64_t>(rt) >= kExact) {
    overflow_.push_back(rt);
    return;
  }
  const auto t = static_cast<std::size_t>(rt);
  if (t >= histogram_.size())
    histogram_.resize(std::min(kExact, std::max(t + 1, 2 * histogram_.size())),
                      0);
  ++histogram_[t];
}

qos::Time ResponseDist::percentile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t t = 0; t < histogram_.size(); ++t) {
    seen += histogram_[t];
    if (seen >= rank) return static_cast<qos::Time>(t);
  }
  std::vector<qos::Time> tail = overflow_;
  std::sort(tail.begin(), tail.end());
  return tail[std::min<std::uint64_t>(rank - seen - 1, tail.size() - 1)];
}

std::uint64_t ResponseDist::beyond(qos::Time t) const {
  std::uint64_t n = 0;
  for (std::size_t x = 0; x < histogram_.size(); ++x)
    if (static_cast<qos::Time>(x) > t) n += histogram_[x];
  for (qos::Time x : overflow_)
    if (x > t) ++n;
  return n;
}

std::size_t ResponseDist::bytes() const {
  return histogram_.capacity() * sizeof(std::uint32_t) +
         overflow_.capacity() * sizeof(qos::Time);
}

void Tally::begin_run() { seen_.clear(); }

void Tally::add(const qos::CompletionRecord& c, qos::Policy policy) {
  fold(hash_, c);
  ++completed_;
  const std::size_t word = c.seq / 64;
  const std::uint64_t bit = std::uint64_t{1} << (c.seq % 64);
  if (word >= seen_.size())
    seen_.resize(std::max<std::size_t>(word + 1, 2 * seen_.size()), 0);
  if ((seen_[word] & bit) != 0) ++duplicates_;
  seen_[word] |= bit;
  const qos::Time rt = c.response_time();
  all_.add(rt);
  const bool late = rt > kDelta;
  if (late) ++missed_delta_;
  if (policy == qos::Policy::kFcfs) return;
  ++decomposing_completed_;
  if (c.klass == qos::ServiceClass::kPrimary) {
    guaranteed_.add(rt);
    if (late && guarantees_q1(policy)) ++q1_late_;
    if (!late) ++q1_useful_;
  }
}

void Tally::end_run(std::uint64_t offered) {
  offered_ += offered;
  for (std::size_t word = 0; word < seen_.size(); ++word) {
    for (std::uint64_t bits = seen_[word]; bits != 0; bits &= bits - 1) {
      const std::uint64_t seq = 64 * word + std::countr_zero(bits);
      if (seq < offered)
        ++unique_;
      else
        ++duplicates_;  // completed, but never offered
    }
  }
  peak_bytes_ =
      std::max(peak_bytes_, seen_.capacity() * sizeof(std::uint64_t) +
                                all_.bytes() + guaranteed_.bytes());
  std::vector<std::uint64_t>().swap(seen_);
}

std::uint64_t Tally::failed() const {
  return (offered_ - unique_) + duplicates_ + shed_ + q1_late_;
}

double Tally::deadline_miss_ratio() const {
  return completed_ == 0 ? 0.0
                         : static_cast<double>(missed_delta_) /
                               static_cast<double>(completed_);
}

double Tally::q1_admit_ratio() const {
  return decomposing_completed_ == 0
             ? 0.0
             : static_cast<double>(q1_useful_) /
                   static_cast<double>(decomposing_completed_);
}

void Tally::print(const char* label) const {
  std::printf("%s deadline_miss_ratio %.6f (%llu of %llu completions > %lld "
              "us)\n",
              label, deadline_miss_ratio(),
              static_cast<unsigned long long>(missed_delta_),
              static_cast<unsigned long long>(completed_),
              static_cast<long long>(kDelta));
  const struct {
    const char* name;
    const ResponseDist* dist;
  } populations[] = {{"guaranteed Q1", &guaranteed_}, {"all", &all_}};
  for (const auto& [name, dist] : populations) {
    const qos::Time p999 = dist->percentile(0.999);
    std::printf("%s %s response_p50_ms %.3f response_p999_ms %.3f (n=%llu, "
                "%llu beyond p999)\n",
                label, name, dist->percentile(0.50) / 1000.0, p999 / 1000.0,
                static_cast<unsigned long long>(dist->count()),
                static_cast<unsigned long long>(dist->beyond(p999)));
  }
  std::printf("%s core.q1_admit_ratio %.6f (%llu useful Q1 admits of %llu "
              "requests at RTT policies)\n",
              label, q1_admit_ratio(),
              static_cast<unsigned long long>(q1_useful_),
              static_cast<unsigned long long>(decomposing_completed_));
  std::printf("%s failed_ratio %.6f (failed %llu of %llu offered; %llu late "
              "Q1 under Miser/Split)\n",
              label,
              offered_ == 0 ? 0.0
                            : static_cast<double>(failed()) /
                                  static_cast<double>(offered_),
              static_cast<unsigned long long>(failed()),
              static_cast<unsigned long long>(offered_),
              static_cast<unsigned long long>(q1_late_));
}

double LayerReport::unattributed_s() const {
  double attributed = 0;
  for (double s : self_s) attributed += s;
  return wall_s - attributed;
}

void LayerReport::emit(Result& r) const {
  static const char* const kLayers[5] = {"trace", "stream", "sim", "core",
                                         "online"};
  static const char* const kPolicies[4] = {"fcfs", "split", "fairqueue",
                                           "miser"};
  static const char* const kCalls[3] = {"arrival_ns", "next_ns",
                                        "complete_ns"};
  r.metric("trace.gen_s", trace_gen_s, "s");
  r.metric("trace.source_ns_per_req", trace_source_ns_per_req, "ns");
  r.metric("stream.merge_self_ns_per_req", stream_merge_self_ns_per_req, "ns");
  r.metric("stream.coordinator_other_s", stream_coordinator_other_s, "s");
  r.metric("stream.lane_busy_s", stream_lane_busy_s, "s");
  r.metric("stream.lane_imbalance", stream_lane_imbalance, "ratio");
  r.metric("stream.windows", stream_windows, "count");
  r.metric("stream.arrivals_per_window", stream_arrivals_per_window, "count");
  r.metric("sim.server_ns_per_call", sim_server_ns_per_call, "ns");
  r.metric("sim.engine_self_ns_per_event", sim_engine_self_ns_per_event, "ns");
  r.metric("core.plan_probes", core_plan_probes, "count");
  r.metric("core.plan_ns_per_probe", core_plan_ns_per_probe, "ns");
  for (int p = 0; p < 4; ++p)
    for (int c = 0; c < 3; ++c)
      r.metric(std::string("core.sched.") + kPolicies[p] + "." + kCalls[c],
               sched_ns[p][c], "ns");
  r.metric("core.q1_admit_ratio", core_q1_admit_ratio, "ratio");
  r.metric("online.admit_ns", online_admit_ns, "ns");
  r.metric("online.admit_p50_ns", online_admit_p50_ns, "ns");
  r.metric("online.admit_p99_ns", online_admit_p99_ns, "ns");
  r.metric("online.poll_dispatch_ns", online_poll_dispatch_ns, "ns");
  r.metric("online.on_completion_ns", online_on_completion_ns, "ns");
  r.metric("online.empty_poll_ratio", online_empty_poll_ratio, "ratio");
  r.metric("online.shaper_self_ns_per_decision",
           online_shaper_self_ns_per_decision, "ns");
  for (int l = 0; l < 5; ++l)
    r.metric(std::string(kLayers[l]) + ".self_s", self_s[l], "s");
  r.metric("bench.wall_s", wall_s, "s");
  r.metric("bench.unattributed_s", unattributed_s(), "s");
  r.metric("bench.trace_overhead", trace_overhead, "ratio");

  std::printf("timer: %.1f ns inside each timed interval, %.1f ns per timed "
              "call in all (removed from every per-layer figure)\n",
              timer_cost().bias_ns, timer_cost().cost_ns);
  std::printf("traced breakdown (self time on the main thread)\n");
  for (int l = 0; l < 5; ++l)
    std::printf("  %-8s %10.4f s\n", kLayers[l], self_s[l]);
  std::printf("  %-8s %10.4f s\n", "(other)", unattributed_s());
  std::printf("  %-8s %10.4f s   bench.trace_overhead %.4f\n", "wall", wall_s,
              trace_overhead);
  // Independent of the layer figures: what (other) must at least hold.
  const std::uint64_t timed = main_thread_timed_calls() + extra_timer_calls;
  std::printf("bench own_s %.4f timer_s %.4f (%llu timed calls on the main "
              "thread)\n",
              own_s, static_cast<double>(timed) * timer_cost().cost_ns * 1e-9,
              static_cast<unsigned long long>(timed));
}

void print_counts(const char* label, std::uint64_t offered,
                  std::uint64_t completed, std::uint64_t failed,
                  std::uint64_t shed) {
  std::printf("%s offered %llu completed %llu failed %llu shed %llu\n", label,
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(shed));
}

void add_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const std::vector<double>& plan_s,
                    const std::vector<double>& events_per_s,
                    const std::vector<double>& decisions_per_s,
                    const Tally& tally) {
  const struct {
    const char* name;
    const std::vector<double>* samples;
    const char* unit;
  } timed[] = {{"setup_s", &setup_s, "s"},
               {"plan_s", &plan_s, "s"},
               {"sim_events_per_s", &events_per_s, "events/s"},
               {"admit_decisions_per_s", &decisions_per_s, "decisions/s"}};
  for (const auto& [name, samples, unit] : timed) {
    result.metric(name, median(*samples), unit);
    std::printf("%s %.6g %s (median of %zu)\n", name, median(*samples), unit,
                samples->size());
  }
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("peak_rss_mb %.6g MB (process peak; the benchmark's tally "
              "holds %.3f MB of it)\n",
              peak_rss_mb(),
              static_cast<double>(tally.peak_bytes()) / (1 << 20));
  const ResponseDist& g = tally.guaranteed();
  result.metric("deadline_miss_ratio", tally.deadline_miss_ratio(), "ratio");
  result.metric("response_p50_ms", g.percentile(0.50) / 1000.0, "ms");
  result.metric("response_p999_ms", g.percentile(0.999) / 1000.0, "ms");
  std::printf("deadline_miss_ratio %.6g ratio (n=%llu)\n",
              tally.deadline_miss_ratio(),
              static_cast<unsigned long long>(tally.completed()));
  std::printf("response_p50_ms %.6g ms, response_p999_ms %.6g ms (guaranteed "
              "class, n=%llu)\n",
              g.percentile(0.50) / 1000.0, g.percentile(0.999) / 1000.0,
              static_cast<unsigned long long>(g.count()));
}

}  // namespace perfbench
