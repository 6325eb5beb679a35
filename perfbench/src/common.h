// Shared pieces of the three workloads: arguments, the result record the
// binary prints, the outcome tally that checks and summarizes completions,
// and small statistics helpers.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/shaper.h"
#include "sim/completion.h"
#include "sim/server.h"
#include "trace/presets.h"
#include "trace/trace.h"
#include "util/time.h"

namespace perfbench {

struct CallStats;

/// δ for every workload: the paper's 10 ms response-time bound.
inline constexpr qos::Time kDelta = qos::from_ms(10);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measuring time of the run phase
  bool trace = false;
  /// Input size relative to the benchmark's (tests use small scales).
  double scale = 1.0;
  int shards = 2;  ///< many-tenants only
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// The paper's three calibrated traces and its four policies, in the order
/// every workload visits them.
inline constexpr qos::Workload kPresets[3] = {
    qos::Workload::kWebSearch, qos::Workload::kFinTrans,
    qos::Workload::kOpenMail};
inline constexpr qos::Policy kPolicies[4] = {
    qos::Policy::kFcfs, qos::Policy::kSplit, qos::Policy::kFairQueue,
    qos::Policy::kMiser};
/// Backing servers as shape_and_run builds them: Split gets a server at
/// Cmin plus an overflow server at the headroom dC, every other policy one
/// server at Cmin + dC.
std::vector<std::unique_ptr<qos::Server>> make_servers(qos::Policy policy,
                                                       double cmin_iops,
                                                       double headroom_iops);
/// Order-sensitive 64-bit digest of a word sequence, one multiply per word,
/// cheap enough to fold every decision and completion inside a timed loop.
class Fold {
 public:
  Fold& add(std::uint64_t w) {
    h_ = (h_ ^ w) * 0x9E3779B97F4A7C15ull;
    h_ ^= h_ >> 29;
    return *this;
  }
  Fold& add(std::int64_t w) { return add(static_cast<std::uint64_t>(w)); }
  Fold& add(double w) { return add(std::bit_cast<std::uint64_t>(w)); }
  std::uint64_t value() const { return h_; }
  /// 16 hex digits.
  std::string hex() const;

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ull;
};

/// Folds one completion record into `h`, field by field.
void fold(Fold& h, const qos::CompletionRecord& c);

/// Derives an independent 64-bit seed for input stream `index` of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Folds every request of `trace` into `h` (the input digest).
void hash_requests(Fold& h, const qos::Trace& trace);

/// Materializes the three presets for `args` (1 h each, times args.scale):
/// the calibrated trace rotated cyclically by an offset drawn from
/// args.seed.  Each preset_trace call is timed into `gen` (a trace.gen
/// span); the rotation, the benchmark's own work, is not.
std::vector<qos::Trace> make_presets(const Args& args, CallStats& gen);

/// Prints the presets' configuration line and input digest.
void print_inputs(const char* label, const Args& args,
                  const std::vector<qos::Trace>& traces);

/// Response times with exact nearest-rank percentiles: 1 µs buckets up to
/// kExact, grown only as far as the longest response seen; the rare longer
/// ones kept individually.
class ResponseDist {
 public:
  void add(qos::Time rt);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile, in µs (0 when empty).
  qos::Time percentile(double q) const;
  /// Samples above `t`.
  std::uint64_t beyond(qos::Time t) const;
  /// Heap bytes held.
  std::size_t bytes() const;

 private:
  static constexpr std::size_t kExact = std::size_t{1} << 17;

  std::vector<std::uint32_t> histogram_;
  std::vector<qos::Time> overflow_;
  std::uint64_t count_ = 0;
};

/// Counts, checks and summarizes completions.  One tally covers one pass of
/// a workload; several simulated runs (policy x trace, or one sharded run)
/// feed it, each bracketed by begin_run / end_run so exactly-once is checked
/// per run over its dense seqs.
class Tally {
 public:
  void begin_run();
  /// One completion of a request served under `policy`.  Miser and Split
  /// guarantee Q1 deadlines, so a late Q1 completion under them is a
  /// failure; every policy but FCFS runs RTT admission, so its requests
  /// count towards the Q1 admit ratio and its Q1 completions form the
  /// guaranteed class.
  void add(const qos::CompletionRecord& c, qos::Policy policy);
  /// Closes the run that offered seqs [0, offered): requests never
  /// completed count as failed.
  void end_run(std::uint64_t offered);
  void add_shed(std::uint64_t n) { shed_ += n; }

  std::uint64_t offered() const { return offered_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t shed() const { return shed_; }
  /// offered - completed once + duplicates + shed + late Q1 under a
  /// guaranteeing policy.
  std::uint64_t failed() const;
  /// Completions later than δ over all completions.
  double deadline_miss_ratio() const;
  /// Q1 admits that met δ over requests served by RTT policies.
  double q1_admit_ratio() const;
  /// Every completion.
  const ResponseDist& all() const { return all_; }
  /// Q1 completions under RTT policies: the class graduated QoS promises δ.
  const ResponseDist& guaranteed() const { return guaranteed_; }
  const Fold& digest() const { return hash_; }
  /// Most heap bytes the tally has held: the benchmark's own share of
  /// peak_rss_mb.
  std::size_t peak_bytes() const { return peak_bytes_; }

  /// Prints the outcome metrics with their sample counts.
  void print(const char* label) const;

 private:
  Fold hash_;
  ResponseDist all_;
  ResponseDist guaranteed_;

  /// Current run: one bit per seq, set once it has completed.
  std::vector<std::uint64_t> seen_;

  std::uint64_t offered_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t unique_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t q1_late_ = 0;
  std::uint64_t missed_delta_ = 0;
  std::uint64_t decomposing_completed_ = 0;
  std::uint64_t q1_useful_ = 0;
  std::size_t peak_bytes_ = 0;
};

/// The per-layer metrics of a traced run.  Every workload prints the whole
/// set; a layer the workload does not run reads 0.
struct LayerReport {
  double trace_gen_s = 0;
  double trace_source_ns_per_req = 0;
  double stream_merge_self_ns_per_req = 0;
  double stream_coordinator_other_s = 0;
  double stream_lane_busy_s = 0;
  double stream_lane_imbalance = 0;
  double stream_windows = 0;
  double stream_arrivals_per_window = 0;
  double sim_server_ns_per_call = 0;
  double sim_engine_self_ns_per_event = 0;
  double core_plan_probes = 0;
  double core_plan_ns_per_probe = 0;
  /// [policy][on_arrival, next_for, on_complete] mean ns per call, policies
  /// in qos::Policy order (FCFS, Split, FairQueue, Miser).
  double sched_ns[4][3] = {};
  double core_q1_admit_ratio = 0;
  double online_admit_ns = 0;
  double online_admit_p50_ns = 0;
  double online_admit_p99_ns = 0;
  double online_poll_dispatch_ns = 0;
  double online_on_completion_ns = 0;
  double online_empty_poll_ratio = 0;
  double online_shaper_self_ns_per_decision = 0;
  /// Self time per layer along the traced run's blocking (main) thread:
  /// trace, stream, sim, core, online.
  double self_s[5] = {};
  double wall_s = 0;  ///< the traced part of the run
  /// The benchmark's own work on the main thread (rotating and digesting
  /// inputs, tallying results), timed directly: none of it calls the
  /// library.
  double own_s = 0;
  /// Clock-read pairs on the main thread that are not Timed calls.
  std::uint64_t extra_timer_calls = 0;
  double trace_overhead = 0;

  double unattributed_s() const;
  /// Prints the breakdown and appends every per-layer metric to `result`.
  void emit(Result& result) const;
};

/// Prints "<label> offered N completed N failed N shed N".
void print_counts(const char* label, std::uint64_t offered,
                  std::uint64_t completed, std::uint64_t failed,
                  std::uint64_t shed);

/// Adds the end-to-end metrics: medians of the per-set-up and per-pass
/// samples, peak RSS, and from `tally` deadline_miss_ratio over all
/// completions and response_p50_ms / response_p999_ms over the guaranteed
/// class.
void add_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const std::vector<double>& plan_s,
                    const std::vector<double>& events_per_s,
                    const std::vector<double>& decisions_per_s,
                    const Tally& tally);

}  // namespace perfbench
