// Timing probes for the traced run: call counters, sampled spans and the
// forwarding decorators that time calls into the library's public
// interfaces (Scheduler, Server, stream::RequestStream).  Nothing here is
// compiled into the library; the untraced run never constructs a decorator,
// so the end-to-end figures measure the plain objects.
//
// Spans.  Every timed call can become a span: name, start, end, the id of
// the enclosing span and the request it served.  Phase spans (a whole
// simulate() call, a planning step) are always kept; per-request spans are
// kept when the request id is sampled, together with every span nested in
// them, so a kept request has its complete call tree.  Spans stay in
// per-thread memory and are written once, at exit (write_spans).
//
// Lane attribution.  simulate_sharded runs lanes on pool threads where no
// call of the benchmark's own brackets the work.  A lane decorator reports
// each call to lane_touch(); consecutive calls of one lane inside one
// barrier window on one thread form one lane interval, from the start of
// the first call to the end of the last.  The coordinator bumps the window
// epoch (next_epoch) whenever it feeds or drains, which only happens
// between barrier steps.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common.h"
#include "sim/scheduler.h"
#include "sim/server.h"
#include "stream/stream.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one timed call costs the measurement, calibrated when spans are
/// switched on and zero before: `bias_ns` lands inside the interval the
/// timer measures (about one clock read), `cost_ns` is the whole timer as
/// seen from the interval that encloses it.
struct TimerCost {
  double bias_ns = 0;
  double cost_ns = 0;
};
const TimerCost& timer_cost();

/// Calls of one kind and the wall time spent inside them.
struct CallStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::int64_t d) {
    ++calls;
    ns += d;
  }
  void merge(const CallStats& o) {
    calls += o.calls;
    ns += o.ns;
  }
  /// Time inside the calls with the timer's own bias removed.
  double net_ns() const {
    const double net = static_cast<double>(ns) -
                       static_cast<double>(calls) * timer_cost().bias_ns;
    return net > 0 ? net : 0;
  }
  /// Time the calls took out of the enclosing interval, timers included.
  double gross_ns() const {
    return static_cast<double>(ns) +
           static_cast<double>(calls) *
               (timer_cost().cost_ns - timer_cost().bias_ns);
  }
  double seconds() const { return net_ns() * 1e-9; }
  double mean_ns() const {
    return calls == 0 ? 0.0 : net_ns() / static_cast<double>(calls);
  }
};

/// Span names.  The text before the first '.' is the layer.
enum class SpanName : std::uint8_t {
  kPhase,           ///< bench.phase — a whole step of the traced pass
  kTraceGen,        ///< trace.gen — preset_trace / generate_poisson
  kTraceSource,     ///< trace.source — one pull from a generator stream
  kStreamMerge,     ///< stream.merge — one pull from the MergedStream
  kStreamSharded,   ///< stream.sharded — one simulate_sharded call
  kSimSimulate,     ///< sim.simulate — one simulate() call
  kSimServer,       ///< sim.server — Server::service_duration
  kCorePlan,        ///< core.plan — min_capacity
  kSchedArrival,    ///< core.sched — Scheduler::on_arrival
  kSchedNext,       ///< core.sched — Scheduler::next_for
  kSchedComplete,   ///< core.sched — Scheduler::on_complete
  kOnlineAdmit,     ///< online.admit — Shaper::admit
  kOnlinePoll,      ///< online.poll_dispatch — Shaper::poll_dispatch
  kOnlineComplete,  ///< online.on_completion — Shaper::on_completion
};

/// Switch span recording on for the traced pass and calibrate timer_cost().
/// `sample_shift` keeps the spans of one request in 2^sample_shift.
void enable_spans(unsigned sample_shift);

/// RAII timer: adds the call's duration to `stats` and, when spans are on,
/// records a span if the request is sampled or the enclosing span is a
/// sampled request span.  `req` may be set after construction (a stream
/// pull learns its request only when it returns) but the sampling decision
/// is taken at entry, from the id given there.
class Timed {
 public:
  Timed(CallStats& stats, SpanName name, std::uint64_t req);
  /// Phase span: always recorded when spans are on; its children are not
  /// forced into the sample.
  static Timed phase(CallStats& stats, SpanName name);
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the call (once; later calls return the same instant).
  std::int64_t stop();
  std::int64_t start() const { return start_; }
  void set_req(std::uint64_t req) { req_ = req; }

 private:
  Timed(CallStats& stats, SpanName name, std::uint64_t req, bool phase);

  CallStats* stats_;
  std::int64_t start_ = 0;
  std::int64_t end_ = -1;
  std::uint64_t req_ = 0;
  std::uint64_t id_ = 0;  ///< nonzero when this span is recorded
  SpanName name_;
  bool pushed_ = false;
};

/// Timed calls made on the main thread since spans were switched on.
std::uint64_t main_thread_timed_calls();

/// Writes every recorded span as TSV (id, parent, thread, name, request,
/// start_ns, end_ns); returns the number written.
std::size_t write_spans(const std::string& path);

// ---- lane attribution (many-tenants) ----

/// Advance the barrier-window epoch.  Coordinator thread only, between
/// barrier steps.
void next_epoch();
/// Record that a scheduler or server call for `lane` ran on this thread over
/// [start, end).
void lane_touch(std::uint32_t lane, std::int64_t start, std::int64_t end,
                bool is_scheduler);

/// Lane busy time gathered from every thread, timer cost removed.
struct LaneTotals {
  double busy_ns = 0;        ///< all threads
  double main_busy_ns = 0;   ///< coordinator thread only
  double main_sched_ns = 0;  ///< scheduler calls on the coordinator
  /// Coordinator lane intervals as its wall clock saw them, timers included.
  double main_gross_ns = 0;
  /// Σ over windows of the busiest thread's lane time, and of the mean
  /// thread's lane time across `threads` threads.
  double window_max_ns = 0;
  double window_mean_ns = 0;
};
/// Closes open lane intervals and folds every thread's totals.  Call after
/// the pool that ran the lanes has been joined.
LaneTotals collect_lane_totals(int threads);

// ---- forwarding decorators ----

/// Times every call into a Scheduler.  `lane` >= 0 also feeds lane
/// attribution; -1 for the single-threaded workloads.
class TimedScheduler final : public qos::Scheduler {
 public:
  struct Stats {
    CallStats arrival, next, complete;
  };
  TimedScheduler(std::unique_ptr<qos::Scheduler> inner, Stats& stats,
                 int lane = -1)
      : inner_(std::move(inner)), stats_(&stats), lane_(lane) {}

  void attach_observability(qos::EventSink* sink,
                            qos::MetricRegistry* registry) override {
    inner_->attach_observability(sink, registry);
  }
  int server_count() const override { return inner_->server_count(); }
  bool fans_out() const override { return inner_->fans_out(); }
  bool arrival_joins_primary(qos::Time now) override {
    return inner_->arrival_joins_primary(now);
  }
  void on_arrival(const qos::Request& r, qos::Time now) override;
  std::optional<Dispatch> next_for(int server, qos::Time now) override;
  void on_complete(const qos::Request& r, qos::ServiceClass klass, int server,
                   qos::Time now) override;

 private:
  void finish(Timed& t);

  std::unique_ptr<qos::Scheduler> inner_;
  Stats* stats_;
  int lane_;
};

/// Fills report.sched_ns from per-policy call timings (qos::Policy order)
/// and returns every scheduler call added together.
CallStats report_schedulers(LayerReport& report,
                            const TimedScheduler::Stats (&by_policy)[4]);

/// Times Server::service_duration.
class TimedServer final : public qos::Server {
 public:
  TimedServer(std::unique_ptr<qos::Server> inner, CallStats& stats,
              int lane = -1)
      : inner_(std::move(inner)), stats_(&stats), lane_(lane) {}

  qos::Time service_duration(const qos::Request& r, qos::Time now) override;
  void attach_observability(qos::EventSink* sink) override {
    inner_->attach_observability(sink);
  }

 private:
  std::unique_ptr<qos::Server> inner_;
  CallStats* stats_;
  int lane_;
};

/// Times RequestStream::next.  Request ids for sampling are the pull index,
/// which equals the seq the stream hands out (streams number densely).
class TimedStream final : public qos::stream::RequestStream {
 public:
  TimedStream(std::unique_ptr<qos::stream::RequestStream> inner,
              CallStats& stats, SpanName name, bool bump_epoch)
      : owned_(std::move(inner)), inner_(owned_.get()), stats_(&stats),
        name_(name), bump_epoch_(bump_epoch) {}
  TimedStream(qos::stream::RequestStream& inner, CallStats& stats,
              SpanName name, bool bump_epoch)
      : inner_(&inner), stats_(&stats), name_(name), bump_epoch_(bump_epoch) {}

  std::optional<qos::Request> next() override;

 private:
  std::unique_ptr<qos::stream::RequestStream> owned_;
  qos::stream::RequestStream* inner_;
  CallStats* stats_;
  SpanName name_;
  bool bump_epoch_;
  std::uint64_t pulls_ = 0;
};

}  // namespace perfbench
