#include "probe.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kPhase: return "bench.phase";
    case SpanName::kTraceGen: return "trace.gen";
    case SpanName::kTraceSource: return "trace.source";
    case SpanName::kStreamMerge: return "stream.merge";
    case SpanName::kStreamSharded: return "stream.sharded";
    case SpanName::kSimSimulate: return "sim.simulate";
    case SpanName::kSimServer: return "sim.server";
    case SpanName::kCorePlan: return "core.plan";
    case SpanName::kSchedArrival: return "core.sched.on_arrival";
    case SpanName::kSchedNext: return "core.sched.next_for";
    case SpanName::kSchedComplete: return "core.sched.on_complete";
    case SpanName::kOnlineAdmit: return "online.admit";
    case SpanName::kOnlinePoll: return "online.poll_dispatch";
    case SpanName::kOnlineComplete: return "online.on_completion";
  }
  return "?";
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  SpanName name = SpanName::kPhase;
};

struct Frame {
  std::uint64_t id;  ///< nearest recorded span at or above this frame
  bool force;        ///< children are recorded regardless of sampling
};

// Per-thread probe state, owned by a process-wide registry so it outlives
// the pool threads that simulate_sharded starts and joins.
struct ThreadState {
  std::uint32_t index = 0;
  bool main = false;

  std::vector<Span> spans;
  std::vector<Frame> stack;
  std::uint64_t next_local = 1;
  std::uint64_t timed_calls = 0;

  // Open lane interval and running totals (see lane_touch).
  bool lane_open = false;
  std::uint32_t lane = 0;
  std::uint64_t epoch = 0;
  std::int64_t lane_start = 0;
  std::int64_t lane_end = 0;
  std::int64_t epoch_busy = 0;  ///< lane time in `epoch`, closed intervals
  std::int64_t busy_ns = 0;
  std::uint64_t intervals = 0;
  std::uint64_t calls = 0;  ///< lane calls (scheduler and server)
  CallStats sched;          ///< the scheduler calls among them
  std::vector<std::pair<std::uint64_t, std::int64_t>> per_epoch;

  std::uint64_t new_id() {
    return (static_cast<std::uint64_t>(index + 1) << 40) | next_local++;
  }

  void close_lane() {
    if (!lane_open) return;
    const std::int64_t d = lane_end - lane_start;
    busy_ns += d;
    epoch_busy += d;
    lane_open = false;
  }
  void flush_epoch() {
    if (epoch_busy > 0) per_epoch.emplace_back(epoch, epoch_busy);
    epoch_busy = 0;
  }
};

const std::thread::id g_main_thread = std::this_thread::get_id();

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by the mutex

std::atomic<bool> g_spans_on{false};
std::uint64_t g_sample_mask = 0;  // written before spans are switched on
std::atomic<std::uint64_t> g_phase{0};
std::atomic<std::uint64_t> g_epoch{1};
TimerCost g_timer_cost;  // written before spans are switched on

ThreadState* register_thread() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  auto state = std::make_unique<ThreadState>();
  state->index = static_cast<std::uint32_t>(g_threads.size());
  state->main = std::this_thread::get_id() == g_main_thread;
  g_threads.push_back(std::move(state));
  return g_threads.back().get();
}

ThreadState& this_thread() {
  thread_local ThreadState* state = register_thread();
  return *state;
}

}  // namespace

const TimerCost& timer_cost() { return g_timer_cost; }

void enable_spans(unsigned sample_shift) {
  g_sample_mask = (std::uint64_t{1} << sample_shift) - 1;
  g_spans_on.store(true, std::memory_order_relaxed);
  // Empty timed calls, with spans on, for a request that is never sampled;
  // the least costly of a few batches discounts interruptions.
  constexpr int kBatch = 100'000;
  TimerCost best{1e9, 1e9};
  for (int b = 0; b < 5; ++b) {
    CallStats empty;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) Timed t(empty, SpanName::kPhase, 1);
    const auto batch_ns = static_cast<double>(now_ns() - t0);
    best.bias_ns = std::min(best.bias_ns,
                            static_cast<double>(empty.ns) / kBatch);
    best.cost_ns = std::min(best.cost_ns, batch_ns / kBatch);
  }
  g_timer_cost = best;
  this_thread().timed_calls = 0;  // the calibration's calls are outside
}

Timed::Timed(CallStats& stats, SpanName name, std::uint64_t req)
    : Timed(stats, name, req, false) {}

Timed Timed::phase(CallStats& stats, SpanName name) {
  return Timed(stats, name, 0, true);
}

Timed::Timed(CallStats& stats, SpanName name, std::uint64_t req, bool phase)
    : stats_(&stats), req_(req), name_(name) {
  if (g_spans_on.load(std::memory_order_relaxed)) {
    ThreadState& t = this_thread();
    ++t.timed_calls;
    const bool parent_forces = !t.stack.empty() && t.stack.back().force;
    if (phase || parent_forces || (req & g_sample_mask) == 0) id_ = t.new_id();
    const std::uint64_t inherited = t.stack.empty() ? 0 : t.stack.back().id;
    t.stack.push_back({id_ != 0 ? id_ : inherited, id_ != 0 && !phase});
    pushed_ = true;
    if (phase && t.main) g_phase.store(id_, std::memory_order_relaxed);
  }
  start_ = now_ns();
}

std::int64_t Timed::stop() {
  if (end_ >= 0) return end_;
  end_ = now_ns();
  stats_->add(end_ - start_);
  if (pushed_) {
    ThreadState& t = this_thread();
    t.stack.pop_back();
    if (id_ != 0) {
      std::uint64_t parent = 0;
      if (!t.stack.empty())
        parent = t.stack.back().id;
      else if (!t.main)
        parent = g_phase.load(std::memory_order_relaxed);
      t.spans.push_back({id_, parent, req_, start_, end_, name_});
    }
  }
  return end_;
}

std::uint64_t main_thread_timed_calls() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::uint64_t n = 0;
  for (const auto& t : g_threads)
    if (t->main) n += t->timed_calls;
  return n;
}

std::size_t write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "id\tparent\tthread\tname\treq\tstart_ns\tend_ns\n");
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& t : g_threads) {
    for (const Span& s : t->spans) {
      std::fprintf(f, "%llu\t%llu\t%u\t%s\t%llu\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), t->index,
                   span_name(s.name), static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

void next_epoch() { g_epoch.fetch_add(1, std::memory_order_relaxed); }

void lane_touch(std::uint32_t lane, std::int64_t start, std::int64_t end,
                bool is_scheduler) {
  ThreadState& t = this_thread();
  ++t.calls;
  if (is_scheduler) t.sched.add(end - start);
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  if (t.lane_open && t.epoch == epoch && t.lane == lane) {
    t.lane_end = end;
    return;
  }
  t.close_lane();
  if (t.epoch != epoch) {
    t.flush_epoch();
    t.epoch = epoch;
  }
  t.lane_open = true;
  ++t.intervals;
  t.lane = lane;
  t.lane_start = start;
  t.lane_end = end;
}

LaneTotals collect_lane_totals(int threads) {
  LaneTotals out;
  std::unordered_map<std::uint64_t, std::pair<std::int64_t, std::int64_t>>
      windows;  // epoch -> (max thread busy, sum of thread busy)
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  const TimerCost& c = g_timer_cost;
  for (const auto& t : g_threads) {
    t->close_lane();
    t->flush_epoch();
    // An interval runs from its first call's start to its last call's end:
    // it holds every call's bias and, between calls, the rest of the timer.
    const double busy =
        static_cast<double>(t->busy_ns) -
        static_cast<double>(t->calls) * c.bias_ns -
        static_cast<double>(t->calls - t->intervals) * (c.cost_ns - c.bias_ns);
    out.busy_ns += busy;
    if (t->main) {
      out.main_busy_ns += busy;
      out.main_sched_ns += t->sched.net_ns();
      out.main_gross_ns += static_cast<double>(t->busy_ns) +
                           static_cast<double>(t->intervals) *
                               (c.cost_ns - c.bias_ns);
    }
    for (const auto& [epoch, busy] : t->per_epoch) {
      auto& w = windows[epoch];
      w.first = std::max(w.first, busy);
      w.second += busy;
    }
  }
  for (const auto& [epoch, w] : windows) {
    out.window_max_ns += static_cast<double>(w.first);
    out.window_mean_ns += static_cast<double>(w.second) / threads;
  }
  return out;
}

void TimedScheduler::finish(Timed& t) {
  const std::int64_t end = t.stop();
  if (lane_ >= 0)
    lane_touch(static_cast<std::uint32_t>(lane_), t.start(), end, true);
}

void TimedScheduler::on_arrival(const qos::Request& r, qos::Time now) {
  Timed t(stats_->arrival, SpanName::kSchedArrival, r.seq);
  inner_->on_arrival(r, now);
  finish(t);
}

std::optional<qos::Scheduler::Dispatch> TimedScheduler::next_for(
    int server, qos::Time now) {
  // The request is unknown until the call returns; sample on the
  // scheduler's call count instead so idle polls are sampled too.
  Timed t(stats_->next, SpanName::kSchedNext, stats_->next.calls);
  auto d = inner_->next_for(server, now);
  if (d) t.set_req(d->request.seq);
  finish(t);
  return d;
}

void TimedScheduler::on_complete(const qos::Request& r, qos::ServiceClass klass,
                                 int server, qos::Time now) {
  Timed t(stats_->complete, SpanName::kSchedComplete, r.seq);
  inner_->on_complete(r, klass, server, now);
  finish(t);
}

CallStats report_schedulers(LayerReport& report,
                            const TimedScheduler::Stats (&by_policy)[4]) {
  CallStats all;
  for (int p = 0; p < 4; ++p) {
    const CallStats* calls[3] = {&by_policy[p].arrival, &by_policy[p].next,
                                 &by_policy[p].complete};
    for (int c = 0; c < 3; ++c) {
      report.sched_ns[p][c] = calls[c]->mean_ns();
      all.merge(*calls[c]);
    }
  }
  return all;
}

qos::Time TimedServer::service_duration(const qos::Request& r, qos::Time now) {
  Timed t(*stats_, SpanName::kSimServer, r.seq);
  const qos::Time d = inner_->service_duration(r, now);
  const std::int64_t end = t.stop();
  if (lane_ >= 0)
    lane_touch(static_cast<std::uint32_t>(lane_), t.start(), end, false);
  return d;
}

std::optional<qos::Request> TimedStream::next() {
  if (bump_epoch_) next_epoch();
  Timed t(*stats_, name_, pulls_++);
  return inner_->next();
}

}  // namespace perfbench
