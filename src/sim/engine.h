// Event core — one dispatch fixed point and one event loop for every driver.
//
// The simulate() loop is cut into two halves:
//
//   * Dispatcher (the dispatch half) holds the Scheduler, the event Probe and
//     the sorted idle-server list.  arrive() delivers one arrival, fill()
//     runs the idle-server fixed point, complete() retires one service, and
//     each emits its own kArrival / kDispatch / kCompletion event.  It knows
//     nothing of time passing or of how long service takes.
//   * ServiceLoop<D> (the service half) holds the buffered arrivals, the
//     busy-server completion heap, the per-server in-flight records, the
//     servers and the VirtualClock.  advance_until(T) is the one event loop:
//     it retires every event strictly before T through its dispatch half D
//     and returns, resumable from T.  D is a template parameter, not a
//     virtual interface, so the simulator's hot loop makes no extra call.
//
// SimEngine is ServiceLoop<Dispatcher>.  The drivers:
//   * simulate(Trace, ...)            — push each request, drain to the end;
//   * stream::simulate_stream(...)    — pull from a RequestStream, pushing
//     each request after retiring everything before its arrival, so only the
//     same-instant arrival batch is ever buffered;
//   * stream::simulate_sharded(...)   — one engine per tenant lane advancing
//     under a conservative virtual-time barrier (lookahead = δ), where
//     advance_until(W + δ) is the barrier step;
//   * online::Shaper                  — no loop of its own: a Dispatcher
//     behind a mutex, so admit / poll_dispatch / on_completion are arrive /
//     fill / complete;
//   * online::replay_trace(...)       — a ServiceLoop whose dispatch half is
//     a Shaper, so the replay runs this very loop.
// Because all of them make the identical calls in the identical order,
// streamed, sharded and replayed runs are bit-identical to the materialized
// single-threaded reference by construction (tests/test_stream.cpp,
// tests/test_sharded_sim.cpp, tests/test_online_shaper.cpp).
//
// Event order contract: events are ordered by time; at one instant,
// completions retire first (in server-index order — the heap's (finish,
// server) tie-break), then every arrival at that instant is delivered, then
// dispatch offers run to a fixed point over the sorted idle list.  A
// dispatch asks its server for the service duration (the server may emit
// events of its own) before the kDispatch event.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "obs/sink.h"
#include "sim/completion.h"
#include "sim/scheduler.h"
#include "sim/server.h"
#include "trace/request.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/indexed_heap.h"
#include "util/ring_buffer.h"

namespace qos {

class Dispatcher {
 public:
  /// Every server starts idle.  When `sink` is non-null the dispatcher
  /// emits kArrival / kDispatch / kCompletion into it.  The scheduler is
  /// borrowed and must outlive the dispatcher.
  Dispatcher(Scheduler& scheduler, EventSink* sink)
      : scheduler_(&scheduler),
        probe_(sink),
        idle_(static_cast<std::size_t>(scheduler.server_count())) {
    for (std::size_t s = 0; s < idle_.size(); ++s)
      idle_[s] = static_cast<int>(s);
  }

  int server_count() const { return scheduler_->server_count(); }
  int idle_count() const { return static_cast<int>(idle_.size()); }
  bool idle(int server) const {
    return std::binary_search(idle_.begin(), idle_.end(), server);
  }

  /// Deliver one arrival at `now`.
  void arrive(const Request& r, Time now) {
    if (probe_) {
      probe_.emit({.time = now,
                   .seq = r.seq,
                   .client = r.client,
                   .kind = EventKind::kArrival});
    }
    scheduler_->on_arrival(r, now);
  }

  /// Offer work to every idle server until no server accepts, calling
  /// `start(server, dispatch)` for each dispatch before its kDispatch event.
  /// A dispatch on one server can change scheduler state (e.g. Miser
  /// slack), so loop to a fixed point.  Visiting only the idle list (kept
  /// sorted ascending) preserves the full-scan call order on the scheduler.
  template <typename Start>
  void fill(Time now, Start&& start) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t k = 0; k < idle_.size();) {
        const int s = idle_[k];
        auto d = scheduler_->next_for(s, now);
        if (!d) {
          ++k;
          continue;
        }
        idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(k));
        start(s, *d);
        if (probe_) {
          probe_.emit({.time = now,
                       .seq = d->request.seq,
                       .a = now - d->request.arrival,
                       .client = d->request.client,
                       .kind = EventKind::kDispatch,
                       .klass = d->klass,
                       .server = static_cast<std::uint8_t>(s)});
        }
        progress = true;
      }
    }
  }

  /// Busy server `server` finished serving `r` (class `klass`) at `now`.
  void complete(const Request& r, ServiceClass klass, int server, Time now) {
    idle_.insert(std::lower_bound(idle_.begin(), idle_.end(), server),
                 server);
    if (probe_) {
      probe_.emit({.time = now,
                   .seq = r.seq,
                   .a = now - r.arrival,
                   .client = r.client,
                   .kind = EventKind::kCompletion,
                   .klass = klass,
                   .server = static_cast<std::uint8_t>(server)});
    }
    scheduler_->on_complete(r, klass, server, now);
  }

 private:
  Scheduler* scheduler_;
  Probe probe_;
  std::vector<int> idle_;  ///< idle servers, ascending
};

/// `D` is the dispatch half: server_count(), arrive(r, now), fill(now,
/// start) and complete(r, klass, server, now) with Dispatcher's meaning.
template <typename D>
class ServiceLoop {
 public:
  /// `servers[i]` backs scheduler server index i; sizes must match.  When
  /// `sink` is non-null it is forwarded to every server
  /// (Server::attach_observability).  The servers are borrowed and must
  /// outlive the loop.
  ServiceLoop(D dispatch, std::span<Server* const> servers, EventSink* sink)
      : dispatch_(std::move(dispatch)),
        servers_(servers.begin(), servers.end()),
        slot_(servers.size()),
        pending_(static_cast<int>(servers.size())) {
    QOS_EXPECTS(static_cast<int>(servers.size()) == dispatch_.server_count());
    QOS_EXPECTS(!servers.empty());
    if (sink != nullptr)
      for (Server* s : servers_) s->attach_observability(sink);
  }

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  /// Buffer an arrival.  Arrivals must be pushed in non-decreasing order and
  /// never before the loop's current instant — an arrival the clock has
  /// already passed would be time travel.
  void push_arrival(const Request& r) {
    QOS_EXPECTS(r.arrival >= clock_.now());
    QOS_EXPECTS(arrivals_.empty() || r.arrival >= arrivals_.back().arrival);
    arrivals_.push_back(r);
  }

  /// Instant of the next event (buffered arrival or in-flight completion);
  /// kTimeMax when the loop is fully drained.
  Time next_event_time() const {
    const Time completion = pending_.empty() ? kTimeMax : pending_.top_key();
    const Time arrival = arrivals_.empty() ? kTimeMax
                                           : arrivals_.front().arrival;
    return std::min(completion, arrival);
  }

  /// True when no buffered arrival and no in-flight service remains.
  bool drained() const { return next_event_time() == kTimeMax; }

  /// Retire every event with instant strictly before `limit`, passing each
  /// CompletionRecord to `out` in retire order (finish order; equal-finish
  /// ties in server-index order).  Resumable: a later call with a larger
  /// limit continues exactly where this one stopped.  advance_until(kTimeMax)
  /// drains the loop (no event ever occurs at kTimeMax itself).
  template <typename Out>
  void advance_until(Time limit, Out&& out) {
    while (true) {
      const Time next_event = next_event_time();
      if (next_event >= limit) return;
      clock_.advance_to(next_event);
      const Time now = clock_.now();

      while (!pending_.empty() && pending_.top_key() == now) {
        const int s = pending_.pop();
        const CompletionRecord& record = slot_[static_cast<std::size_t>(s)];
        ++completions_;
        out(record);
        dispatch_.complete(Request{.arrival = record.arrival,
                                   .seq = record.seq,
                                   .client = record.client},
                           record.klass, s, now);
      }

      while (!arrivals_.empty() && arrivals_.front().arrival == now) {
        ++arrivals_delivered_;
        dispatch_.arrive(arrivals_.front(), now);
        arrivals_.pop_front();
      }

      dispatch_.fill(now, [this, now](int s, const Scheduler::Dispatch& d) {
        start(s, d, now);
      });
    }
  }

  /// Push every request of the sorted range `requests` and drain: the
  /// materialized cadence (retire everything before each arrival instant,
  /// buffer the arrival, drain at the end).
  template <typename Requests, typename Out>
  void run(const Requests& requests, Out&& out) {
    for (const Request& r : requests) {
      advance_until(r.arrival, out);
      push_arrival(r);
    }
    advance_until(kTimeMax, out);
  }

  // ---- counters (events processed so far) ----
  std::uint64_t arrivals_delivered() const { return arrivals_delivered_; }
  std::uint64_t dispatches() const { return dispatches_; }
  std::uint64_t completions() const { return completions_; }
  /// Total simulator events: arrivals + dispatches + completions.
  std::uint64_t events() const {
    return arrivals_delivered_ + dispatches_ + completions_;
  }

 private:
  void start(int s, const Scheduler::Dispatch& d, Time now) {
    const Time dur = servers_[static_cast<std::size_t>(s)]
                         ->service_duration(d.request, now);
    QOS_CHECK(dur > 0);
    slot_[static_cast<std::size_t>(s)] = CompletionRecord{
        .seq = d.request.seq,
        .client = d.request.client,
        .arrival = d.request.arrival,
        .start = now,
        .finish = now + dur,
        .klass = d.klass,
        .server = static_cast<std::uint8_t>(s),
    };
    pending_.push(s, now + dur);
    ++dispatches_;
  }

  D dispatch_;
  std::vector<Server*> servers_;

  RingBuffer<Request> arrivals_;         ///< buffered, non-decreasing
  std::vector<CompletionRecord> slot_;   ///< in-flight record per server
  IndexedMinHeap<Time> pending_;         ///< busy servers keyed by finish
  VirtualClock clock_;

  std::uint64_t arrivals_delivered_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t completions_ = 0;
};

/// The simulator: a ServiceLoop over a plain Dispatcher.  When `sink` is
/// non-null the engine emits kArrival / kDispatch / kCompletion events and
/// forwards the sink to every server, exactly as simulate() documents.  The
/// scheduler and servers are borrowed and must outlive the engine.
class SimEngine final : public ServiceLoop<Dispatcher> {
 public:
  SimEngine(Scheduler& scheduler, std::span<Server* const> servers,
            EventSink* sink = nullptr)
      : ServiceLoop(Dispatcher(scheduler, sink), servers, sink) {}
};

}  // namespace qos
