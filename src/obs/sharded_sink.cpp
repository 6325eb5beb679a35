#include "obs/sharded_sink.h"

#include <algorithm>
#include <utility>

namespace qos {

ShardedEventSink::ShardedEventSink(EventSink* downstream)
    : downstream_(downstream), drain_([this] { drain_loop(); }) {}

ShardedEventSink::~ShardedEventSink() { finish(); }

EventSink* ShardedEventSink::lane(std::uint32_t key) {
  auto it = std::lower_bound(
      lanes_.begin(), lanes_.end(), key,
      [](const std::unique_ptr<LaneSink>& l, std::uint32_t k) {
        return l->key() < k;
      });
  if (it != lanes_.end() && (*it)->key() == key) return it->get();
  it = lanes_.insert(it, std::make_unique<LaneSink>(key));
  return it->get();
}

void ShardedEventSink::merge_and_forward(const Window& window) {
  // Ties across lanes are impossible — a seq belongs to exactly one lane —
  // so the inter-lane merge order is forced by the comparator alone, and
  // stability only matters within a lane, where the insertion invariant
  // already settled it.
  //
  // Merge the sorted lane runs straight into the downstream sink with a
  // cursor per run: zero copies, and with the usual handful of lanes the
  // scan costs a comparison or two per event against the ~3x 48-byte moves
  // a concatenate-and-sort pays.  The cursor list is kept in ascending lane
  // order so equal keys (impossible, but cheap to honor) would resolve
  // lane-ascending.
  std::vector<Cursor>& cursors = cursor_scratch_;
  cursors.clear();
  cursors.reserve(window.size());
  for (const std::vector<Event>& buf : window)
    cursors.push_back({buf.data(), buf.data() + buf.size()});
  if (cursors.size() > kMaxLinearMergeLanes) {
    // Many lanes: the cursor scan would cost O(lanes) per event; fall back
    // to concatenate + stable sort (O(log n) per event, lane-count free).
    merge_scratch_.clear();
    for (const Cursor& c : cursors)
      merge_scratch_.insert(merge_scratch_.end(), c.it, c.end);
    std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                     canonical_event_before);
    forwarded_ += merge_scratch_.size();
    for (const Event& e : merge_scratch_) {
      digest_.fold(e);
      if (downstream_ != nullptr) downstream_->on_event(e);
    }
    merge_scratch_.clear();
    return;
  }
  while (!cursors.empty()) {
    if (cursors.size() == 1) {
      // Sole survivor: forward its remaining run with no comparisons.
      for (const Event* it = cursors[0].it; it != cursors[0].end; ++it) {
        ++forwarded_;
        digest_.fold(*it);
        if (downstream_ != nullptr) downstream_->on_event(*it);
      }
      break;
    }
    std::size_t best = 0, second = 1;
    if (canonical_event_before(*cursors[1].it, *cursors[0].it)) {
      best = 1;
      second = 0;
    }
    for (std::size_t i = 2; i < cursors.size(); ++i) {
      if (canonical_event_before(*cursors[i].it, *cursors[best].it)) {
        second = best;
        best = i;
      } else if (canonical_event_before(*cursors[i].it, *cursors[second].it)) {
        second = i;
      }
    }
    // Forward the best lane's whole run up to the runner-up's head: one
    // comparison per event instead of a fresh min scan over every lane.
    Cursor& c = cursors[best];
    const Event* stop = cursors[second].it;
    do {
      const Event& e = *c.it++;
      ++forwarded_;
      digest_.fold(e);
      if (downstream_ != nullptr) downstream_->on_event(e);
    } while (c.it != c.end && canonical_event_before(*c.it, *stop));
    if (c.it == c.end)
      cursors.erase(cursors.begin() + static_cast<std::ptrdiff_t>(best));
  }
}

void ShardedEventSink::flush() {
  // Seal this window by moving the non-empty lane buffers out (recycling
  // vectors from the freelist so steady state allocates nothing) and hand
  // it to the drain thread.  Blocks while a previous window is still
  // queued — that bound is the memory contract.
  Window window;
  window.reserve(lanes_.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& l : lanes_) {
      if (l->buffer().empty()) continue;
      std::vector<Event> replacement;
      if (!freelist_.empty()) {
        replacement = std::move(freelist_.back());
        freelist_.pop_back();
      }
      window.push_back(std::exchange(l->buffer(), std::move(replacement)));
    }
  }
  if (window.empty()) return;
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return queue_.empty(); });
  queue_.push_back(std::move(window));
  cv_.notify_all();
}

void ShardedEventSink::drain_loop() {
  for (;;) {
    Window window;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      window = std::move(queue_.front());
      queue_.pop_front();
      draining_ = true;
      cv_.notify_all();  // the producer may queue the next window
    }
    merge_and_forward(window);  // exclusive: only this thread merges
    {
      std::lock_guard<std::mutex> lk(mu_);
      draining_ = false;
      for (auto& buf : window) {
        buf.clear();
        freelist_.push_back(std::move(buf));
      }
      cv_.notify_all();  // finish() may be waiting for idle
    }
  }
}

void ShardedEventSink::finish() {
  if (finished_) return;
  finished_ = true;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return queue_.empty() && !draining_; });
    stop_ = true;
    cv_.notify_all();
  }
  if (drain_.joinable()) drain_.join();
}

std::uint64_t ShardedEventSink::buffered() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->buffer().size();
  return n;
}

}  // namespace qos
