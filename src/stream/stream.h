// Pull-based request streams — the streaming half of src/stream.
//
// A RequestStream is the lazy counterpart of a Trace: it yields the same
// request sequence one record at a time, so a run never holds more than a
// bounded window of requests in memory.  The stream contract mirrors the
// Trace invariants exactly (same order, same numbering, same per-record
// checks), which is what lets stream::simulate_stream feed SimEngine with
// the identical call sequence simulate() makes from a materialized Trace —
// and therefore produce bit-identical results (tests/test_stream.cpp).
//
// Stream contract (every implementation):
//   * requests are yielded in non-decreasing arrival order;
//   * seq is dense from 0 in yield order — the numbering Trace's constructor
//     would assign after its stable sort;
//   * every yielded record satisfies request_record_ok();
//   * next() returns nullopt forever once exhausted.
//
// Sources live in gen_stream.h (synthetic generators) and spc_stream.h (SPC
// trace files); this header holds the abstraction plus the composable
// adapters that need nothing beyond a Trace, the hash library and the
// indexed heap.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "runner/hash.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/indexed_heap.h"

namespace qos::stream {

class RequestStream {
 public:
  virtual ~RequestStream() = default;

  /// Next request in arrival order, or nullopt forever once exhausted.
  virtual std::optional<Request> next() = 0;
};

/// Stream over an existing Trace — the bridge from materialized to streamed
/// code paths.  The borrowed form keeps a pointer (the trace must outlive
/// the stream); the owning form is for sources that must materialize
/// internally (e.g. the b-model generator, whose cascade is inherently
/// offline).
class TraceStream final : public RequestStream {
 public:
  explicit TraceStream(const Trace& trace) : trace_(&trace) {}
  explicit TraceStream(Trace&& trace)
      : owned_(std::move(trace)), trace_(&owned_) {}

  std::optional<Request> next() override {
    if (i_ >= trace_->size()) return std::nullopt;
    return (*trace_)[i_++];
  }

 private:
  Trace owned_;
  const Trace* trace_;
  std::size_t i_ = 0;
};

/// K-way merge with Trace::merge semantics: client ids are remapped to the
/// source index and seq is renumbered densely in merged order.  Equal-time
/// ties resolve to the lowest source index, then to within-source order —
/// exactly the order Trace::merge's concatenate-then-stable-sort produces —
/// so merging streams and streaming a merged Trace are interchangeable.
///
/// Live sources sit in an IndexedMinHeap keyed on their buffered front's
/// arrival with the source index as id: its (key, lowest id) order is the
/// lowest-source tie rule, so each request costs O(log sources), not a scan
/// of every source.
class MergedStream final : public RequestStream {
 public:
  explicit MergedStream(std::vector<std::unique_ptr<RequestStream>> sources)
      : sources_(std::move(sources)), fronts_(sources_.size()) {
    live_.reset(static_cast<int>(sources_.size()));
    for (std::size_t c = 0; c < sources_.size(); ++c) {
      fronts_[c] = sources_[c]->next();
      if (fronts_[c]) live_.push(static_cast<int>(c), fronts_[c]->arrival);
    }
  }

  std::optional<Request> next() override {
    if (live_.empty()) return std::nullopt;
    const int best = live_.top();
    const auto c = static_cast<std::size_t>(best);
    Request r = *fronts_[c];
    fronts_[c] = sources_[c]->next();
    if (fronts_[c]) {
      QOS_CHECK(fronts_[c]->arrival >= r.arrival);
      live_.update(best, fronts_[c]->arrival);
    } else {
      live_.pop();
    }
    r.client = static_cast<std::uint32_t>(best);
    r.seq = seq_++;
    return r;
  }

 private:
  std::vector<std::unique_ptr<RequestStream>> sources_;
  std::vector<std::optional<Request>> fronts_;  ///< buffered head per source
  IndexedMinHeap<Time> live_;  ///< sources with a front, by (arrival, index)
  std::uint64_t seq_ = 0;
};

/// Pass-through that feeds every yielded request into a TraceDigester, so a
/// streamed run can key the result cache with the same digest hash_trace
/// would compute from the materialized trace.  The inner stream is borrowed.
class DigestingStream final : public RequestStream {
 public:
  explicit DigestingStream(RequestStream& inner) : inner_(&inner) {}

  std::optional<Request> next() override {
    auto r = inner_->next();
    if (r) digester_.feed(*r);
    return r;
  }

  /// Digest of everything yielded so far; equals hash_trace of the
  /// materialized equivalent once the stream is exhausted.  Finalizes the
  /// digester — next() must not be called afterwards.
  Digest finish() { return digester_.finish(); }

  std::uint64_t count() const { return digester_.count(); }

 private:
  RequestStream* inner_;
  TraceDigester digester_;
};

}  // namespace qos::stream
