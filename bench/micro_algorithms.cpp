// Hot-path microbenchmark harness: heap backends vs their frozen scan
// references, plus event-simulator throughput.  Emits BENCH_micro.json.
//
// This is the perf baseline for the event-core overhaul, self-timed with no
// benchmark-library dependency so CI can run it anywhere:
//
//   * For each FQ backend (SFQ / WFQ / WF2Q+ / pClock) at 1, 16 and 256
//     flows, steady-state enqueue+dequeue pairs per second through the
//     production heap implementation and through the O(flows) linear-scan
//     reference (fq/scan_reference.h) it replaced, plus the speedup ratio
//     (the median of per-repeat paired ratios, see below).
//   * Sparse-activation cells at 4096, 65536 and 1048576 configured flows:
//     4096 concurrently backlogged flows marching across the id space on a
//     multiplicative stride, so flows constantly drain idle and reactivate.
//     The production flat-table backends run against the frozen dense-
//     vector layout (fq/dense_reference.h) they replaced — the scan
//     reference is O(flows) per op and unusable at this scale — with
//     footprints reported alongside (`ref: "dense"` cells).
//   * Simulator events per second (one arrival + one completion = two
//     events) for single-server FCFS and two-server Split runs.
//   * Stream-merge ingest at 64, 256 and 1024 Poisson sources: requests per
//     second pulled through one stream::MergedStream, against the same
//     sources pulled round-robin with no merge — the generators' own cost,
//     so the merge/source ratio cancels the machine's speed.
//
// The run aborts if the lazy-allocation contract breaks: an idle
// IndexedMinHeap reset to 10^6 ids must hold zero bytes, and at the
// million-flow cell every flat backend must undercut its dense
// counterpart's footprint.
//
// Each measurement repeats --repeats times.  The simulator rates keep the
// best run (least interference); the gated heap/scan, flat/dense and
// merge/source ratios pair the two sides within each repeat and keep the
// median of those ratios (paired_rates).  scripts/check_perf.py compares a
// fresh BENCH_micro.json against the committed
// bench/BENCH_micro.baseline.json and fails on >25% throughput
// regressions; see README "Perf baseline".
//
// usage: micro_algorithms [--json PATH] [--ops N] [--repeats R]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fcfs.h"
#include "core/split.h"
#include "fq/dense_reference.h"
#include "fq/pclock.h"
#include "fq/scan_reference.h"
#include "fq/sfq.h"
#include "fq/wf2q.h"
#include "fq/wfq.h"
#include "sim/simulator.h"
#include "stream/gen_stream.h"
#include "stream/stream.h"
#include "trace/generator.h"
#include "util/indexed_heap.h"

namespace {

using namespace qos;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Defeats dead-code elimination of the measured loops; never read except to
// keep the optimizer honest.
volatile std::uint64_t g_sink = 0;

struct MicroOptions {
  std::string json_path = "BENCH_micro.json";
  std::uint64_t ops = 200'000;
  int repeats = 5;
};

[[noreturn]] void usage_abort() {
  std::fprintf(stderr,
               "usage: micro_algorithms [--json PATH] [--ops N] "
               "[--repeats R]\n");
  std::exit(2);
}

MicroOptions parse_args(int argc, char** argv) {
  MicroOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_abort();
      return argv[++i];
    };
    if (std::strcmp(a, "--json") == 0) {
      o.json_path = value();
    } else if (std::strcmp(a, "--ops") == 0) {
      o.ops = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(a, "--repeats") == 0) {
      o.repeats = std::atoi(value());
    } else {
      usage_abort();
    }
  }
  if (o.ops == 0 || o.repeats <= 0) usage_abort();
  return o;
}

// A subject and its in-process reference, timed back to back in each
// repeat.  The gated ratio is the median of the per-repeat subject/reference
// ratios: the host's speed drifts in phases longer than one pair, which a
// ratio of two independent bests does not cancel — a slow phase would land
// on one side only.
struct PairedRates {
  double subject_per_sec = 0;    ///< best repeat
  double reference_per_sec = 0;  ///< best repeat
  double ratio = 0;  ///< median over repeats of the paired ratio
};

template <typename Subject, typename Reference>
PairedRates paired_rates(int repeats, Subject subject, Reference reference) {
  PairedRates out;
  std::vector<double> ratios;
  for (int r = 0; r < repeats; ++r) {
    const double s = subject();
    const double ref = reference();
    out.subject_per_sec = std::max(out.subject_per_sec, s);
    out.reference_per_sec = std::max(out.reference_per_sec, ref);
    ratios.push_back(s / ref);
  }
  std::sort(ratios.begin(), ratios.end());
  out.ratio = ratios[ratios.size() / 2];
  return out;
}

// Steady-state throughput of one scheduler instance: keep every flow
// backlogged, then alternate enqueue/dequeue so the tag structures stay at
// constant size while being exercised on both sides.  Unit costs make head
// tags collide constantly — the worst case for tie-breaking, and the common
// case for the two-class storage model.
template <typename Sched>
double fq_pairs_per_sec(Sched& s, int flows, std::uint64_t ops) {
  std::uint64_t handle = 0;
  Time now = 0;
  for (int b = 0; b < 4; ++b)
    for (int f = 0; f < flows; ++f) s.enqueue(f, handle++, 1.0, now);
  std::uint64_t sink = 0;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < ops; ++i) {
    now += 3;
    s.enqueue(static_cast<int>(i % static_cast<std::uint64_t>(flows)),
              handle++, 1.0, now);
    sink += s.dequeue(now)->handle;
  }
  const double elapsed = now_seconds() - t0;
  while (s.dequeue(now)) {
  }
  g_sink = g_sink ^ sink;
  return static_cast<double>(ops) / elapsed;
}

// Heap backend vs its scan reference at `flows`, paired per repeat.
template <typename MakeHeap, typename MakeScan>
PairedRates fq_cell(MakeHeap make_heap, MakeScan make_scan, int flows,
                    const MicroOptions& o) {
  return paired_rates(
      o.repeats,
      [&] {
        auto s = make_heap(flows);
        return fq_pairs_per_sec(s, flows, o.ops);
      },
      [&] {
        auto s = make_scan(flows);
        return fq_pairs_per_sec(s, flows, o.ops);
      });
}

std::vector<PClockSla> uniform_slas(int flows) {
  return std::vector<PClockSla>(static_cast<std::size_t>(flows), PClockSla{});
}

struct FqRow {
  const char* name;
  PairedRates cells[3];  ///< heap vs scan at kFlowCounts
};

constexpr int kFlowCounts[3] = {1, 16, 256};

// ---------------------------------------------------------------------------
// Sparse activation at scale: kBacklogged flows live at once, each op
// retires one flow to idle and activates another, cycling the whole id
// space (odd stride, power-of-two cell counts => full period).  This is the
// million-user regime from ROADMAP item 1: per-flow state must cost
// O(flows seen), and the head-tag structures O(backlogged).

constexpr int kSparseCells[3] = {4'096, 65'536, 1'048'576};
constexpr std::uint64_t kBacklogged = 4'096;
constexpr std::uint64_t kSparseStride = 2'654'435'761u;

struct SparseCell {
  PairedRates rates;  ///< flat (subject) vs dense (reference)
  std::size_t prod_mem_bytes = 0;
  std::size_t ref_mem_bytes = 0;
};

struct SparseRow {
  const char* name;
  SparseCell cells[3];  ///< at kSparseCells
};

// One enqueue + one dequeue per op with a steady backlog of kBacklogged
// flows scattered over `cells` ids.  Returns pairs/sec; *mem_bytes gets the
// scheduler's post-run footprint.
template <typename Sched>
double fq_sparse_pairs_per_sec(Sched& s, int cells, std::uint64_t ops,
                               std::size_t* mem_bytes) {
  auto flow_at = [cells](std::uint64_t i) {
    return static_cast<int>((i * kSparseStride) %
                            static_cast<std::uint64_t>(cells));
  };
  std::uint64_t handle = 0;
  Time now = 0;
  // Spread the warmup arrivals in time like the measured loop does:
  // enqueueing the whole backlog at now=0 would give every pClock item an
  // identical deadline, an initial state no arrival process produces.
  for (std::uint64_t i = 0; i < kBacklogged; ++i) {
    now += 3;
    s.enqueue(flow_at(i), handle++, 1.0, now);
  }
  std::uint64_t sink = 0;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < ops; ++i) {
    now += 3;
    s.enqueue(flow_at(kBacklogged + i), handle++, 1.0, now);
    sink += s.dequeue(now)->handle;
  }
  const double elapsed = now_seconds() - t0;
  *mem_bytes = s.approx_memory_bytes();
  while (s.dequeue(now)) {
  }
  g_sink = g_sink ^ sink;
  return static_cast<double>(ops) / elapsed;
}

// Flat backend vs its dense reference at `cells`, paired per repeat.  The
// footprints are deterministic, so the last repeat's stand.
template <typename MakeProd, typename MakeRef>
SparseCell sparse_cell(MakeProd make_prod, MakeRef make_ref, int cells,
                       const MicroOptions& o) {
  SparseCell c;
  c.rates = paired_rates(
      o.repeats,
      [&] {
        auto s = make_prod(cells);
        return fq_sparse_pairs_per_sec(s, cells, o.ops, &c.prod_mem_bytes);
      },
      [&] {
        auto s = make_ref(cells);
        return fq_sparse_pairs_per_sec(s, cells, o.ops, &c.ref_mem_bytes);
      });
  return c;
}

const Trace& sim_trace() {
  static const Trace trace = [] {
    WorkloadSpec spec;
    spec.states = {{400, 1.0}, {1200, 0.4}};
    spec.batches = {.batches_per_sec = 0.2,
                    .mean_size = 10,
                    .spread_us = 2'000,
                    .giant_prob = 0.05,
                    .giant_factor = 3};
    return generate_workload(spec, 30 * kUsPerSec, 4242);
  }();
  return trace;
}

// Events per second through the full simulator loop (arrival + completion
// per request).
template <typename RunOnce>
double best_sim_events_per_sec(const MicroOptions& o, RunOnce run) {
  const double events = 2.0 * static_cast<double>(sim_trace().size());
  double best = 0;
  for (int r = 0; r < o.repeats; ++r) {
    const double t0 = now_seconds();
    run();
    best = std::max(best, events / (now_seconds() - t0));
  }
  return best;
}

// ---------------------------------------------------------------------------
// Stream-merge ingest: `sources` Poisson tenants sharing --ops requests over
// one minute of virtual time.  Stream construction is untimed; the timed
// loop is the pull itself, generation included — the ingest rate a
// many-tenant simulate_sharded run sees.

constexpr int kMergeSources[3] = {64, 256, 1'024};
constexpr Time kMergeDuration = 60 * kUsPerSec;

std::vector<std::unique_ptr<stream::RequestStream>> poisson_sources(
    int sources, std::uint64_t ops) {
  const double rate = static_cast<double>(ops) /
                      (sources * static_cast<double>(kMergeDuration) /
                       static_cast<double>(kUsPerSec));
  std::vector<std::unique_ptr<stream::RequestStream>> out;
  for (int c = 0; c < sources; ++c)
    out.push_back(stream::make_poisson_stream(rate, kMergeDuration,
                                              1'000 + static_cast<unsigned>(c)));
  return out;
}

// MergedStream ingest vs the same sources pulled unmerged, paired per
// repeat (the subject is the merge, the reference the sources alone).
PairedRates merge_cell(int sources, const MicroOptions& o) {
  return paired_rates(
      o.repeats,
      [&] {
        stream::MergedStream merged(poisson_sources(sources, o.ops));
        std::uint64_t n = 0, sink = 0;
        const double t0 = now_seconds();
        while (auto req = merged.next()) {
          ++n;
          sink += req->client;
        }
        const double rate = static_cast<double>(n) / (now_seconds() - t0);
        g_sink = g_sink ^ sink;
        return rate;
      },
      [&] {
        // The same sources pulled round-robin with no ordering — the same
        // interleaved touch of every generator's state, minus the merge.
        auto alone = poisson_sources(sources, o.ops);
        std::uint64_t m = 0, sink = 0;
        const double t0 = now_seconds();
        for (std::size_t live = alone.size(); live > 0;) {
          live = 0;
          for (auto& s : alone) {
            if (!s) continue;
            if (auto req = s->next()) {
              ++m;
              sink += req->lba;
              ++live;
            } else {
              s.reset();
            }
          }
        }
        const double rate = static_cast<double>(m) / (now_seconds() - t0);
        g_sink = g_sink ^ sink;
        return rate;
      });
}

void json_fq_cell(std::FILE* f, int flows, const PairedRates& c, bool last) {
  std::fprintf(f,
               "    \"flows_%d\": {\"heap_ops_per_sec\": %.0f, "
               "\"scan_ops_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
               flows, c.subject_per_sec, c.reference_per_sec, c.ratio,
               last ? "" : ",");
}

void json_sparse_cell(std::FILE* f, int flows, const SparseCell& c,
                      bool last) {
  std::fprintf(f,
               "    \"flows_%d\": {\"prod_ops_per_sec\": %.0f, "
               "\"ref_ops_per_sec\": %.0f, \"ref\": \"dense\", "
               "\"prod_mem_bytes\": %zu, \"ref_mem_bytes\": %zu, "
               "\"speedup\": %.2f}%s\n",
               flows, c.rates.subject_per_sec, c.rates.reference_per_sec,
               c.prod_mem_bytes, c.ref_mem_bytes, c.rates.ratio,
               last ? "" : ",");
}

// Hard contracts checked in-process: a violated footprint bound means the
// flat/lazy layouts regressed in a way throughput gating could miss.
bool check_memory_contracts(const SparseRow (&rows)[4]) {
  IndexedMinHeap<double> probe;
  probe.reset(kSparseCells[2]);
  if (probe.memory_bytes() != 0) {
    std::fprintf(stderr,
                 "micro_algorithms: lazy-heap contract broken — "
                 "reset(%d) allocated %zu bytes (expected 0)\n",
                 kSparseCells[2], probe.memory_bytes());
    return false;
  }
  for (const SparseRow& row : rows) {
    const SparseCell& c = row.cells[2];  // the million-flow cell
    if (c.prod_mem_bytes >= c.ref_mem_bytes) {
      std::fprintf(stderr,
                   "micro_algorithms: %s flat footprint %zu B >= dense "
                   "footprint %zu B at %d flows\n",
                   row.name, c.prod_mem_bytes, c.ref_mem_bytes,
                   kSparseCells[2]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const MicroOptions options = parse_args(argc, argv);

  FqRow rows[4] = {{"sfq", {}}, {"wfq", {}}, {"wf2q", {}}, {"pclock", {}}};
  for (int fi = 0; fi < 3; ++fi) {
    const int flows = kFlowCounts[fi];
    const std::vector<double> weights(static_cast<std::size_t>(flows), 1.0);
    rows[0].cells[fi] = fq_cell(
        [&](int) { return SfqScheduler(weights); },
        [&](int) { return scanref::ScanSfqScheduler(weights); }, flows,
        options);
    rows[1].cells[fi] = fq_cell(
        [&](int) { return WfqScheduler(weights); },
        [&](int) { return scanref::ScanWfqScheduler(weights); }, flows,
        options);
    rows[2].cells[fi] = fq_cell(
        [&](int) { return Wf2qPlusScheduler(weights); },
        [&](int) { return scanref::ScanWf2qPlusScheduler(weights); }, flows,
        options);
    rows[3].cells[fi] = fq_cell(
        [&](int f) { return PClockScheduler(uniform_slas(f)); },
        [&](int f) { return scanref::ScanPClockScheduler(uniform_slas(f)); },
        flows, options);
  }

  SparseRow sparse[4] = {
      {"sfq", {}}, {"wfq", {}}, {"wf2q", {}}, {"pclock", {}}};
  for (int ci = 0; ci < 3; ++ci) {
    const int cells = kSparseCells[ci];
    sparse[0].cells[ci] = sparse_cell(
        [](int n) { return SfqScheduler::uniform(n, 1.0); },
        [](int n) {
          return denseref::DenseSfqScheduler(
              std::vector<double>(static_cast<std::size_t>(n), 1.0));
        },
        cells, options);
    sparse[1].cells[ci] = sparse_cell(
        [](int n) { return WfqScheduler::uniform(n, 1.0); },
        [](int n) {
          return denseref::DenseWfqScheduler(
              std::vector<double>(static_cast<std::size_t>(n), 1.0));
        },
        cells, options);
    sparse[2].cells[ci] = sparse_cell(
        [](int n) { return Wf2qPlusScheduler::uniform(n, 1.0); },
        [](int n) {
          return denseref::DenseWf2qPlusScheduler(
              std::vector<double>(static_cast<std::size_t>(n), 1.0));
        },
        cells, options);
    // kAuto picks the timer wheel at every sparse cell count (all >= the
    // 4096 threshold) — the shipped selection, not a pinned override.
    sparse[3].cells[ci] = sparse_cell(
        [](int n) { return PClockScheduler::uniform(n, PClockSla{}); },
        [](int n) { return denseref::DensePClockScheduler(uniform_slas(n)); },
        cells, options);
  }

  const double fcfs_events = best_sim_events_per_sec(options, [] {
    FcfsScheduler fcfs;
    ConstantRateServer server(600);
    g_sink = g_sink ^ simulate(sim_trace(), fcfs, server).completions.size();
  });
  const double split_events = best_sim_events_per_sec(options, [] {
    SplitScheduler split(500, 10'000);
    ConstantRateServer primary(500), overflow(100);
    Server* servers[] = {&primary, &overflow};
    g_sink =
        g_sink ^ simulate(sim_trace(), split, servers).completions.size();
  });

  PairedRates merge[3];
  for (int mi = 0; mi < 3; ++mi)
    merge[mi] = merge_cell(kMergeSources[mi], options);

  // Human-readable table on stdout.
  std::printf("%-8s %8s %14s %14s %8s\n", "backend", "flows", "heap ops/s",
              "scan ops/s", "speedup");
  for (const FqRow& row : rows) {
    for (int fi = 0; fi < 3; ++fi) {
      const PairedRates& c = row.cells[fi];
      std::printf("%-8s %8d %14.0f %14.0f %7.2fx\n", row.name, kFlowCounts[fi],
                  c.subject_per_sec, c.reference_per_sec, c.ratio);
    }
  }
  std::printf("\n%-8s %8s %14s %14s %8s %10s %10s\n", "backend", "flows",
              "flat ops/s", "dense ops/s", "speedup", "flat MB", "dense MB");
  for (const SparseRow& row : sparse) {
    for (int ci = 0; ci < 3; ++ci) {
      const SparseCell& c = row.cells[ci];
      std::printf("%-8s %8d %14.0f %14.0f %7.2fx %10.1f %10.1f\n", row.name,
                  kSparseCells[ci], c.rates.subject_per_sec,
                  c.rates.reference_per_sec, c.rates.ratio,
                  static_cast<double>(c.prod_mem_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(c.ref_mem_bytes) / (1024.0 * 1024.0));
    }
  }
  std::printf("simulator fcfs  %14.0f events/s\n", fcfs_events);
  std::printf("simulator split %14.0f events/s\n", split_events);
  std::printf("\n%-8s %14s %14s %8s\n", "sources", "merge req/s",
              "source req/s", "ratio");
  for (int mi = 0; mi < 3; ++mi)
    std::printf("%-8d %14.0f %14.0f %7.2fx\n", kMergeSources[mi],
                merge[mi].subject_per_sec, merge[mi].reference_per_sec,
                merge[mi].ratio);

  if (!check_memory_contracts(sparse)) return 1;

  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_algorithms: cannot write %s\n",
                 options.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"name\": \"micro\",\n");
  std::fprintf(f, "  \"ops\": %llu,\n",
               static_cast<unsigned long long>(options.ops));
  std::fprintf(f, "  \"repeats\": %d,\n", options.repeats);
  std::fprintf(f, "  \"schedulers\": {\n");
  for (std::size_t r = 0; r < 4; ++r) {
    std::fprintf(f, "  \"%s\": {\n", rows[r].name);
    for (int fi = 0; fi < 3; ++fi)
      json_fq_cell(f, kFlowCounts[fi], rows[r].cells[fi], false);
    for (int ci = 0; ci < 3; ++ci)
      json_sparse_cell(f, kSparseCells[ci], sparse[r].cells[ci], ci == 2);
    std::fprintf(f, "  }%s\n", r == 3 ? "" : ",");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"simulator\": {\"fcfs_events_per_sec\": %.0f, "
               "\"split_events_per_sec\": %.0f},\n",
               fcfs_events, split_events);
  std::fprintf(f, "  \"stream_merge\": {\n");
  for (int mi = 0; mi < 3; ++mi)
    std::fprintf(f,
                 "    \"sources_%d\": {\"merge_req_per_sec\": %.0f, "
                 "\"source_req_per_sec\": %.0f, \"ratio\": %.3f}%s\n",
                 kMergeSources[mi], merge[mi].subject_per_sec,
                 merge[mi].reference_per_sec, merge[mi].ratio,
                 mi == 2 ? "" : ",");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "micro_algorithms: wrote %s\n",
               options.json_path.c_str());
  return 0;
}
