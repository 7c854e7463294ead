// Workload universal_combine: rt::RtUniversal<CounterSpec> in flat-combining
// mode, 3 closed-loop clients, 40% inc / 40% dec / 20% read from a
// mid-range value so the counter never saturates and its final value is
// exactly checkable. The only path through 16-byte CAS, the R-LLSC cell,
// the announce scan and the combining facade; no 8-byte packed words.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "env/rt_env.h"
#include "rt/universal_rt.h"
#include "spec/counter_spec.h"
#include "util/alloc_probe.h"

namespace perfbench {

inline constexpr int kUniversalClients = 3;
inline constexpr bool kUniversalWantsFiller = false;  // see idle_fillers()
inline constexpr std::uint32_t kCounterMax = 0xffffff;
inline constexpr std::uint32_t kCounterInitial = 1u << 23;
inline constexpr int kUniversalWarmupOps = 500;

using Counter = hi::spec::CounterSpec;
using Universal = hi::rt::RtUniversal<Counter>;

struct UniversalClient {
  SliceHistograms update_ns = slice_histograms();  // one per round
  Histogram read_ns;
  // This round's ops, warm-up included; the round's oracle consumes them.
  std::uint64_t incs = 0;
  std::uint64_t decs = 0;
  std::uint64_t reads = 0;
  // Totals over every round's window.
  std::uint64_t window_ops = 0;
  std::uint64_t bad_responses = 0;  // a pre-op value at a saturation bound
  std::uint64_t allocs = 0;         // heap allocations inside the window
  std::uint64_t frames = 0;         // FrameArena allocations inside the window
  std::uint64_t fresh_slabs = 0;    // of those, slabs minted from the heap
  SpanLog* log = nullptr;
};

template <bool kTraced>
void universal_client(Universal& u, int pid, int round, const RunConfig& cfg,
                      Window& window, Progress& progress,
                      UniversalClient& out) {
  Rng rng(stream_seed(cfg.seed, static_cast<std::uint64_t>(round) << 8 |
                                    static_cast<std::uint64_t>(pid)));
  // 2/5 inc, 2/5 dec, 1/5 read.
  const auto apply = [&](std::uint32_t pick) {
    const Counter::Op op = pick < 2   ? Counter::inc()
                           : pick < 4 ? Counter::dec()
                                      : Counter::read();
    const std::uint32_t rsp = u.apply(pid, op);
    if (rsp == 0 || rsp >= kCounterMax) ++out.bad_responses;
    if (pick < 2) {
      ++out.incs;
    } else if (pick < 4) {
      ++out.decs;
    } else {
      ++out.reads;
    }
  };

  for (int i = 0; i < kUniversalWarmupOps; ++i) apply(rng.below(5));
  window.ready.fetch_add(1, std::memory_order_acq_rel);
  spin_until(window.go);

  const hi::util::AllocTally tally;
  const auto arena0 = hi::env::FrameArena::local().stats();
  Histogram& update_ns = out.update_ns[static_cast<std::size_t>(round)];
  std::uint64_t ops = 0;
  std::uint64_t prev = now_ns();
  while (!window.stop.load(std::memory_order_relaxed)) {
    const std::uint32_t pick = rng.below(5);
    const std::uint64_t start = kTraced ? now_ns() : prev;
    apply(pick);
    const std::uint64_t end = now_ns();
    if (pick < 4) {
      update_ns.record(end - start);
    } else {
      out.read_ns.record(end - start);
    }
    if constexpr (kTraced) {
      out.log->record(pick < 4 ? Span::kUniversalUpdate : Span::kUniversalRead,
                      start, end, static_cast<std::uint32_t>(ops));
    }
    prev = end;
    progress.done.store(++ops, std::memory_order_relaxed);
    if (cfg.inject == Inject::kHang && pid == 0 && ops == 1000) {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  const auto arena1 = hi::env::FrameArena::local().stats();
  out.window_ops += ops;
  out.allocs += tally.allocs();
  out.frames += arena_frames(arena1) - arena_frames(arena0);
  out.fresh_slabs += arena1.fresh_slabs - arena0.fresh_slabs;
}

inline Outcome run_universal_combine(const RunConfig& cfg) {
  const Counter spec(kCounterMax, kCounterInitial);
  std::vector<UniversalClient> clients(kUniversalClients);
  for (int pid = 0; pid < kUniversalClients; ++pid) {
    if (cfg.traced) clients[static_cast<std::size_t>(pid)].log = cfg.tracer->new_log();
  }
  LiveTiming timing;
  const auto make = [&] {
    return std::make_unique<Universal>(spec, kUniversalClients,
                                       /*clear_contexts=*/true,
                                       /*combine=*/true);
  };
  const auto worker = [&](Universal& u, int pid, int round, Window& window,
                          Progress& progress) {
    UniversalClient& out = clients[static_cast<std::size_t>(pid)];
    if (cfg.traced) {
      universal_client<true>(u, pid, round, cfg, window, progress, out);
    } else {
      universal_client<false>(u, pid, round, cfg, window, progress, out);
    }
  };

  // Oracles of each round's object, at quiescence: the exact final count, an
  // all-⊥ announce array, empty contexts and a mode-A head (the
  // state-quiescent HI image).
  Outcome o;
  std::uint64_t ops_combined = 0, batches = 0, final_count = 0, expected = 0;
  double mem_bytes = 0;
  const auto finish = [&](Universal& u) {
    std::uint64_t incs = 0, decs = 0;
    for (UniversalClient& c : clients) {
      incs += c.incs;
      decs += c.decs;
      o.attempted += c.incs + c.decs + c.reads;
      c.incs = c.decs = c.reads = 0;
    }
    expected = kCounterInitial + incs - decs +
               (cfg.inject == Inject::kCorruptCount ? 1 : 0);
    final_count = u.head_state_encoded();
    bool announce_ok = true;
    for (int pid = 0; pid < kUniversalClients; ++pid) {
      announce_ok = announce_ok && u.announce_is_bottom(pid);
    }
    o.failed += (final_count == expected ? 0 : 1) + (announce_ok ? 0 : 1) +
                (u.context_union() == 0 ? 0 : 1) +
                (u.head_has_response() ? 1 : 0);
    o.attempted += 4;
    ops_combined += u.ops_combined();
    batches += u.batches_installed();
    mem_bytes = static_cast<double>(u.memory_bytes());
  };
  run_live("universal_combine", cfg, kUniversalClients, kUniversalWantsFiller,
           make, worker, finish, timing);

  std::vector<const SliceHistograms*> update_hists;
  Histogram reads;
  std::uint64_t window_ops = 0, allocs = 0, frames = 0, fresh = 0;
  for (const UniversalClient& c : clients) {
    update_hists.push_back(&c.update_ns);
    reads.merge(c.read_ns);
    window_ops += c.window_ops;
    allocs += c.allocs;
    frames += c.frames;
    fresh += c.fresh_slabs;
    o.failed += c.bad_responses;
  }

  const PooledRounds updates = pool_rounds(update_hists);
  const Percentile p50 = pooled_percentile(updates, 0.50);
  const Percentile p99 = pooled_percentile(updates, 0.99);
  const double batch_mean =
      static_cast<double>(ops_combined) / static_cast<double>(batches);
  const double ops_d = static_cast<double>(window_ops);
  o.e2e.set("setup_s", median(timing.setup_s), "s");
  const std::vector<double> rates = timing.slice_rates(0, kUniversalClients);
  o.e2e.set("throughput_ops_s", best_rounds_rate(rates), "ops/s");
  o.set_percentile("latency_p50_us", p50, 1e-3, "us");
  o.set_percentile("latency_p99_us", p99, 1e-3, "us");
  o.e2e.set("mem_bytes", mem_bytes, "B");

  o.note("update_samples", static_cast<double>(updates.best.count()));
  o.note("update_whole_run_p50_ns", updates.all.quantile(0.50));
  o.note("throughput_whole_window_ops_s", ops_d / timing.window_s());
  o.note("throughput_slices_ops_s", rates);
  o.note("read_p50_ns", reads.quantile(0.50));
  o.note("allocs_per_op", static_cast<double>(allocs) / ops_d);
  o.note("batch_size_mean", batch_mean);
  o.note("final_count", static_cast<double>(final_count));
  o.note("expected_count", static_cast<double>(expected));
  o.note("threads", kUniversalClients);

  o.layer.set("env.frames_per_op", static_cast<double>(frames) / ops_d, "count");
  o.layer.set("env.fresh_slabs", static_cast<double>(fresh), "count");
  o.layer.set("env.allocs_per_op", static_cast<double>(allocs) / ops_d, "count");
  o.layer.set("universal.batch_size_mean", batch_mean, "count");
  if (cfg.traced) {
    o.layer.set("universal.update_ns",
                cfg.tracer->mean_call_ns(Span::kUniversalUpdate), "ns");
    o.layer.set("universal.read_ns",
                cfg.tracer->mean_call_ns(Span::kUniversalRead), "ns");
  }
  return o;
}

}  // namespace perfbench
