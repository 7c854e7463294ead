// Workload sharded_store: rt::RtShardedHiSet over 4M keys, 16 shards,
// kStriped placement. Two mutator clients run 25% insert / 25% remove / 50%
// lookup, mostly on a 4096-adjacent-key hot window, with 1/8 of ops cold
// uniform lookups; one auditor client loops snapshot_members. 8-byte
// fetch_or / fetch_and / load on shared lines beside the word-scan read
// path on the same words; no 16-byte CAS, no helping.
//
// Key ownership: mutator m owns the keys k with bit 4 of k-1 equal to m.
// Under kStriped (shard (k-1) % 16, local (k-1) / 16 + 1) neighbouring
// locals of one shard alternate owners, so the two mutators share every
// word of the hot window while never touching each other's keys — which
// is what lets every response be checked against its owner's shadow.
//
// Size: a 16M-key store (a 2 MB bitmap, one core's whole L2 on the 4-vCPU
// x86-64 VM measured) with a 256-key hot window made audit latency follow
// the host: over 6 interleaved seeds of 15 s, the best round's mean audit
// moved 0.14 of its median between runs and its p99 0.58. At 4M keys with a
// 4096-key window (still one or two shared lines per shard) they moved 0.05
// and 0.13.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common.h"
#include "env/rt_env.h"
#include "rt/sharded_set_rt.h"
#include "util/alloc_probe.h"

namespace perfbench {

inline constexpr std::uint32_t kStoreDomain = 1u << 22;
inline constexpr std::uint32_t kStoreShards = 16;
inline constexpr std::uint32_t kHotKeys = 4096;
inline constexpr int kMutators = 2;
inline constexpr int kStoreClients = kMutators + 1;  // + the auditor
inline constexpr bool kStoreWantsFiller = true;     // see idle_fillers()
inline constexpr int kMutatorWarmupOps = 4096;
// Global bitmap bits owned by mutator 0 / 1 within each 64-key word.
inline constexpr std::uint64_t kOwnerMask[kMutators] = {0x0000ffff0000ffffULL,
                                                        0xffff0000ffff0000ULL};

using Store = hi::rt::RtShardedHiSet;

inline std::uint64_t key_mix(std::uint32_t key) {
  std::uint64_t z = key * 0x9e3779b97f4a7c15ULL;
  return z ^ (z >> 29);
}

/// The seeded inputs: initial membership (density 1/256), the hot window,
/// and the audit invariant — count and order-free hash of every member
/// outside the window, which no mutator ever changes.
struct StoreInputs {
  std::vector<std::uint64_t> initial;
  std::uint32_t hot_base = 0;  // the window is keys hot_base+1 .. +kHotKeys
  std::uint64_t static_count = 0;
  std::uint64_t static_hash = 0;

  explicit StoreInputs(std::uint64_t seed) : initial(kStoreDomain / 64) {
    Rng rng(stream_seed(seed, 1000));
    for (std::uint64_t& w : initial) {
      w = ~std::uint64_t{0};
      for (int i = 0; i < 8; ++i) w &= rng.next();
    }
    hot_base = 16 * rng.below((kStoreDomain - kHotKeys) / 16);
    for (std::uint32_t w = 0; w < initial.size(); ++w) {
      for (std::uint64_t bits = initial[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t key = w * 64 + std::countr_zero(bits) + 1;
        if (!in_window(key)) {
          ++static_count;
          static_hash += key_mix(key);
        }
      }
    }
  }
  bool in_window(std::uint32_t key) const {
    return key > hot_base && key <= hot_base + kHotKeys;
  }
};

/// One client's state. The shadow is the current round's; the rest are
/// totals over every round.
struct StoreClient {
  SliceHistograms audit_ns = slice_histograms();  // one per round
  std::vector<std::uint64_t> shadow;  // mutators: own keys are exact
  std::vector<std::uint32_t> members;  // auditor: audit output buffer
  std::uint64_t ops = 0;         // mutator ops / audits, warm-up included
  std::uint64_t window_ops = 0;  // inside the measured windows
  std::uint64_t mismatches = 0;  // responses or audits the oracle rejected
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
  std::uint64_t fresh_slabs = 0;
  std::uint64_t shard_ops[kStoreShards] = {};
  SpanLog* log = nullptr;
};

/// One mutator op drawn from r: kind r&7 (0 cold lookup, 1-2 insert, 3-4
/// remove, 5-7 hot lookup) on a key owned by mutator m.
struct MutatorOp {
  std::uint32_t kind;
  std::uint32_t key;
};
inline MutatorOp draw_op(std::uint64_t r, int m, std::uint32_t hot_base) {
  const auto kind = static_cast<std::uint32_t>(r & 7);
  if (kind == 0) {
    std::uint32_t k0 = static_cast<std::uint32_t>(r >> 8) & (kStoreDomain - 1);
    k0 = (k0 & ~16u) | (static_cast<std::uint32_t>(m) << 4);
    return {0, k0 + 1};
  }
  const std::uint32_t group =
      2 * static_cast<std::uint32_t>((r >> 8) & 127) +
      ((static_cast<std::uint32_t>(m) + (hot_base >> 4)) & 1);
  const auto offset = static_cast<std::uint32_t>((r >> 20) & 15);
  return {kind, hot_base + 16 * group + offset + 1};
}

inline Span op_span(std::uint32_t kind) {
  return kind == 1 || kind == 2   ? Span::kSetInsert
         : kind == 3 || kind == 4 ? Span::kSetRemove
                                  : Span::kSetLookup;
}

inline void apply_checked(Store& store, const MutatorOp& op, StoreClient& c) {
  std::uint64_t& word = c.shadow[(op.key - 1) >> 6];
  const std::uint64_t bit = std::uint64_t{1} << ((op.key - 1) & 63);
  if (op.kind == 1 || op.kind == 2) {
    store.insert(op.key);
    word |= bit;
  } else if (op.kind == 3 || op.kind == 4) {
    store.remove(op.key);
    word &= ~bit;
  } else if (store.lookup(op.key) != ((word & bit) != 0)) {
    ++c.mismatches;
  }
}

template <bool kTraced>
void store_mutator(Store& store, int m, int round, const RunConfig& cfg,
                   const StoreInputs& in, Window& window, Progress& progress,
                   StoreClient& c) {
  Rng rng(stream_seed(cfg.seed, 2000 + (static_cast<std::uint64_t>(round) << 8 |
                                        static_cast<std::uint64_t>(m))));
  c.shadow.assign(in.initial.begin(), in.initial.end());  // a fresh store
  // Warm up with cold lookups only: set-up never changes the membership.
  for (int i = 0; i < kMutatorWarmupOps; ++i) {
    apply_checked(store, draw_op(rng.next() & ~std::uint64_t{7}, m, in.hot_base), c);
  }
  c.ops += kMutatorWarmupOps;
  window.ready.fetch_add(1, std::memory_order_acq_rel);
  spin_until(window.go);

  const hi::util::AllocTally tally;
  const auto arena0 = hi::env::FrameArena::local().stats();
  std::uint64_t ops = 0;
  // Traced: the same op stream, cut into runs of consecutive same-kind ops
  // as they are drawn; each run is one span. One clock read per run.
  std::uint32_t request = 0;
  Span run_span = Span::kSetLookup;
  std::uint64_t run_start = kTraced ? now_ns() : 0;
  std::uint64_t run_calls = 0;
  while (!window.stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 64; ++i) {
      const MutatorOp op = draw_op(rng.next(), m, in.hot_base);
      if constexpr (kTraced) {
        ++c.shard_ops[(op.key - 1) % kStoreShards];
        const Span span = op_span(op.kind);
        if (span != run_span) {
          const std::uint64_t t = now_ns();
          if (run_calls > 0) {
            c.log->record(run_span, run_start, t, request++, run_calls);
          }
          run_span = span;
          run_start = t;
          run_calls = 0;
        }
        ++run_calls;
      }
      apply_checked(store, op, c);
    }
    ops += 64;
    progress.done.store(ops, std::memory_order_relaxed);
    if (cfg.inject == Inject::kHang && m == 0 && ops >= 100'000) {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  if (kTraced && run_calls > 0) {
    c.log->record(run_span, run_start, now_ns(), request, run_calls);
  }
  const auto arena1 = hi::env::FrameArena::local().stats();
  c.window_ops += ops;
  c.ops += ops;
  c.allocs += tally.allocs();
  c.frames += arena_frames(arena1) - arena_frames(arena0);
  c.fresh_slabs += arena1.fresh_slabs - arena0.fresh_slabs;
}

/// One audit: snapshot_members, recorded in `slice` unless it is negative,
/// then the invariant check outside the hot window (inside it, any subset
/// of the window is a valid answer).
template <bool kTraced>
void audit_once(Store& store, const StoreInputs& in, StoreClient& c,
                std::uint32_t request, int slice) {
  c.members.clear();
  const std::uint64_t t0 = now_ns();
  const std::uint32_t n = store.snapshot_members(c.members);
  const std::uint64_t t1 = now_ns();
  if (slice >= 0) c.audit_ns[static_cast<std::size_t>(slice)].record(t1 - t0);
  if constexpr (kTraced) c.log->record(Span::kSetAudit, t0, t1, request);
  std::uint64_t count = 0, hash = 0;
  for (const std::uint32_t key : c.members) {
    if (in.in_window(key)) continue;
    ++count;
    hash += key_mix(key);
  }
  if (n != c.members.size() || count != in.static_count ||
      hash != in.static_hash) {
    ++c.mismatches;
  }
}

template <bool kTraced>
void store_auditor(Store& store, int round, const StoreInputs& in,
                   Window& window, Progress& progress, StoreClient& c) {
  audit_once<false>(store, in, c, 0, /*slice=*/-1);  // warm-up, unrecorded
  c.ops += 1;
  window.ready.fetch_add(1, std::memory_order_acq_rel);
  spin_until(window.go);
  const hi::util::AllocTally tally;
  std::uint64_t audits = 0;
  while (!window.stop.load(std::memory_order_relaxed)) {
    audit_once<kTraced>(store, in, c, static_cast<std::uint32_t>(audits), round);
    progress.done.store(++audits, std::memory_order_relaxed);
  }
  c.window_ops += audits;
  c.ops += audits;
  c.allocs += tally.allocs();
}

inline Outcome run_sharded_store(const RunConfig& cfg) {
  const StoreInputs in(cfg.seed);
  std::vector<StoreClient> clients(kStoreClients);
  clients[kMutators].members.reserve(in.static_count + kHotKeys);
  for (StoreClient& c : clients) {
    if (cfg.traced) c.log = cfg.tracer->new_log();
  }
  LiveTiming timing;
  const auto make = [&] {
    return std::make_unique<Store>(kStoreDomain, kStoreShards,
                                   hi::algo::ShardPlacement::kStriped,
                                   std::span<const std::uint64_t>(in.initial));
  };
  const auto worker = [&](Store& store, int tid, int round, Window& window,
                          Progress& progress) {
    StoreClient& c = clients[static_cast<std::size_t>(tid)];
    if (tid == kMutators) {
      if (cfg.traced) {
        store_auditor<true>(store, round, in, window, progress, c);
      } else {
        store_auditor<false>(store, round, in, window, progress, c);
      }
    } else if (cfg.traced) {
      store_mutator<true>(store, tid, round, cfg, in, window, progress, c);
    } else {
      store_mutator<false>(store, tid, round, cfg, in, window, progress, c);
    }
  };

  // Oracles of each round's store, at quiescence: the audit equals the
  // union of the owners' shadows, and the memory image equals that of a
  // store freshly built with that membership — the history-independence
  // property itself.
  Outcome o;
  std::vector<std::uint32_t>& members = clients[kMutators].members;
  double mem_bytes = 0;
  const auto finish = [&](Store& store) {
    std::vector<std::uint64_t> expected(in.initial.size());
    for (std::size_t w = 0; w < expected.size(); ++w) {
      expected[w] = (clients[0].shadow[w] & kOwnerMask[0]) |
                    (clients[1].shadow[w] & kOwnerMask[1]);
    }
    members.clear();
    store.snapshot_members(members);
    std::sort(members.begin(), members.end());
    bool audit_ok = true;
    std::size_t next = 0;
    for (std::uint32_t w = 0; w < expected.size() && audit_ok; ++w) {
      for (std::uint64_t bits = expected[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t key = w * 64 + std::countr_zero(bits) + 1;
        if (next >= members.size() || members[next] != key) {
          audit_ok = false;
          break;
        }
        ++next;
      }
    }
    audit_ok = audit_ok && next == members.size();
    std::vector<std::uint8_t> image = store.memory_image();
    if (cfg.inject == Inject::kFlipImageBit) image[image.size() / 2] ^= 1;
    const bool image_ok =
        image == Store(kStoreDomain, kStoreShards,
                       hi::algo::ShardPlacement::kStriped,
                       std::span<const std::uint64_t>(expected))
                     .memory_image();
    o.attempted += 2;
    o.failed += (audit_ok ? 0 : 1) + (image_ok ? 0 : 1);
    mem_bytes = static_cast<double>(store.memory_bytes());
  };
  run_live("sharded_store", cfg, kStoreClients, kStoreWantsFiller,
           make, worker, finish, timing);

  std::vector<const SliceHistograms*> audit_hists;
  std::uint64_t mutator_window_ops = 0, allocs = 0, frames = 0, fresh = 0,
                window_ops = 0;
  std::uint64_t shard_ops[kStoreShards] = {};
  for (int t = 0; t < kStoreClients; ++t) {
    const StoreClient& c = clients[static_cast<std::size_t>(t)];
    o.attempted += c.ops;
    o.failed += c.mismatches;
    allocs += c.allocs;
    frames += c.frames;
    fresh += c.fresh_slabs;
    window_ops += c.window_ops;
    if (t < kMutators) mutator_window_ops += c.window_ops;
    audit_hists.push_back(&c.audit_ns);
    for (std::uint32_t s = 0; s < kStoreShards; ++s) shard_ops[s] += c.shard_ops[s];
  }

  const PooledRounds audits = pool_rounds(audit_hists);
  const Percentile p50 = pooled_percentile(audits, 0.50);
  const Percentile p99 = pooled_percentile(audits, 0.99);
  const double window_ops_d = static_cast<double>(window_ops);
  o.e2e.set("setup_s", median(timing.setup_s), "s");
  const std::vector<double> rates = timing.slice_rates(0, kMutators);
  o.e2e.set("throughput_ops_s", best_rounds_rate(rates), "ops/s");
  o.set_percentile("latency_p50_us", p50, 1e-3, "us");
  o.set_percentile("latency_p99_us", p99, 1e-3, "us");
  o.e2e.set("mem_bytes", mem_bytes, "B");

  o.note("audit_samples", static_cast<double>(audits.best.count()));
  o.note("audit_whole_run_p50_us", audits.all.quantile(0.50) / 1e3);
  o.note("throughput_whole_window_ops_s",
         static_cast<double>(mutator_window_ops) / timing.window_s());
  o.note("throughput_slices_ops_s", rates);
  o.note("audit_rate_slices_per_s", timing.slice_rates(kMutators, kStoreClients));
  o.note("members_static", static_cast<double>(in.static_count));
  o.note("members_final", static_cast<double>(members.size()));
  o.note("allocs_per_op", static_cast<double>(allocs) / window_ops_d);
  o.note("threads", kStoreClients);

  o.layer.set("env.frames_per_op", static_cast<double>(frames) /
                                       static_cast<double>(mutator_window_ops),
              "count");
  o.layer.set("env.fresh_slabs", static_cast<double>(fresh), "count");
  o.layer.set("env.allocs_per_op", static_cast<double>(allocs) / window_ops_d,
              "count");
  if (cfg.traced) {
    const double words = mem_bytes / 8.0;
    o.layer.set("set.insert_ns", cfg.tracer->mean_call_ns(Span::kSetInsert), "ns");
    o.layer.set("set.remove_ns", cfg.tracer->mean_call_ns(Span::kSetRemove), "ns");
    o.layer.set("set.lookup_ns", cfg.tracer->mean_call_ns(Span::kSetLookup), "ns");
    o.layer.set("set.audit_words_per_us",
                words * 1e3 / cfg.tracer->mean_call_ns(Span::kSetAudit),
                "words/us");
    double max_ops = 0, sum_ops = 0;
    for (const std::uint64_t n : shard_ops) {
      max_ops = std::max(max_ops, static_cast<double>(n));
      sum_ops += static_cast<double>(n);
    }
    o.layer.set("set.shard_skew", max_ops * kStoreShards / sum_ops, "ratio");
  }
  return o;
}

}  // namespace perfbench
