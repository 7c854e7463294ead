// Allocation discipline of the RtEnv hot paths (docs/ENV.md "frame arena",
// docs/PERF.md "allocs_per_op").
//
// Two layers of coverage:
//   * FrameArena unit tests — bucket recycling, oversize pass-through,
//     drain, and the bookkeeping invariants the churn test leans on;
//   * steady-state contracts — after a short warmup, every rt object
//     performs EXACTLY ZERO heap allocations per operation (the probe
//     below replaces global operator new for this binary, so the counters
//     see every allocation including the arena's own slab minting), plus a
//     multi-thread churn test asserting the per-thread arenas neither leak
//     slabs nor double-park them; under TSan (this file carries the rt
//     ctest label) the same test doubles as a race check on the
//     thread-locality of the arena.
#include "util/alloc_probe.h"  // FIRST: replaces global operator new/delete

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "env/rt_env.h"
#include "replay/replay_objects.h"
#include "rt/baselines_rt.h"
#include "rt/hi_set_rt.h"
#include "rt/max_register_rt.h"
#include "rt/registers_rt.h"
#include "rt/rllsc_rt.h"
#include "rt/sharded_set_rt.h"
#include "rt/universal_rt.h"
#include "rt/wait_free_sim_rt.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/counter_spec.h"
#include "spec/register_spec.h"

namespace hi {
namespace {

// ---- FrameArena unit tests (direct allocate/deallocate, no coroutines) ----

TEST(FrameArena, PrewarmedBucketsNeverTouchTheHeap) {
  // A fresh thread gets a fresh arena — the main thread's arena may have
  // been drained or churned by other tests (order independence).
  std::atomic<int> violations{0};
  std::thread probe([&violations] {
    env::FrameArena& arena = env::FrameArena::local();
    const auto before = arena.stats();
    // Construction parked kPrewarmDepth slabs in every prewarmed bucket,
    // so even the FIRST allocation of a prewarmed size is a reuse hit.
    const util::AllocTally tally;
    void* slab = arena.allocate(256);
    if (slab == nullptr) ++violations;
    arena.deallocate(slab, 256);
    if (tally.allocs() != 0) ++violations;
    const auto after = arena.stats();
    if (after.fresh_slabs != before.fresh_slabs) ++violations;
    if (after.reuse_hits != before.reuse_hits + 1) ++violations;
  });
  probe.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(FrameArena, RecyclesSameBucket) {
  env::FrameArena& arena = env::FrameArena::local();
  const auto before = arena.stats();

  // 2048 bytes lands beyond the prewarmed buckets: the first allocation
  // mints a fresh slab, and a same-bucket re-request must pop it back.
  void* first = arena.allocate(2048);
  ASSERT_NE(first, nullptr);
  arena.deallocate(first, 2048);
  void* second = arena.allocate(2000);  // same bucket: (1984, 2048]
  EXPECT_EQ(second, first);
  arena.deallocate(second, 2000);

  const auto after = arena.stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.reuse_hits, before.reuse_hits + 1);
  EXPECT_EQ(after.fresh_slabs, before.fresh_slabs + 1);
}

TEST(FrameArena, DistinctBucketsDoNotAlias) {
  env::FrameArena& arena = env::FrameArena::local();
  void* small = arena.allocate(64);
  void* large = arena.allocate(1024);
  EXPECT_NE(small, large);
  arena.deallocate(small, 64);
  // A 1024-byte request must not be served from the 64-byte bucket.
  void* again = arena.allocate(1024);
  EXPECT_NE(again, small);
  arena.deallocate(large, 1024);
  arena.deallocate(again, 1024);
}

TEST(FrameArena, OversizePassesThrough) {
  env::FrameArena& arena = env::FrameArena::local();
  const auto before = arena.stats();
  constexpr std::size_t kBig = env::FrameArena::kMaxCachedBytes + 1;

  const util::AllocTally tally;
  void* big = arena.allocate(kBig);
  ASSERT_NE(big, nullptr);
  arena.deallocate(big, kBig);
  EXPECT_EQ(tally.allocs(), 1u);  // went to the heap...
  EXPECT_EQ(tally.frees(), 1u);   // ...and straight back

  const auto after = arena.stats();
  EXPECT_EQ(after.oversize, before.oversize + 1);
  EXPECT_EQ(after.cached, before.cached);  // never parked
  EXPECT_EQ(after.outstanding, before.outstanding);
}

TEST(FrameArena, DrainReleasesEveryCachedSlab) {
  env::FrameArena& arena = env::FrameArena::local();
  for (const std::size_t bytes : {96u, 320u, 1500u}) {
    void* slab = arena.allocate(bytes);
    arena.deallocate(slab, bytes);
  }
  EXPECT_GT(arena.stats().cached, 0u);
  arena.drain();
  EXPECT_EQ(arena.stats().cached, 0u);
  // Post-drain allocation mints fresh slabs again (the arena stays usable).
  void* slab = arena.allocate(96);
  ASSERT_NE(slab, nullptr);
  arena.deallocate(slab, 96);
}

// ---- Steady-state zero-allocation contracts, one per rt object ----

/// Runs `op` warmup times untimed (minting every frame slab the workload
/// needs), then returns the calling thread's heap-allocation count across
/// `ops` further calls. The contract under test: exactly zero.
template <typename Fn>
std::uint64_t steady_state_allocs(Fn op, int warmup = 256, int ops = 2048) {
  for (int i = 0; i < warmup; ++i) op(i);
  const util::AllocTally tally;
  for (int i = 0; i < ops; ++i) op(warmup + i);
  return tally.allocs();
}

TEST(RtAllocSteadyState, VidyasankarRegister) {
  rt::RtVidyasankarRegister reg(16);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(static_cast<std::uint32_t>(i % 16) + 1);
              (void)reg.read();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegister) {
  rt::RtLockFreeHiRegister reg(16);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(static_cast<std::uint32_t>(i % 16) + 1);
              (void)reg.read(/*max_attempts=*/4);  // solo: first TryRead hits
            }));
}

TEST(RtAllocSteadyState, WaitFreeHiRegister) {
  rt::RtWaitFreeHiRegister reg(16);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(static_cast<std::uint32_t>(i % 16) + 1);
              (void)reg.read();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegisterPackedLargeK) {
  // The packed large-K hot path (16-word scans + masked clears, plus the
  // scan Sub frames the word-scan library adds) must stay allocation-free.
  rt::RtLockFreeHiRegister reg(1024);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(static_cast<std::uint32_t>(i % 1024) + 1);
              (void)reg.read(/*max_attempts=*/4);
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegisterPaddedLayout) {
  // The padded alias (kept for layout comparisons) shares the contract.
  rt::RtLockFreeHiRegisterPadded reg(64);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(static_cast<std::uint32_t>(i % 64) + 1);
              (void)reg.read(/*max_attempts=*/4);
            }));
}

TEST(RtAllocSteadyState, MaxRegister) {
  rt::RtMaxRegister reg(64);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              // Ramp once, then absorbed writes: both paths must be free.
              reg.write_max(static_cast<std::uint32_t>(i % 64) + 1);
            }));
  rt::RtMaxRegister reader_side(64, 1, /*writer_pid=*/0, /*reader_pid=*/0);
  EXPECT_EQ(0u, steady_state_allocs(
                    [&](int) { (void)reader_side.read_max(); }));
}

TEST(RtAllocSteadyState, HiSet) {
  rt::RtHiSet set(64);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              const auto v = static_cast<std::uint32_t>(i % 64) + 1;
              (void)set.insert(v);
              (void)set.lookup(v);
              (void)set.remove(v);
            }));
}

TEST(RtAllocSteadyState, ShardedHiSet) {
  // The sharded facade forwards the shard's single coroutine frame — no
  // wrapper frame, no per-op routing state — so a large multi-word store
  // keeps the same zero-allocation contract as the one-word set. 1M keys
  // over 16 striped shards: every op crosses the facade into a multi-word
  // shard (62500 bins = 977 words each).
  rt::RtShardedHiSet store(1'000'000, 16, algo::ShardPlacement::kStriped);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              const auto v =
                  static_cast<std::uint32_t>(i * 7919 % 1'000'000) + 1;
              (void)store.insert(v);
              (void)store.lookup(v);
              (void)store.remove(v);
            }));

  // The audit path is allocation-free once the caller's vector has
  // capacity: per-shard word scans are Sub frames recycled by the arena.
  rt::RtShardedHiSet audit_store(4096, 4, algo::ShardPlacement::kBlocked);
  for (std::uint32_t k = 1; k <= 4096; k += 3) audit_store.insert(k);
  std::vector<std::uint32_t> members;
  members.reserve(4096);
  EXPECT_EQ(0u, steady_state_allocs(
                    [&](int) {
                      members.clear();
                      (void)audit_store.snapshot_members(members);
                    },
                    /*warmup=*/8, /*ops=*/64));
}

TEST(RtAllocSteadyState, Rllsc) {
  rt::RtRllsc cell(0);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              const std::uint64_t seen = cell.ll(0);
              (void)cell.vl(0);
              (void)cell.sc(0, seen + 1);
              (void)cell.rl(0);
              (void)cell.load();
              (void)cell.store(seen);
            }));
}

TEST(RtAllocSteadyState, Universal) {
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtUniversal<spec::CounterSpec> object(spec, 2);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              (void)object.apply(0, spec::CounterSpec::inc());
              (void)object.apply(0, spec::CounterSpec::read());
            }));
}

TEST(RtAllocSteadyState, UniversalCombining) {
  // The combining mode adds the announce scan and the per-cell response
  // stores to the winner's path; it shares the contract.
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtUniversal<spec::CounterSpec> object(spec, 2, /*clear_contexts=*/true,
                                            /*combine=*/true);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              (void)object.apply(0, spec::CounterSpec::inc());
              (void)object.apply(0, spec::CounterSpec::read());
            }));
}

TEST(RtAllocSteadyState, WaitFreeSimHiRegister) {
  // Both paths of the combinator: the fast path (fast_limit = 1; solo
  // attempts never fail) and the forced slow path (fast_limit = 0: every
  // read announces, enqueues and helps itself).
  for (const std::uint32_t fast_limit : {1u, 0u}) {
    rt::RtWaitFreeSimHiRegister reg(64, 32, /*num_processes=*/2, fast_limit);
    EXPECT_EQ(0u, steady_state_allocs([&](int i) {
                reg.write(static_cast<std::uint32_t>(i % 64) + 1);
                (void)reg.read();
              }))
        << "fast_limit " << fast_limit;
  }
}

TEST(RtAllocSteadyState, LeakyUniversal) {
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtLeakyUniversal<spec::CounterSpec> object(spec, 2);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              (void)object.apply(0, spec::CounterSpec::inc());
            }));
}

// ---- ReplayEnv exemption: suspending frames are heap-backed BY DESIGN ----

// docs/ENV.md "ReplayEnv: allocation contract": the steady-state
// allocs_per_op == 0 gate applies ONLY to RtEnv's EagerTask frames. A
// ReplayEnv coroutine is a sim::OpTask/sim::SubTask whose frame must
// survive arbitrarily many scheduler steps (and may be abandoned
// mid-operation), so it is an ordinary heap allocation — recycling it
// through the same-thread FrameArena free list would be unsound the moment
// a harness destroyed it from another thread or drained the arena under a
// live suspended frame. This test pins the exemption in both directions:
// replay operations DO allocate per op, and none of that traffic touches
// the calling thread's FrameArena books (so the arena invariants the churn
// test checks stay exact even in binaries that mix both backends).
TEST(RtAllocReplayExemption, ReplayFramesAreHeapBackedAndBypassTheArena) {
  const spec::RegisterSpec spec(8, 1);
  sim::Memory memory;
  sim::Scheduler sched(2);
  replay::LockFreeHiRegister reg(memory, spec, /*writer_pid=*/0,
                                 /*reader_pid=*/1);

  for (int i = 0; i < 64; ++i) {  // warmup, mirroring the rt contracts
    (void)sim::run_solo(sched, 0, reg.write(0, (i % 8) + 1));
    (void)sim::run_solo(sched, 1, reg.read(1));
  }
  const auto arena_before = env::FrameArena::local().stats();
  const util::AllocTally tally;
  constexpr int kOps = 256;
  for (int i = 0; i < kOps; ++i) {
    (void)sim::run_solo(sched, 0, reg.write(0, (i % 8) + 1));
    (void)sim::run_solo(sched, 1, reg.read(1));
  }
  // Heap-backed: at least one allocation per operation (Op frame; reads add
  // a TryRead Sub frame).
  EXPECT_GE(tally.allocs(), static_cast<std::uint64_t>(2 * kOps));
  EXPECT_EQ(tally.allocs(), tally.frees()) << "replay frames must not leak";
  // And none of it went through the arena.
  const auto arena_after = env::FrameArena::local().stats();
  EXPECT_EQ(arena_after.outstanding, arena_before.outstanding);
  EXPECT_EQ(arena_after.fresh_slabs, arena_before.fresh_slabs);
  EXPECT_EQ(arena_after.reuse_hits, arena_before.reuse_hits);
}

// ---- Multi-thread churn: arenas neither leak nor double-free ----

// Each worker hammers shared objects (universal helping, set toggles, LL/SC
// traffic — real cross-thread contention), then checks its own arena's
// books: no live frames, every minted slab parked exactly once, drain
// empties the cache. A double-free would corrupt the intrusive free list
// (caught by the invariants or by TSan); a cross-thread frame would be a
// data race on the free list (caught by TSan — this test runs in the
// rt-labelled TSan CI job).
TEST(RtAllocChurn, MultiThreadArenaBalance) {
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  const spec::CounterSpec spec(0xffffff, 0);
  rt::RtUniversal<spec::CounterSpec> universal(spec, kThreads);
  rt::RtHiSet set(64);
  rt::RtRllsc cell(0);

  std::atomic<int> violations{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int pid = 0; pid < kThreads; ++pid) {
    pool.emplace_back([&, pid] {
      for (int i = 0; i < kOps; ++i) {
        (void)universal.apply(pid, spec::CounterSpec::inc());
        const auto v =
            static_cast<std::uint32_t>((pid * 16 + i % 16) % 64) + 1;
        (void)set.insert(v);
        (void)set.lookup(v);
        (void)set.remove(v);
        const std::uint64_t seen = cell.ll(pid);
        (void)cell.sc(pid, seen + 1);
        (void)cell.rl(pid);
      }
      auto stats = env::FrameArena::local().stats();
      if (stats.outstanding != 0) ++violations;          // leak: live frames
      if (stats.cached != stats.fresh_slabs) ++violations;  // lost/dup slab
      if (stats.reuse_hits == 0) ++violations;  // arena never engaged?
      env::FrameArena::local().drain();
      stats = env::FrameArena::local().stats();
      if (stats.cached != 0) ++violations;
    });
  }
  for (auto& worker : pool) worker.join();
  EXPECT_EQ(violations.load(), 0);
  // The shared objects are still coherent after the churn.
  std::uint64_t total = 0;
  for (int pid = 0; pid < kThreads; ++pid) {
    total = universal.apply(pid, spec::CounterSpec::read());
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace hi
