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
// The universal's build is pinned too: a count of allocations that does not
// grow with n, and the fresh memory image on every backend.
#include "util/alloc_probe.h"  // FIRST: replaces global operator new/delete

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algo/hi_set.h"
#include "algo/leaky_universal.h"
#include "algo/max_register.h"
#include "algo/registers.h"
#include "algo/rllsc.h"
#include "algo/sharded_set.h"
#include "algo/universal.h"
#include "algo/wait_free_sim.h"
#include "env/replay_env.h"
#include "env/rt_env.h"
#include "env/sim_env.h"
#include "rt/rllsc_rt.h"
#include "rt/sharded_set_rt.h"
#include "rt/universal_rt.h"
#include "sim/harness.h"
#include "sim/memory.h"
#include "sim/scheduler.h"
#include "spec/counter_spec.h"
#include "spec/max_register_spec.h"
#include "spec/register_spec.h"
#include "spec/set_spec.h"
#include "util/bits.h"

namespace hi {
namespace {

using env::RtEnv;
using Packed = env::PackedBins<RtEnv>;
using Padded = env::PaddedBins<RtEnv>;
constexpr int kWriter = 0;
constexpr int kReader = 1;

// ---- FrameArena unit tests (direct allocate/deallocate, no coroutines) ----

TEST(FrameArena, PrewarmedBucketsNeverTouchTheHeap) {
  // A fresh thread gets a fresh arena — the main thread's arena may have
  // been drained or churned by other tests (order independence).
  std::atomic<int> violations{0};
  std::thread probe([&violations] {
    constexpr std::uint64_t kReserve =
        env::FrameArena::kPrewarmBuckets * env::FrameArena::kPrewarmDepth;
    // Constructing the arena and reading its books allocate nothing.
    const util::AllocTally cold;
    env::FrameArena& arena = env::FrameArena::local();
    const auto fresh = arena.stats();
    if (cold.allocs() != 0) ++violations;
    if (fresh.fresh_slabs != 0 || fresh.cached != 0) ++violations;
    // The first mint parks the whole reserve, every slab counted as fresh,
    // and serves the request from it.
    void* first = arena.allocate(256);
    if (first == nullptr) ++violations;
    arena.deallocate(first, 256);
    const auto before = arena.stats();
    if (cold.allocs() != kReserve) ++violations;
    if (before.fresh_slabs != kReserve) ++violations;
    if (before.cached != kReserve) ++violations;
    if (before.reuse_hits != 1) ++violations;
    // After that, a prewarmed-size allocation is a reuse hit that never
    // touches the heap.
    const util::AllocTally tally;
    void* slab = arena.allocate(1024);
    if (slab == nullptr) ++violations;
    arena.deallocate(slab, 1024);
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
  // Hold every slab already parked in the 2048-byte bucket (an earlier run
  // of this test on the thread parks one) until the bucket is empty and
  // one allocation mints — running the first-mint prewarm if this thread
  // has not minted yet — so the books below see only this test's slab.
  std::vector<void*> held;
  const std::uint64_t minted = arena.stats().fresh_slabs;
  do {
    held.push_back(arena.allocate(2048));
  } while (arena.stats().fresh_slabs == minted);
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
  for (void* slab : held) arena.deallocate(slab, 2048);
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
  algo::VidyasankarAlg<RtEnv, Packed> reg(RtEnv::Ctx{},
                                          spec::RegisterSpec(16), kWriter,
                                          kReader);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(kWriter, static_cast<std::uint32_t>(i % 16) + 1).get();
              (void)reg.read(kReader).get();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegister) {
  algo::LockFreeHiAlg<RtEnv, Packed> reg(RtEnv::Ctx{}, spec::RegisterSpec(16),
                                         kWriter, kReader);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(kWriter, static_cast<std::uint32_t>(i % 16) + 1).get();
              // Solo: the first TryRead hits.
              (void)reg.read_bounded(kReader, /*max_attempts=*/4).get();
            }));
}

TEST(RtAllocSteadyState, WaitFreeHiRegister) {
  algo::WaitFreeHiAlg<RtEnv, Packed> reg(RtEnv::Ctx{}, spec::RegisterSpec(16),
                                         kWriter, kReader);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(kWriter, static_cast<std::uint32_t>(i % 16) + 1).get();
              (void)reg.read(kReader).get();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegisterPackedLargeK) {
  // The packed large-K hot path (16-word scans + masked clears, plus the
  // scan Sub frames the word-scan library adds) must stay allocation-free.
  algo::LockFreeHiAlg<RtEnv, Packed> reg(
      RtEnv::Ctx{}, spec::RegisterSpec(1024), kWriter, kReader);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(kWriter, static_cast<std::uint32_t>(i % 1024) + 1)
                  .get();
              (void)reg.read_bounded(kReader, /*max_attempts=*/4).get();
            }));
}

TEST(RtAllocSteadyState, LockFreeHiRegisterPaddedLayout) {
  // The padded layout (kept for layout comparisons) shares the contract.
  algo::LockFreeHiAlg<RtEnv, Padded> reg(RtEnv::Ctx{}, spec::RegisterSpec(64),
                                         kWriter, kReader);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              reg.write(kWriter, static_cast<std::uint32_t>(i % 64) + 1).get();
              (void)reg.read_bounded(kReader, /*max_attempts=*/4).get();
            }));
}

TEST(RtAllocSteadyState, MaxRegister) {
  const spec::MaxRegisterSpec spec(64);
  algo::HiMaxRegisterAlg<RtEnv, Packed> reg(RtEnv::Ctx{}, spec, kWriter,
                                            kReader);
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              // Ramp once, then absorbed writes: both paths must be free.
              reg.write_max(kWriter, static_cast<std::uint32_t>(i % 64) + 1)
                  .get();
            }));
  algo::HiMaxRegisterAlg<RtEnv, Packed> reader_side(
      RtEnv::Ctx{}, spec, /*writer_pid=*/0, /*reader_pid=*/0);
  EXPECT_EQ(0u, steady_state_allocs(
                    [&](int) { (void)reader_side.read_max(0).get(); }));
}

TEST(RtAllocSteadyState, HiSet) {
  algo::HiSetAlg<RtEnv, Packed> set(RtEnv::Ctx{}, spec::SetSpec(64));
  EXPECT_EQ(0u, steady_state_allocs([&](int i) {
              const auto v = static_cast<std::uint32_t>(i % 64) + 1;
              (void)set.insert(v).get();
              (void)set.lookup(v).get();
              (void)set.remove(v).get();
            }));
}

TEST(RtAllocSteadyState, ShardedHiSet) {
  // The sharded facade forwards the shard's frameless task — no wrapper
  // frame, no per-op routing state — so a large multi-word store keeps
  // the same zero-allocation contract as the one-word set. 1M keys
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
  // capacity: it is a frameless loop over the shards' word scans.
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
    algo::WaitFreeSimHiAlg<RtEnv, Packed> reg(
        RtEnv::Ctx{}, spec::RegisterSpec(64, 32), kWriter, kReader,
        fast_limit);
    EXPECT_EQ(0u, steady_state_allocs([&](int i) {
                reg.write(kWriter, static_cast<std::uint32_t>(i % 64) + 1)
                    .get();
                (void)reg.read(kReader).get();
              }))
        << "fast_limit " << fast_limit;
  }
}

TEST(RtAllocSteadyState, LeakyUniversal) {
  const spec::CounterSpec spec(0xffffff, 0);
  algo::LeakyUniversalAlg<RtEnv, spec::CounterSpec> object(RtEnv::Ctx{}, spec,
                                                          2);
  EXPECT_EQ(0u, steady_state_allocs([&](int) {
              (void)object.apply(0, spec::CounterSpec::inc()).get();
            }));
}

// ---- The universal build: one block, the same image on every backend ----

using RtUniversalAlg =
    algo::UniversalAlg<RtEnv, spec::CounterSpec, algo::CasRllscAlg<RtEnv>>;

TEST(RtAllocBuild, UniversalIsOneBlockForEveryN) {
  // Every per-process field (announce cell, priority, batch counters) lives
  // in one block, so a build allocates the same few times whatever n is,
  // frees all of it when destroyed, and each cell keeps its own line.
  const spec::CounterSpec spec(0xffffff, 0);
  for (const bool combine : {false, true}) {
    std::optional<std::uint64_t> first;
    for (const int n : {1, 3, 9, 64}) {
      const util::AllocTally tally;
      std::uint64_t allocs = 0;
      {
        const RtUniversalAlg object(RtEnv::Ctx{}, spec, n, true, combine);
        allocs = tally.allocs();
        EXPECT_EQ(object.memory_bytes(),
                  64 * (1 + static_cast<std::size_t>(n)));
      }
      EXPECT_LE(allocs, 2u) << "n=" << n << " combine=" << combine;
      EXPECT_EQ(allocs, first.value_or(allocs))
          << "n=" << n << " combine=" << combine;
      first = allocs;
      EXPECT_EQ(tally.frees(), allocs) << "n=" << n << " combine=" << combine;
    }
  }
}

/// A cell that records its lifetime and throws from its `throw_at`-th
/// construction (0 = never): enough of a cell for UniversalAlg's
/// constructor and destructor, which are all this test instantiates.
struct TracingCell {
  struct BuildFailed {};
  static inline int built = 0;
  static inline int throw_at = 0;
  static inline std::vector<std::string> destroyed;

  std::string name;
  TracingCell(RtEnv::Ctx, std::string cell_name, std::uint64_t)
      : name(std::move(cell_name)) {
    if (++built == throw_at) throw BuildFailed{};
  }
  ~TracingCell() { destroyed.push_back(name); }
};

TEST(RtAllocBuild, UniversalBuildThatThrowsUndoesItself) {
  // A throwing announce cell: the cells built before it are destroyed, last
  // first, then head, and every allocation is freed. A whole object
  // destroys its cells the same way.
  using Alg = algo::UniversalAlg<RtEnv, spec::CounterSpec, TracingCell>;
  const spec::CounterSpec spec(0xffffff, 0);
  TracingCell::built = 0;
  TracingCell::throw_at = 4;  // head, announce[0], [1], then [2] throws
  TracingCell::destroyed.clear();
  TracingCell::destroyed.reserve(8);  // so the tally counts only the build
  {
    const util::AllocTally tally;
    EXPECT_THROW(Alg(RtEnv::Ctx{}, spec, 5), TracingCell::BuildFailed);
    EXPECT_EQ(tally.frees(), tally.allocs());
  }
  EXPECT_EQ(TracingCell::destroyed,
            (std::vector<std::string>{"announce[1]", "announce[0]", "head"}));

  TracingCell::throw_at = 0;
  TracingCell::destroyed.clear();
  { const Alg object(RtEnv::Ctx{}, spec, 3); }
  EXPECT_EQ(TracingCell::destroyed,
            (std::vector<std::string>{"announce[2]", "announce[1]",
                                      "announce[0]", "head"}));
}

/// One construction context per backend: the scheduler-driven Envs
/// register their cells in a sim::Memory; RtEnv's cells own their storage.
template <typename E>
struct BuildHost {
  sim::Memory memory;
  typename E::Ctx ctx() { return memory; }
};
template <>
struct BuildHost<RtEnv> {
  RtEnv::Ctx ctx() { return {}; }
};

template <typename E>
class UniversalBuild : public ::testing::Test {};
using AllEnvs = ::testing::Types<env::SimEnv, env::ReplayEnv, RtEnv>;
TYPED_TEST_SUITE(UniversalBuild, AllEnvs);

// A fresh object at the smallest n and at the codec's 64-process maximum is
// the state-quiescent image of the initial state: head ⟨q0, ⊥⟩, then n ⊥
// announce words, no context, no batch installed.
TYPED_TEST(UniversalBuild, FreshImageIsHeadThenBottoms) {
  using E = TypeParam;
  using Alg = algo::UniversalAlg<E, spec::CounterSpec, algo::CasRllscAlg<E>>;
  using Codec = typename Alg::Codec;
  const spec::CounterSpec spec(0xffffff, 5);
  for (const int n : {1, 64}) {
    for (const bool combine : {false, true}) {
      BuildHost<E> host;
      const Alg object(host.ctx(), spec, n, true, combine);
      std::vector<algo::CtxWord<typename E::Value>> expected(
          1 + static_cast<std::size_t>(n), {Codec::bottom(), 0});
      expected[0].value = Codec::make_head(5, std::nullopt);
      EXPECT_EQ(object.memory_words(), expected)
          << "n=" << n << " combine=" << combine;
      EXPECT_EQ(object.head_state_encoded(), 5u);
      EXPECT_EQ(object.context_union(), 0u);
      EXPECT_EQ(object.batches_installed(), 0u);
      EXPECT_EQ(object.ops_combined(), 0u);
      EXPECT_EQ(object.num_processes(), n);
    }
  }
}

// ---- Lifted single-primitive ops: no frame on RtEnv, one step elsewhere ----

// Env::lift (env/env.h) turns a body that is one awaited primitive plus
// local computation into a frameless ready task on RtEnv. The frame count
// is perfbench's env.frames_per_op numerator: fresh mints + reuse hits +
// oversize pass-throughs; each lifted op must add exactly 0.

std::uint64_t arena_frames() {
  const auto s = env::FrameArena::local().stats();
  return s.fresh_slabs + s.reuse_hits + s.oversize;
}

/// Frames the calling thread's arena handed out while `op` ran.
template <typename Fn>
std::uint64_t frames_of(Fn op) {
  const std::uint64_t before = arena_frames();
  op();
  return arena_frames() - before;
}

/// A probe that runs `interfere` at its `countdown`-th point on this
/// thread: countdown = 2 lands right after a retry loop's cas_read, so a
/// write there makes the loop's first CAS fail and its poll run.
struct InterferingProbe {
  static inline thread_local int countdown = 0;
  static inline thread_local void (*interfere)() = nullptr;

  static void point() noexcept {
    if (countdown > 0 && --countdown == 0) interfere();
  }
};

TEST(RtLiftedOps, OpenNoFrame) {
  algo::HiSetAlg<RtEnv, Packed> set(RtEnv::Ctx{}, spec::SetSpec(64));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(set.insert(5).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(set.lookup(5).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(set.remove(5).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_FALSE(set.lookup(5).get()); }));

  // The packed audits are Env::lift_each loops: no frame for the set's
  // scan, and none for the sharded store's loop over its shards' scans.
  std::vector<std::uint32_t> members;
  members.reserve(4096);
  (void)set.insert(3).get();
  (void)set.insert(64).get();
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_EQ(set.snapshot_members(members).get(), 2u);
            }));
  algo::ShardedHiSetPacked<RtEnv> store(RtEnv::Ctx{}, 4096, 4,
                                        algo::ShardPlacement::kStriped);
  for (std::uint32_t k = 1; k <= 4096; k += 5) (void)store.insert(k).get();
  members.clear();
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_EQ(store.snapshot_members(members).get(), 820u);
            }));

  algo::CasRllscAlg<RtEnv> cell(RtEnv::Ctx{}, "X", 7);
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(cell.store(9).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_EQ(cell.load().get(), 9u); }));
  // The retry loops are Env::cas_loop plain loops: no frame for LL, for
  // SC and RL whether or not the caller is linked, nor for either exit of
  // an interleaved LL.
  EXPECT_EQ(0u, frames_of([&] { EXPECT_EQ(cell.ll(0).get(), 9u); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(cell.vl(0).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_FALSE(cell.vl(1).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_FALSE(cell.sc(1, 4).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(cell.sc(0, 4).get()); }));
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(cell.rl(0).get()); }));
  EXPECT_EQ(cell.ll(1).get(), 4u);
  EXPECT_EQ(0u, frames_of([&] { EXPECT_TRUE(cell.rl(1).get()); }));
  EXPECT_EQ(cell.peek_context(), 0u);
  const auto never = [] { return env::detail::ready(false); };
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_EQ(cell.ll_interleaved(0, never).get(), 4u);
            }));
  EXPECT_EQ(cell.peek_context(), 1u);

  // The bail path needs a failed CAS: the probe overwrites the word
  // between the loop's read and its first CAS, and the poll then bails.
  using Ip = env::RtEnvT<InterferingProbe>;
  static algo::CasRllscAlg<Ip> raced(Ip::Ctx{}, "Y", 7);
  (void)raced.store(7).get();  // the same start on a repeated run
  InterferingProbe::interfere = [] { (void)raced.store(8).get(); };
  InterferingProbe::countdown = 2;
  int polls = 0;
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_FALSE(raced
                               .ll_interleaved(0,
                                               [&polls] {
                                                 ++polls;
                                                 return env::detail::ready(
                                                     true);
                                               })
                               .get()
                               .has_value());
            }));
  EXPECT_EQ(polls, 1);
  EXPECT_EQ(raced.peek_value(), 8u);
  EXPECT_EQ(raced.peek_context(), 0u);

  // The packed clears are Env::lift_each loops over their fetch_ands.
  auto bins = Packed::make(RtEnv::Ctx{}, "A", 200, 0);
  for (std::uint32_t v = 1; v <= 200; v += 3) {
    (void)Packed::set(bins, v).await_resume();
  }
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_TRUE(Packed::clear_down(bins, 130).get());
            }));
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_TRUE(Packed::clear_up(bins, 134).get());
            }));
  for (std::uint32_t v = 1; v <= 200; ++v) {
    EXPECT_EQ(Packed::peek(bins, v), v == 133 ? 1u : 0u) << v;
  }

  const spec::CounterSpec spec(0xffffff, 0);
  algo::UniversalAlg<RtEnv, spec::CounterSpec, algo::CasRllscAlg<RtEnv>>
      object(RtEnv::Ctx{}, spec, 2);
  (void)object.apply(0, spec::CounterSpec::inc()).get();
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_EQ(object.apply_read_only(1, spec::CounterSpec::read())
                            .get(),
                        1u);
            }));
  // apply() forwards a read-only op to the same frameless task.
  EXPECT_EQ(0u, frames_of([&] {
              EXPECT_EQ(object.apply(0, spec::CounterSpec::read()).get(), 1u);
            }));

  // A solo update opens exactly its own apply_update frame: the LL/SC/RL
  // and the announce loads and stores under it are frameless.
  for (const bool combine : {false, true}) {
    algo::UniversalAlg<RtEnv, spec::CounterSpec, algo::CasRllscAlg<RtEnv>>
        updated(RtEnv::Ctx{}, spec, 2, true, combine);
    EXPECT_EQ(1u, frames_of([&] {
                EXPECT_EQ(updated.apply(1, spec::CounterSpec::inc()).get(),
                          0u);
              })) << "combine=" << combine;
    EXPECT_EQ(updated.head_state_encoded(), 1u);
    EXPECT_EQ(updated.context_union(), 0u);
  }
}

/// Runs `task` solo as process `pid`; returns the steps it took and stores
/// its response in `result`.
template <typename T>
std::uint64_t solo_steps(sim::Scheduler& sched, int pid, sim::OpTask<T> task,
                         T& result) {
  const std::uint64_t before = sched.steps_of(pid);
  result = sim::run_solo(sched, pid, std::move(task));
  return sched.steps_of(pid) - before;
}

template <typename E>
class LiftedOpSteps : public ::testing::Test {};
using SchedulerDrivenEnvs = ::testing::Types<env::SimEnv, env::ReplayEnv>;
TYPED_TEST_SUITE(LiftedOpSteps, SchedulerDrivenEnvs);

// The same ops on the scheduler-driven backends: lift is the one-await
// coroutine there, so each still takes exactly one step.
TYPED_TEST(LiftedOpSteps, OneStepEach) {
  using E = TypeParam;
  sim::Memory memory;
  sim::Scheduler sched(2);

  algo::HiSetAlg<E, env::PackedBins<E>> set(memory, spec::SetSpec(64));
  bool found = false;
  EXPECT_EQ(1u, solo_steps(sched, 0, set.insert(5), found));
  EXPECT_EQ(1u, solo_steps(sched, 1, set.lookup(5), found));
  EXPECT_TRUE(found);
  EXPECT_EQ(1u, solo_steps(sched, 0, set.remove(5), found));
  EXPECT_EQ(1u, solo_steps(sched, 1, set.lookup(5), found));
  EXPECT_FALSE(found);

  using R = spec::RllscSpec;
  algo::CasRllscAlg<E> cell(memory, "X", typename E::Value{});
  R::Resp resp;
  EXPECT_EQ(1u, solo_steps(sched, 0, cell.apply(0, R::store(0, 9)), resp));
  EXPECT_EQ(1u, solo_steps(sched, 0, cell.apply(0, R::load(0)), resp));
  EXPECT_EQ(resp.value, 9u);
  (void)sim::run_solo(sched, 0, cell.apply(0, R::ll(0)));
  EXPECT_EQ(1u, solo_steps(sched, 0, cell.apply(0, R::vl(0)), resp));
  EXPECT_TRUE(resp.flag);

  const spec::CounterSpec spec(0xffffff, 0);
  algo::UniversalAlg<E, spec::CounterSpec, algo::CasRllscAlg<E>> object(
      memory, spec, 2);
  (void)sim::run_solo(sched, 0, object.apply(0, spec::CounterSpec::inc()));
  std::uint32_t count = 0;
  EXPECT_EQ(1u, solo_steps(sched, 1,
                           object.apply_read_only(1, spec::CounterSpec::read()),
                           count));
  EXPECT_EQ(count, 1u);
}

// The R-LLSC retry loops are Env::cas_loop: on the scheduler-driven
// backends the retry coroutine, so a solo call takes its read plus one CAS
// per attempt, and an unlinked SC or RL stops at the read.
TYPED_TEST(LiftedOpSteps, RetryLoopReadPlusOneCasPerAttempt) {
  using E = TypeParam;
  using R = spec::RllscSpec;
  sim::Memory memory;
  sim::Scheduler sched(2);
  algo::CasRllscAlg<E> cell(memory, "X", typename E::Value{});
  R::Resp resp;
  EXPECT_EQ(2u, solo_steps(sched, 0, cell.apply(0, R::ll(0)), resp)) << "LL";
  EXPECT_EQ(2u, solo_steps(sched, 0, cell.apply(0, R::sc(0, 5)), resp))
      << "SC linked";
  EXPECT_TRUE(resp.flag);
  EXPECT_EQ(1u, solo_steps(sched, 0, cell.apply(0, R::sc(0, 6)), resp))
      << "SC unlinked";
  EXPECT_FALSE(resp.flag);
  (void)sim::run_solo(sched, 1, cell.apply(1, R::ll(1)));
  EXPECT_EQ(2u, solo_steps(sched, 1, cell.apply(1, R::rl(1)), resp))
      << "RL linked";
  EXPECT_TRUE(resp.flag);
  EXPECT_EQ(1u, solo_steps(sched, 1, cell.apply(1, R::rl(1)), resp))
      << "RL unlinked";
  EXPECT_TRUE(resp.flag);
  EXPECT_EQ(cell.peek_context(), 0u);
}

// The packed audits are Env::lift_each loops: on the scheduler-driven
// backends that is the await-each coroutine, so an audit still takes one
// step per word — the set's words, and the sum of the shards' words.
TYPED_TEST(LiftedOpSteps, PackedAuditOneStepPerWord) {
  using E = TypeParam;
  sim::Memory memory;
  sim::Scheduler sched(1);
  std::vector<std::uint64_t> seeded(util::bin_words(130), 0);
  for (const std::uint32_t k : {1u, 2u, 64u, 65u, 130u}) {
    util::bin_set(seeded, k);
  }

  algo::HiSetAlg<E, env::PackedBins<E>> set(memory, 130, seeded);
  std::vector<std::uint32_t> members;
  std::uint32_t count = 0;
  EXPECT_EQ(3u, solo_steps(sched, 0, set.snapshot_members(members), count));
  EXPECT_EQ(count, 5u);

  algo::ShardedHiSetPacked<E> store(memory, 130, 2,
                                    algo::ShardPlacement::kStriped, seeded);
  members.clear();
  EXPECT_EQ(4u, solo_steps(sched, 0, store.snapshot_members(members), count));
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(members, (std::vector<std::uint32_t>{1, 65, 2, 64, 130}));
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
  algo::LockFreeHiAlgPadded<env::ReplayEnv> reg(memory, spec,
                                                /*writer_pid=*/0,
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
  algo::HiSetAlg<RtEnv, Packed> set(RtEnv::Ctx{}, spec::SetSpec(64));
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
        (void)set.insert(v).get();
        (void)set.lookup(v).get();
        (void)set.remove(v).get();
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
