// Env-layer parity suite: each single-source algorithm (algo/*.h over the
// Env abstraction) is instantiated by BOTH execution environments, so for
// any *sequential* operation sequence the simulator instantiation and the
// hardware instantiation must march through identical memory states — the
// sim mem(C) snapshot and the rt memory_image() are the same vector, and
// every response matches. This pins the two backends to one semantics: a
// future edit that diverges them (or a codec/packing bug) fails here before
// any HI property is even consulted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/leaky_universal.h"
#include "algo/wait_free_sim.h"
#include "core/hi_register_lockfree.h"
#include "core/hi_register_waitfree.h"
#include "core/hi_set.h"
#include "core/max_register.h"
#include "core/rllsc.h"
#include "core/universal.h"
#include "core/vidyasankar.h"
#include "register_common.h"
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
#include "spec/max_register_spec.h"
#include "spec/register_spec.h"
#include "spec/set_spec.h"
#include "util/bits.h"
#include "util/rng.h"

namespace hi {
namespace {

/// The sim mem(C) snapshot as bytes, comparable with rt memory_image().
std::vector<std::uint8_t> snapshot_bytes(const sim::Memory& memory) {
  const sim::MemorySnapshot snap = memory.snapshot();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(snap.words.size());
  for (const std::uint64_t word : snap.words) {
    EXPECT_LE(word, 0xffull) << "binary-register snapshot word out of range";
    bytes.push_back(static_cast<std::uint8_t>(word));
  }
  return bytes;
}

/// Drive identical random SWSR sequences (sequentially — writer ops and
/// reader ops never overlap) through the sim and rt instantiations of one
/// register algorithm; compare responses and memory after every operation.
template <typename SimImpl, typename RtImpl>
void register_parity(std::uint32_t num_values, std::uint32_t initial,
                     std::uint64_t seed) {
  testing::RegisterSystem<SimImpl> sim_sys(num_values, initial);
  RtImpl rt_reg(num_values, initial);

  EXPECT_EQ(snapshot_bytes(sim_sys.memory), rt_reg.memory_image())
      << "initial memory diverges";

  util::Xoshiro256 rng(seed);
  for (int step = 0; step < 200; ++step) {
    if (rng.chance(1, 3)) {
      const auto sim_got = sim::run_solo(sim_sys.sched, testing::kReaderPid,
                                         sim_sys.impl.read(testing::kReaderPid));
      if constexpr (requires { rt_reg.read(std::uint64_t{1}); }) {
        const auto rt_got = rt_reg.read(/*max_attempts=*/1);
        ASSERT_TRUE(rt_got.has_value()) << "solo TryRead cannot fail";
        EXPECT_EQ(sim_got, *rt_got) << "read response diverges at " << step;
      } else {
        const auto rt_got = rt_reg.read();
        EXPECT_EQ(sim_got, rt_got) << "read response diverges at " << step;
      }
    } else {
      const auto value =
          static_cast<std::uint32_t>(rng.next_in(1, num_values));
      (void)sim::run_solo(sim_sys.sched, testing::kWriterPid,
                          sim_sys.impl.write(testing::kWriterPid, value));
      rt_reg.write(value);
    }
    ASSERT_EQ(snapshot_bytes(sim_sys.memory), rt_reg.memory_image())
        << "memory diverges after op " << step;
  }
}

TEST(EnvParity, Vidyasankar) {
  register_parity<core::VidyasankarRegister, rt::RtVidyasankarRegister>(6, 1,
                                                                        11);
  register_parity<core::VidyasankarRegister, rt::RtVidyasankarRegister>(3, 2,
                                                                        12);
}

TEST(EnvParity, LockFreeHiRegister) {
  register_parity<core::LockFreeHiRegister, rt::RtLockFreeHiRegister>(6, 1, 21);
  register_parity<core::LockFreeHiRegister, rt::RtLockFreeHiRegister>(4, 3, 22);
}

TEST(EnvParity, WaitFreeHiRegister) {
  register_parity<core::WaitFreeHiRegister, rt::RtWaitFreeHiRegister>(6, 1, 31);
  register_parity<core::WaitFreeHiRegister, rt::RtWaitFreeHiRegister>(5, 5, 32);
}

TEST(EnvParity, VidyasankarLeakReproducesIdentically) {
  // The signature non-HI behaviour must be bit-identical across backends:
  // Write(2); Write(1) leaves [1,1,0...] in both environments.
  testing::RegisterSystem<core::VidyasankarRegister> sim_sys(3, 1);
  rt::RtVidyasankarRegister rt_reg(3, 1);
  for (const std::uint32_t v : {2u, 1u}) {
    (void)sim::run_solo(sim_sys.sched, testing::kWriterPid,
                        sim_sys.impl.write(testing::kWriterPid, v));
    rt_reg.write(v);
  }
  EXPECT_EQ(snapshot_bytes(sim_sys.memory),
            (std::vector<std::uint8_t>{1, 1, 0}));
  EXPECT_EQ(rt_reg.memory_image(), (std::vector<std::uint8_t>{1, 1, 0}));
}

// ---- Packed-layout parity: the packed sim instantiation vs the packed rt
// instantiation (the rt default), K=70 so scans and clearing passes cross
// the two-word boundary. Packed sim cells snapshot as 64-bin words rather
// than one byte per bin, so the comparison goes through the
// algorithm-level bin image (encode_memory) on both sides — which is also
// what pins that the packed layout agrees with the padded layout on the
// abstract bins (rt memory_image() is bins in both layouts). ----

template <typename SimAlg, typename RtImpl>
void packed_register_parity(std::uint32_t num_values, std::uint32_t initial,
                            std::uint64_t seed) {
  sim::Memory memory;
  sim::Scheduler sched(2);
  SimAlg sim_alg(memory, num_values, initial);
  RtImpl rt_reg(num_values, initial);

  const auto sim_bins = [&sim_alg] {
    std::vector<std::uint8_t> image;
    sim_alg.encode_memory(image);
    return image;
  };
  EXPECT_EQ(sim_bins(), rt_reg.memory_image()) << "initial memory diverges";

  util::Xoshiro256 rng(seed);
  for (int step = 0; step < 200; ++step) {
    if (rng.chance(1, 3)) {
      const auto sim_got =
          sim::run_solo(sched, testing::kReaderPid, sim_alg.read());
      if constexpr (requires { rt_reg.read(std::uint64_t{1}); }) {
        const auto rt_got = rt_reg.read(/*max_attempts=*/1);
        ASSERT_TRUE(rt_got.has_value()) << "solo TryRead cannot fail";
        EXPECT_EQ(sim_got, *rt_got) << "read response diverges at " << step;
      } else {
        const auto rt_got = rt_reg.read();
        EXPECT_EQ(sim_got, rt_got) << "read response diverges at " << step;
      }
    } else {
      const auto value =
          static_cast<std::uint32_t>(rng.next_in(1, num_values));
      (void)sim::run_solo(sched, testing::kWriterPid, sim_alg.write(value));
      rt_reg.write(value);
    }
    ASSERT_EQ(sim_bins(), rt_reg.memory_image())
        << "memory diverges after op " << step;
  }
}

TEST(EnvParity, PackedVidyasankar) {
  packed_register_parity<algo::VidyasankarAlgPacked<env::SimEnv>,
                         rt::RtVidyasankarRegister>(70, 1, 13);
}

TEST(EnvParity, PackedLockFreeHiRegister) {
  packed_register_parity<algo::LockFreeHiAlgPacked<env::SimEnv>,
                         rt::RtLockFreeHiRegister>(70, 65, 23);
}

TEST(EnvParity, PackedWaitFreeHiRegister) {
  packed_register_parity<algo::WaitFreeHiAlgPacked<env::SimEnv>,
                         rt::RtWaitFreeHiRegister>(70, 1, 33);
}

// ---- Wait-free-sim combinator parity: beyond the inner bins, the
// combinator's own shared words (operation records, help-queue ring,
// head/tail) must evolve identically across backends — encode_memory
// appends each as 8 LE bytes on both sides. The fast-path row keeps the
// residue at zero; the fast_limit=0 row forces EVERY read through
// announce/enqueue/self-help, marching records, slot rounds and the
// head/tail counters through ~200 ops of slow-path evolution. ----

template <typename SimBins, typename RtImpl>
void waitfree_sim_parity(std::uint32_t num_values, std::uint32_t initial,
                         std::uint32_t fast_limit, std::uint64_t seed) {
  sim::Memory memory;
  sim::Scheduler sched(2);
  algo::WaitFreeSimHiAlg<env::SimEnv, SimBins> sim_alg(
      memory, num_values, initial, /*num_processes=*/2, fast_limit);
  RtImpl rt_reg(num_values, initial, /*num_processes=*/2, fast_limit);

  const auto sim_image = [&sim_alg] {
    std::vector<std::uint8_t> image;
    sim_alg.encode_memory(image);
    return image;
  };
  EXPECT_EQ(sim_image(), rt_reg.memory_image()) << "initial memory diverges";

  util::Xoshiro256 rng(seed);
  std::uint64_t reads = 0;
  for (int step = 0; step < 200; ++step) {
    if (rng.chance(1, 3)) {
      const auto sim_got = sim::run_solo(sched, testing::kReaderPid,
                                         sim_alg.read(testing::kReaderPid));
      const auto rt_got = rt_reg.read(testing::kReaderPid);
      EXPECT_EQ(sim_got, rt_got) << "read response diverges at " << step;
      ++reads;
    } else {
      const auto value =
          static_cast<std::uint32_t>(rng.next_in(1, num_values));
      (void)sim::run_solo(sched, testing::kWriterPid,
                          sim_alg.write(testing::kWriterPid, value));
      rt_reg.write(value, testing::kWriterPid);
    }
    ASSERT_EQ(sim_image(), rt_reg.memory_image())
        << "memory diverges after op " << step;
  }
  EXPECT_EQ(sim_alg.slow_path_entries(), rt_reg.slow_path_entries());
  EXPECT_EQ(sim_alg.total_ops(), rt_reg.total_ops());
  if (fast_limit == 0) {
    // No fast attempt is allowed, so every read takes the slow path on
    // hardware too; writes run direct and never enter it.
    EXPECT_EQ(rt_reg.slow_path_entries(), reads);
  }
}

TEST(EnvParity, WaitFreeSimHiRegister) {
  waitfree_sim_parity<env::PackedBins<env::SimEnv>,
                      rt::RtWaitFreeSimHiRegister>(70, 1, /*fast_limit=*/1, 41);
}

TEST(EnvParity, WaitFreeSimHiRegisterForcedSlowPath) {
  waitfree_sim_parity<env::PaddedBins<env::SimEnv>,
                      rt::RtWaitFreeSimHiRegisterPadded>(6, 2, /*fast_limit=*/0,
                                                         42);
}

TEST(EnvParity, PackedMaxRegister) {
  const std::uint32_t k = 70;
  sim::Memory memory;
  sim::Scheduler sched(2);
  algo::HiMaxRegisterAlgPacked<env::SimEnv> sim_reg(
      memory, k, 1, testing::kWriterPid, testing::kReaderPid);
  rt::RtMaxRegister rt_reg(k, 1, testing::kWriterPid, testing::kReaderPid);

  const auto sim_bins = [&sim_reg] {
    std::vector<std::uint8_t> image;
    sim_reg.encode_memory(image);
    return image;
  };
  util::Xoshiro256 rng(63);
  for (int step = 0; step < 200; ++step) {
    if (rng.chance(1, 3)) {
      const auto sim_got =
          sim::run_solo(sched, testing::kReaderPid,
                        sim_reg.read_max(testing::kReaderPid));
      EXPECT_EQ(sim_got, rt_reg.read_max()) << "read diverges at " << step;
    } else {
      const auto value = static_cast<std::uint32_t>(rng.next_in(1, k));
      (void)sim::run_solo(sched, testing::kWriterPid,
                          sim_reg.write_max(testing::kWriterPid, value));
      rt_reg.write_max(value);
    }
    ASSERT_EQ(sim_bins(), rt_reg.memory_image())
        << "memory diverges after op " << step;
  }
}

TEST(EnvParity, PackedHiSet) {
  const std::uint32_t domain = 64;
  sim::Memory memory;
  sim::Scheduler sched(2);
  algo::HiSetAlgPacked<env::SimEnv> sim_set(memory, domain,
                                            0x5555555555555555ull);
  rt::RtHiSet rt_set(domain, 0x5555555555555555ull);

  const auto sim_bins = [&sim_set] {
    std::vector<std::uint8_t> image;
    sim_set.encode_memory(image);
    return image;
  };
  EXPECT_EQ(sim_bins(), rt_set.memory_image());

  util::Xoshiro256 rng(73);
  for (int step = 0; step < 300; ++step) {
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
    bool sim_got = false;
    bool rt_got = false;
    switch (rng.next_below(3)) {
      case 0:
        sim_got = sim::run_solo(sched, 0, sim_set.insert(v));
        rt_got = rt_set.insert(v);
        break;
      case 1:
        sim_got = sim::run_solo(sched, 0, sim_set.remove(v));
        rt_got = rt_set.remove(v);
        break;
      default:
        sim_got = sim::run_solo(sched, 0, sim_set.lookup(v));
        rt_got = rt_set.lookup(v);
        break;
    }
    EXPECT_EQ(sim_got, rt_got) << "response diverges at " << step;
    ASSERT_EQ(sim_bins(), rt_set.memory_image())
        << "memory diverges after op " << step;
  }
}

TEST(EnvParity, ShardedHiSet) {
  // The sharded multi-word store: domain 150 over 2 striped shards — 75
  // bins = 2 packed words per shard, so parity covers the word-boundary
  // arithmetic AND the shard scatter of a non-trivial initial bitmap
  // (150 live bits: the tail word's high 42 bits must be masked off
  // identically on both backends).
  const std::uint32_t domain = 150;
  const std::vector<std::uint64_t> init = {0x5555555555555555ull,
                                           0x0123456789abcdefull,
                                           0xffffffffffffffffull};
  sim::Memory memory;
  sim::Scheduler sched(2);
  algo::ShardedHiSetPacked<env::SimEnv> sim_set(
      memory, domain, 2, algo::ShardPlacement::kStriped,
      std::span<const std::uint64_t>(init));
  rt::RtShardedHiSet rt_set(domain, 2, algo::ShardPlacement::kStriped,
                            std::span<const std::uint64_t>(init));

  const auto sim_bins = [&sim_set] {
    std::vector<std::uint8_t> image;
    sim_set.encode_memory(image);
    return image;
  };
  EXPECT_EQ(sim_bins(), rt_set.memory_image());

  util::Xoshiro256 rng(91);
  for (int step = 0; step < 300; ++step) {
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
    bool sim_got = false;
    bool rt_got = false;
    switch (rng.next_below(3)) {
      case 0:
        sim_got = sim::run_solo(sched, 0, sim_set.insert(v));
        rt_got = rt_set.insert(v);
        break;
      case 1:
        sim_got = sim::run_solo(sched, 0, sim_set.remove(v));
        rt_got = rt_set.remove(v);
        break;
      default:
        sim_got = sim::run_solo(sched, 0, sim_set.lookup(v));
        rt_got = rt_set.lookup(v);
        break;
    }
    EXPECT_EQ(sim_got, rt_got) << "response diverges at " << step;
    ASSERT_EQ(sim_bins(), rt_set.memory_image())
        << "memory diverges after op " << step;
    if (step % 50 == 49) {
      // Full-membership audits agree too (same per-shard scan order).
      std::vector<std::uint32_t> sim_members;
      std::vector<std::uint32_t> rt_members;
      const auto sim_count =
          sim::run_solo(sched, 0, sim_set.snapshot_members(sim_members));
      const auto rt_count = rt_set.snapshot_members(rt_members);
      EXPECT_EQ(sim_count, rt_count);
      EXPECT_EQ(sim_members, rt_members)
          << "audit diverges after op " << step;
    }
  }
}

/// The keys a seed bitmap names inside 1..domain, ascending, read one key
/// at a time — the definition the constructor's bulk scatter must match.
std::vector<std::uint32_t> seeded_keys(std::span<const std::uint64_t> seed,
                                       std::uint32_t domain) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 1; k <= domain; ++k) {
    if (util::bin_test(seed, k)) keys.push_back(k);
  }
  return keys;
}

TEST(EnvParity, ShardedSeedIsInsertsOfSeededKeys) {
  // A store seeded with a bitmap must be, byte for byte, an empty store
  // after inserting each seeded key, and its audit must name exactly those
  // keys. The seeds carry bits past the domain (dropped) or fall short of
  // the domain's word count (missing words read as 0).
  util::Xoshiro256 rng(15);
  const auto random_words = [&rng](std::uint32_t count) {
    std::vector<std::uint64_t> words(count);
    for (std::uint64_t& w : words) w = rng.next();
    return words;
  };
  for (const auto placement :
       {algo::ShardPlacement::kBlocked, algo::ShardPlacement::kStriped}) {
    for (const std::uint32_t shards : {1u, 3u, 16u, 100u}) {
      for (const std::uint32_t domain : {150u, 1000u, 4097u}) {
        const std::uint32_t words = util::bin_words(domain);
        for (const auto& seed :
             {random_words(words + 2), random_words(words / 2)}) {
          SCOPED_TRACE(::testing::Message()
                       << "placement " << static_cast<int>(placement)
                       << ", shards " << shards << ", domain " << domain
                       << ", seed words " << seed.size());
          const std::vector<std::uint32_t> keys = seeded_keys(seed, domain);

          sim::Memory seeded_memory;
          sim::Memory built_memory;
          sim::Scheduler sched(1);
          algo::ShardedHiSetPacked<env::SimEnv> sim_seeded(
              seeded_memory, domain, shards, placement,
              std::span<const std::uint64_t>(seed));
          algo::ShardedHiSetPacked<env::SimEnv> sim_built(built_memory,
                                                          domain, shards,
                                                          placement);
          for (const std::uint32_t k : keys) {
            (void)sim::run_solo(sched, 0, sim_built.insert(k));
          }
          std::vector<std::uint8_t> seeded_image;
          std::vector<std::uint8_t> built_image;
          sim_seeded.encode_memory(seeded_image);
          sim_built.encode_memory(built_image);
          EXPECT_EQ(seeded_image, built_image) << "sim image";
          std::vector<std::uint32_t> sim_members;
          (void)sim::run_solo(sched, 0,
                              sim_seeded.snapshot_members(sim_members));
          std::sort(sim_members.begin(), sim_members.end());
          EXPECT_EQ(sim_members, keys) << "sim audit";

          rt::RtShardedHiSet rt_seeded(domain, shards, placement,
                                       std::span<const std::uint64_t>(seed));
          rt::RtShardedHiSet rt_built(domain, shards, placement);
          for (const std::uint32_t k : keys) (void)rt_built.insert(k);
          EXPECT_EQ(rt_seeded.memory_image(), rt_built.memory_image())
              << "rt image";
          std::vector<std::uint32_t> rt_members;
          (void)rt_seeded.snapshot_members(rt_members);
          std::sort(rt_members.begin(), rt_members.end());
          EXPECT_EQ(rt_members, keys) << "rt audit";
        }
      }
    }
  }
}

// ---- R-LLSC (Algorithm 6): value ↦ lo (hi unused), ctx ↦ ctx ----

// Cell operations are SubTasks (they must run inside a scheduled process);
// these adapters lift each one into a schedulable OpTask for run_solo.
sim::OpTask<std::uint64_t> op_ll(core::CasRllsc& cell, int pid) {
  const core::RllscValue v = co_await cell.ll(pid);
  co_return v.lo;
}
sim::OpTask<bool> op_vl(core::CasRllsc& cell, int pid) {
  const bool linked = co_await cell.vl(pid);
  co_return linked;
}
sim::OpTask<bool> op_sc(core::CasRllsc& cell, int pid, std::uint64_t arg) {
  const bool done = co_await cell.sc(pid, core::RllscValue{arg, 0});
  co_return done;
}
sim::OpTask<bool> op_rl(core::CasRllsc& cell, int pid) {
  const bool done = co_await cell.rl(pid);
  co_return done;
}
sim::OpTask<std::uint64_t> op_load(core::CasRllsc& cell) {
  const core::RllscValue v = co_await cell.load();
  co_return v.lo;
}
sim::OpTask<bool> op_store(core::CasRllsc& cell, std::uint64_t arg) {
  const bool done = co_await cell.store(core::RllscValue{arg, 0});
  co_return done;
}

TEST(EnvParity, CasRllsc) {
  sim::Memory memory;
  sim::Scheduler sched(4);
  core::CasRllsc sim_cell(memory, "X", core::RllscValue{7, 0});
  rt::RtRllsc rt_cell(7);

  const auto expect_same_state = [&](int at) {
    const sim::MemorySnapshot snap = memory.snapshot();
    ASSERT_EQ(snap.words.size(), 3u);
    const rt::Word128 rt_word = rt_cell.snapshot();
    EXPECT_EQ(snap.words[0], rt_word.value) << "value diverges at " << at;
    EXPECT_EQ(snap.words[1], 0u) << "hi word unused in this embedding";
    EXPECT_EQ(snap.words[2], rt_word.ctx) << "context diverges at " << at;
  };

  util::Xoshiro256 rng(41);
  for (int step = 0; step < 300; ++step) {
    const int pid = static_cast<int>(rng.next_below(4));
    const auto arg = rng.next_below(100);
    switch (rng.next_below(6)) {
      case 0:
        EXPECT_EQ(sim::run_solo(sched, pid, op_ll(sim_cell, pid)),
                  rt_cell.ll(pid));
        break;
      case 1:
        EXPECT_EQ(sim::run_solo(sched, pid, op_vl(sim_cell, pid)),
                  rt_cell.vl(pid));
        break;
      case 2:
        EXPECT_EQ(sim::run_solo(sched, pid, op_sc(sim_cell, pid, arg)),
                  rt_cell.sc(pid, arg));
        break;
      case 3:
        EXPECT_EQ(sim::run_solo(sched, pid, op_rl(sim_cell, pid)),
                  rt_cell.rl(pid));
        break;
      case 4:
        EXPECT_EQ(sim::run_solo(sched, pid, op_load(sim_cell)),
                  rt_cell.load());
        break;
      default:
        EXPECT_EQ(sim::run_solo(sched, pid, op_store(sim_cell, arg)),
                  rt_cell.store(arg));
        break;
    }
    expect_same_state(step);
  }
}

// ---- §5.1 max register: monotone writes over the same A[1..K] binary
// array in both environments, so parity is word-for-word. Absorbed writes
// must leave both memories untouched. ----

TEST(EnvParity, MaxRegister) {
  for (const std::uint64_t seed : {61u, 62u}) {
    const std::uint32_t k = 8;
    const spec::MaxRegisterSpec spec(k, 1);
    sim::Memory memory;
    sim::Scheduler sched(2);
    core::HiMaxRegister sim_reg(memory, spec, testing::kWriterPid,
                                testing::kReaderPid);
    rt::RtMaxRegister rt_reg(k, 1, testing::kWriterPid, testing::kReaderPid);

    EXPECT_EQ(snapshot_bytes(memory), rt_reg.memory_image());

    util::Xoshiro256 rng(seed);
    for (int step = 0; step < 200; ++step) {
      if (rng.chance(1, 3)) {
        const auto sim_got =
            sim::run_solo(sched, testing::kReaderPid,
                          sim_reg.read_max(testing::kReaderPid));
        EXPECT_EQ(sim_got, rt_reg.read_max()) << "read diverges at " << step;
      } else {
        const auto value = static_cast<std::uint32_t>(rng.next_in(1, k));
        (void)sim::run_solo(sched, testing::kWriterPid,
                            sim_reg.write_max(testing::kWriterPid, value));
        rt_reg.write_max(value);
      }
      ASSERT_EQ(snapshot_bytes(memory), rt_reg.memory_image())
          << "memory diverges after op " << step;
    }
  }
}

// ---- §5.1 perfect-HI set: every operation is one primitive on the same
// S[1..t] binary array, so parity is word-for-word after every op. ----

TEST(EnvParity, HiSet) {
  for (const std::uint64_t seed : {71u, 72u}) {
    const std::uint32_t domain = 10;
    const spec::SetSpec spec(domain);
    sim::Memory memory;
    sim::Scheduler sched(2);
    core::HiSet sim_set(memory, spec);
    rt::RtHiSet rt_set(domain, spec.initial_state());

    EXPECT_EQ(snapshot_bytes(memory), rt_set.memory_image());

    util::Xoshiro256 rng(seed);
    for (int step = 0; step < 300; ++step) {
      const auto v = static_cast<std::uint32_t>(rng.next_in(1, domain));
      bool sim_got = false;
      bool rt_got = false;
      switch (rng.next_below(3)) {
        case 0:
          sim_got = sim::run_solo(sched, 0, sim_set.insert(v));
          rt_got = rt_set.insert(v);
          break;
        case 1:
          sim_got = sim::run_solo(sched, 0, sim_set.remove(v));
          rt_got = rt_set.remove(v);
          break;
        default:
          sim_got = sim::run_solo(sched, 0, sim_set.lookup(v));
          rt_got = rt_set.lookup(v);
          break;
      }
      EXPECT_EQ(sim_got, rt_got) << "response diverges at " << step;
      ASSERT_EQ(snapshot_bytes(memory), rt_set.memory_image())
          << "memory diverges after op " << step;
    }
  }
}

// ---- Leaky universal baseline: one single-source body, and the head codec
// packs ⟨state, version, record⟩ identically on both backends, so parity
// covers responses AND every decoded leak field (version, announce and
// result tables) after every operation of an identical sequence. ----

TEST(EnvParity, LeakyUniversalCounter) {
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 4;
  sim::Memory memory;
  sim::Scheduler sched(n);
  algo::LeakyUniversalAlg<env::SimEnv, spec::CounterSpec> sim_obj(memory,
                                                                  spec, n);
  rt::RtLeakyUniversal<spec::CounterSpec> rt_obj(spec, n);

  util::Xoshiro256 rng(81);
  for (int step = 0; step < 300; ++step) {
    const int pid = static_cast<int>(rng.next_below(n));
    spec::CounterSpec::Op op;
    switch (rng.next_below(4)) {
      case 0: op = spec::CounterSpec::read(); break;
      case 1: op = spec::CounterSpec::dec(); break;
      default: op = spec::CounterSpec::inc(); break;
    }
    const auto sim_got = sim::run_solo(sched, pid, sim_obj.apply(pid, op));
    const auto rt_got = rt_obj.apply(pid, op);
    EXPECT_EQ(sim_got, rt_got) << "response diverges at " << step;
    EXPECT_EQ(sim_obj.head_state_encoded(), rt_obj.head_state_encoded());
    EXPECT_EQ(sim_obj.version(), rt_obj.version()) << "version diverges";
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(sim_obj.peek_announce(i), rt_obj.peek_announce(i))
          << "announce[" << i << "] diverges at " << step;
      EXPECT_EQ(sim_obj.peek_result(i), rt_obj.peek_result(i))
          << "result[" << i << "] diverges at " << step;
    }
  }
  // The leak itself must reproduce identically: both versions count every
  // state-changing operation ever applied.
  EXPECT_GT(sim_obj.version(), 0u);
}

// ---- Universal construction (Algorithm 5 over 6): every backend packs the
// head/announce tuples through the ONE Word64HeadCodec (a sim value is the
// codec word in lo with hi ≡ 0), so parity is word-exact: after every
// operation of an identical sequence, the sim memory_words() and the rt
// memory_image() are the same ⟨value, ctx⟩ vector. ----

/// Word-for-word comparison of the sim and rt universal memory images.
template <typename SimObj, typename RtObj>
void expect_universal_words_equal(const SimObj& sim_obj, const RtObj& rt_obj,
                                  int at) {
  const auto sim_words = sim_obj.memory_words();
  const auto rt_words = rt_obj.memory_image();
  ASSERT_EQ(sim_words.size(), rt_words.size());
  for (std::size_t i = 0; i < sim_words.size(); ++i) {
    EXPECT_EQ(sim_words[i].value.lo, rt_words[i].value)
        << "word " << i << " value diverges at " << at;
    EXPECT_EQ(sim_words[i].value.hi, 0u)
        << "sim hi half must stay zero (Word64HeadCodec contract)";
    EXPECT_EQ(sim_words[i].ctx, rt_words[i].ctx)
        << "word " << i << " context diverges at " << at;
  }
}

/// Shared body for the plain and combining universal parity rows.
void universal_parity(bool combine, std::uint64_t seed) {
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 4;
  sim::Memory memory;
  sim::Scheduler sched(n);
  core::Universal<spec::CounterSpec, core::CasRllsc> sim_obj(
      memory, spec, n, /*clear_contexts=*/true, combine);
  rt::RtUniversal<spec::CounterSpec> rt_obj(spec, n, /*clear_contexts=*/true,
                                            combine);

  util::Xoshiro256 rng(seed);
  for (int step = 0; step < 300; ++step) {
    const int pid = static_cast<int>(rng.next_below(n));
    spec::CounterSpec::Op op;
    switch (rng.next_below(4)) {
      case 0: op = spec::CounterSpec::read(); break;
      case 1: op = spec::CounterSpec::dec(); break;
      default: op = spec::CounterSpec::inc(); break;
    }
    const auto sim_got = sim::run_solo(sched, pid, sim_obj.apply(pid, op));
    const auto rt_got = rt_obj.apply(pid, op);
    EXPECT_EQ(sim_got, rt_got) << "response diverges at " << step;
    EXPECT_EQ(sim_obj.head_state_encoded(), rt_obj.head_state_encoded());
    EXPECT_FALSE(sim_obj.head_has_response());
    EXPECT_FALSE(rt_obj.head_has_response());
    expect_universal_words_equal(sim_obj, rt_obj, step);
  }
  // Batch accounting marches in lockstep too (sequential solo updates are
  // batches of one in both modes, on both backends).
  EXPECT_EQ(sim_obj.batches_installed(), rt_obj.batches_installed());
  EXPECT_EQ(sim_obj.ops_combined(), rt_obj.ops_combined());
  EXPECT_EQ(sim_obj.ops_combined(), sim_obj.batches_installed());
  EXPECT_GT(sim_obj.batches_installed(), 0u);
}

TEST(EnvParity, UniversalCounter) { universal_parity(/*combine=*/false, 51); }

TEST(EnvParity, UniversalCombineCounter) {
  universal_parity(/*combine=*/true, 52);
}

TEST(EnvParity, UniversalCombineForcedBatchScript) {
  // Deterministic batch on BOTH backends: park announcements for p0 and p1
  // (the announce_only test hook = line 4 then stall), then run p2's
  // increment to completion. The winner sweep must apply all three ops in
  // one install on each backend, leave the identical memory image, and pin
  // the helped responses in the announce cells — whose expected words come
  // straight from Word64HeadCodec (10 and 11: the batch folds ascending
  // pid from initial state 10).
  const spec::CounterSpec spec(1u << 20, 10);
  const int n = 3;
  sim::Memory memory;
  sim::Scheduler sched(n);
  core::Universal<spec::CounterSpec, core::CasRllsc> sim_obj(
      memory, spec, n, /*clear_contexts=*/true, /*combine=*/true);
  rt::RtUniversal<spec::CounterSpec> rt_obj(spec, n, /*clear_contexts=*/true,
                                            /*combine=*/true);

  for (int pid : {0, 1}) {
    (void)sim::run_solo(sched, pid,
                        sim_obj.announce_only(pid, spec::CounterSpec::inc()));
    (void)rt_obj.announce_only(pid, spec::CounterSpec::inc());
  }
  expect_universal_words_equal(sim_obj, rt_obj, -1);

  const auto sim_resp =
      sim::run_solo(sched, 2, sim_obj.apply(2, spec::CounterSpec::inc()));
  const auto rt_resp = rt_obj.apply(2, spec::CounterSpec::inc());
  EXPECT_EQ(sim_resp, 12u);
  EXPECT_EQ(rt_resp, 12u);

  EXPECT_EQ(sim_obj.batches_installed(), 1u);
  EXPECT_EQ(sim_obj.ops_combined(), 3u);
  EXPECT_EQ(rt_obj.batches_installed(), 1u);
  EXPECT_EQ(rt_obj.ops_combined(), 3u);
  EXPECT_EQ(sim_obj.head_state_encoded(), 13u);
  EXPECT_EQ(rt_obj.head_state_encoded(), 13u);

  // The helped responses sit in the parked cells, bit-exactly as the codec
  // specifies, with clean contexts; p2's own cell is back to ⊥.
  const auto rt_words = rt_obj.memory_image();
  ASSERT_EQ(rt_words.size(), 4u);  // head + 3 announce cells
  EXPECT_EQ(rt_words[1].value, algo::Word64HeadCodec::announce_resp(10));
  EXPECT_EQ(rt_words[2].value, algo::Word64HeadCodec::announce_resp(11));
  EXPECT_EQ(rt_words[3].value, algo::Word64HeadCodec::bottom());
  for (const auto& word : rt_words) EXPECT_EQ(word.ctx, 0u);
  expect_universal_words_equal(sim_obj, rt_obj, -2);
}

}  // namespace
}  // namespace hi
