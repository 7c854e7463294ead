// The sharded perfect-HI store (algo/sharded_set.h) on real hardware with a
// synchronous call surface: every membership operation is one seq_cst
// atomic access to one word of one shard. Each call consumes the owning
// shard's frameless ready task (HiSetAlg lifts every membership operation
// with Env::lift), so insert/remove/lookup open no coroutine frame and
// never touch the heap; the audit is a frameless Env::lift_each over the
// shards' word-load loops, so it opens no frame either
// (tests/test_rt_alloc.cpp). Other callers may name
// algo::ShardedHiSetPacked<env::RtEnv> and call .get().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/sharded_set.h"
#include "env/rt_env.h"

namespace hi::rt {

// perfbench/src/sharded_store.h pins this name and its synchronous calls.
class RtShardedHiSet {
 public:
  /// `initial_words`: optional GLOBAL membership bitmap (bit k-1 = key k),
  /// scattered to the shards through the placement map.
  RtShardedHiSet(std::uint32_t domain, std::uint32_t shard_count,
                 algo::ShardPlacement placement =
                     algo::ShardPlacement::kBlocked,
                 std::span<const std::uint64_t> initial_words = {})
      : alg_(env::RtEnv::Ctx{}, domain, shard_count, placement,
             initial_words) {}

  bool insert(std::uint32_t key) { return alg_.insert(key).get(); }
  bool remove(std::uint32_t key) { return alg_.remove(key).get(); }
  bool lookup(std::uint32_t key) { return alg_.lookup(key).get(); }

  /// Full-membership audit via per-shard word scans; appends global keys to
  /// `out` (per-shard ascending — globally sorted under kBlocked). Returns
  /// the number of members this call appended. Reserve `out` to keep the
  /// audit allocation-free.
  std::uint32_t snapshot_members(std::vector<std::uint32_t>& out) {
    return alg_.snapshot_members(out).get();
  }

  /// Concatenated shard bitmaps — the simulator's mem(C) layout order.
  /// Reserved up front: the benchmark's oracle images millions of keys.
  std::vector<std::uint8_t> memory_image() const {
    std::vector<std::uint8_t> image;
    image.reserve(alg_.domain());
    alg_.encode_memory(image);
    return image;
  }

  std::uint32_t domain() const { return alg_.domain(); }
  std::uint32_t shard_count() const { return alg_.shard_count(); }
  std::uint32_t shard_of(std::uint32_t key) const { return alg_.shard_of(key); }
  /// Bytes of shared storage (perfbench's mem_bytes).
  std::size_t memory_bytes() const { return alg_.memory_bytes(); }

 private:
  algo::ShardedHiSetPacked<env::RtEnv> alg_;
};

}  // namespace hi::rt
