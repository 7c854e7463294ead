// Sharded perfect-HI set: a domain of millions of keys striped over N
// independent multi-word §5.1 sets (algo/hi_set.h) behind one linearizable
// facade. Written ONCE over an execution environment Env (src/env/env.h)
// and instantiated over every Env (simulator, hardware, replay, fuzz).
//
// Why the composition is linearizable: the shard map is a PURE FUNCTION of
// the key — shard_of(k) and local_of(k) depend only on (k, domain, shard
// count, placement), all fixed at construction — so every operation on key
// k touches exactly one shard, and distinct keys mapped to distinct shards
// commute at the abstract level. Each facade operation IS the underlying
// shard operation (the facade forwards the shard's Op task without
// adding a step), so it linearizes at that operation's single primitive
// step; any interleaving of facade operations linearizes by the total order
// of those per-shard primitive steps.
//
// Why the composition stays perfectly HI (hence state-quiescent HI): the
// abstract state of the sharded set is the membership set M ⊆ {1..domain}.
// Each shard s's abstract state is the restriction of M to the keys mapped
// to s — a pure function of M, because the shard map is a pure function of
// the key. Each shard is the §5.1 set, whose memory is EXACTLY its
// membership bitmap after every primitive (perfect HI, Definition 5). The
// composed memory is the concatenation of the shard bitmaps in shard order
// — a pure function of M — so two operation sequences reaching the same
// abstract state leave byte-identical memory at every configuration, not
// just quiescent ones. No canonicalization or helping is needed: the
// composition inherits perfect HI because it adds NO shared state of its
// own (no routing tables, no counters — the shard map lives in code, not
// memory). Proposition 6 also transfers: adjacent abstract states differ
// in one key, hence in one bin of one shard, i.e. one base object.
//
// Caveat (Theorem 17, per shard): a shard spanning ≤ 64 bins is one packed
// word, so a TryRead-style scan snapshots the whole shard in one load and
// the reader-starvation adversary of Thm 17 cannot engage; a shard spanning
// MULTIPLE words (the whole point of the multi-word lift) re-exposes the
// padded-era granularity between words — scans observe words at different
// steps. Membership ops are immune (single primitive), but snapshot_members
// is a per-word-linearized audit, not an atomic snapshot (see
// docs/PAPER_MAP.md, deviation note).
//
// Placement knob: the element→word placement turns the
// false-sharing-vs-word-contention tradeoff measured for PR 5's packed
// layout (docs/PERF.md) into a tunable:
//
//   kBlocked — shard s owns a contiguous key range; neighbouring keys share
//              a shard AND a word, so workloads hammering adjacent keys
//              serialize on one fetch_or/fetch_and word but audits stream
//              contiguous lines (and emit globally sorted members);
//   kStriped — key k lives in shard (k-1) % N; neighbouring keys land in
//              DIFFERENT shards (different words, different cache lines),
//              spreading hot adjacent keys across the whole store at the
//              cost of audit order being interleaved across shards.
//
// Both maps are pure functions of the key, so the HI argument above is
// placement-independent; only the memory LAYOUT (which canonical image
// represents M) changes, exactly as padded-vs-packed changed it.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algo/hi_set.h"
#include "env/env.h"
#include "spec/set_spec.h"
#include "util/bits.h"
#include "util/padded.h"

namespace hi::algo {

/// Element→shard/word placement policy (see header comment).
enum class ShardPlacement : std::uint8_t {
  kBlocked,  // contiguous key ranges: neighbours share words
  kStriped,  // round-robin: neighbours spread across shards
};

template <typename Env, typename Bins>
class ShardedHiSet {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;
  using Shard = HiSetAlg<Env, Bins>;

  /// `initial_words`: flat membership bitmap over the GLOBAL key space
  /// (bit k-1 = key k; bits past `domain` are ignored, missing trailing
  /// words read as 0), scattered to the per-shard bitmaps through the
  /// placement map at construction. Shard s's cells are labelled "S<s>" on
  /// the registering backends; shards are constructed in shard order, so
  /// object ids line up across backends for parity/replay.
  ///
  /// One pass, O(words + members), and no copy: every shard's bitmap is
  /// its own zeroed vector of bin_words(shard_domain(s)) words, and
  /// util::MemberSink — the audit's branch-light decoder — walks
  /// `initial_words` once, dropping each member into its shard's vector
  /// through the pure shard map. Each shard then adopts its vector as its
  /// storage (RtEnv: the words the scatter wrote ARE the shared words; the
  /// scheduler-driven backends read them into their cells). A per-shard
  /// walk over the members would pay shard_count × members map evaluations.
  /// HI_ALIGN_LOOPS pins the scatter loop's placement, as it does the
  /// audit's (docs/PERF.md "Store build cost").
  HI_ALIGN_LOOPS
  ShardedHiSet(typename Env::Ctx ctx, std::uint32_t domain,
               std::uint32_t shard_count,
               ShardPlacement placement = ShardPlacement::kBlocked,
               std::span<const std::uint64_t> initial_words = {})
      : domain_(domain),
        shard_count_(shard_count),
        placement_(placement),
        base_(domain / shard_count),
        rem_(domain % shard_count) {
    assert(domain >= 1 && shard_count >= 1 && shard_count <= domain);
    std::vector<std::vector<std::uint64_t>> init(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      init[s].resize(util::bin_words(shard_domain(s)));
    }
    util::MemberSink scatter{[this, &init](std::uint32_t key) {
      util::bin_set(init[shard_of(key)], local_of(key));
    }};
    // Words wholly inside the domain go in as they are; only the word
    // holding key `domain` is masked, and later words are ignored.
    const auto whole = static_cast<std::uint32_t>(
        std::min<std::size_t>(initial_words.size(), domain / 64));
    for (std::uint32_t w = 0; w < whole; ++w) scatter(w, initial_words[w]);
    if (whole < initial_words.size()) {
      scatter(whole, initial_words[whole] & util::bin_live_mask(domain, whole));
    }
    scatter.done();
    shards_.reserve(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      const std::string prefix = "S" + std::to_string(s);
      shards_.emplace_back(ctx, shard_domain(s), std::move(init[s]),
                           prefix.c_str());
    }
  }

  /// From the spec (domain and initial bitmap, one word: spec domains are
  /// ≤ 64). Shard count and placement stay construction parameters, so one
  /// spec checks every sharding configuration.
  ShardedHiSet(typename Env::Ctx ctx, const spec::SetSpec& spec,
               std::uint32_t shard_count,
               ShardPlacement placement = ShardPlacement::kBlocked)
      : ShardedHiSet(ctx, spec.domain(), shard_count, placement,
                     std::array<std::uint64_t, 1>{spec.initial_state()}) {}

  /// Fully symmetric: any process may invoke any operation.
  Op<bool> apply(int /*pid*/, spec::SetSpec::Op op) {
    switch (op.kind) {
      case spec::SetSpec::Kind::kInsert: return insert(op.value);
      case spec::SetSpec::Kind::kRemove: return remove(op.value);
      case spec::SetSpec::Kind::kLookup: break;
    }
    return lookup(op.value);
  }

  // Facade operations forward the owning shard's Op task WITHOUT a
  // wrapper coroutine: zero extra frames, zero extra steps — an operation
  // on the sharded store costs exactly what it costs on the single set
  // (one primitive, and on RtEnv no frame at all: HiSetAlg lifts it with
  // Env::lift), which is what keeps the rt rows allocation-free and the
  // linearization-point argument trivial.

  /// Insert(k): one blind fetch_or in shard shard_of(k).
  Op<bool> insert(std::uint32_t key) {
    assert(key >= 1 && key <= domain_);
    return shards_[shard_of(key)].insert(local_of(key));
  }
  /// Remove(k): one blind fetch_and in shard shard_of(k).
  Op<bool> remove(std::uint32_t key) {
    assert(key >= 1 && key <= domain_);
    return shards_[shard_of(key)].remove(local_of(key));
  }
  /// Lookup(k): one word load in shard shard_of(k).
  Op<bool> lookup(std::uint32_t key) {
    assert(key >= 1 && key <= domain_);
    return shards_[shard_of(key)].lookup(local_of(key));
  }

  /// Audit(): enumerate the whole store's members with one
  /// HiSetAlg::scan_members pass per shard — one word load per word, every
  /// member of a word taken from that one load. Appends GLOBAL keys to
  /// `out`, per-shard ascending: globally sorted under kBlocked,
  /// interleaved across shards under kStriped. Per-word linearized, not an
  /// atomic snapshot (Thm 17 caveat in the header comment). Returns the
  /// number of members this call appended. Caller reserves `out` capacity
  /// to keep rt paths allocation-free.
  ///
  /// An Env::lift_each over the shards: shard s's scan is built by the
  /// source when step s runs, inside the Op's own resume in the simulator
  /// (a Sub starts where it is built). On RtEnv every scan is itself a
  /// frameless lift_each, so the whole audit opens no frame.
  Op<std::uint32_t> snapshot_members(std::vector<std::uint32_t>& out) {
    return Env::template lift_each<Op<std::uint32_t>>(
        shard_count_,
        [this, &out](std::uint32_t s) {
          return shards_[s].scan_members([this, &out, s](std::uint32_t v) {
            out.push_back(global_key(s, v));
          });
        },
        env::Total<std::uint32_t>{});
  }

  // ---- the shard map: pure functions of (key, construction parameters) ----

  std::uint32_t shard_of(std::uint32_t key) const {
    const std::uint32_t k0 = key - 1;
    if (placement_ == ShardPlacement::kStriped) return k0 % shard_count_;
    // Blocked: the first rem_ shards hold base_+1 keys, the rest base_.
    const std::uint64_t big = std::uint64_t{rem_} * (base_ + 1);
    return k0 < big
               ? k0 / (base_ + 1)
               : rem_ + static_cast<std::uint32_t>((k0 - big) / base_);
  }
  std::uint32_t local_of(std::uint32_t key) const {
    const std::uint32_t k0 = key - 1;
    if (placement_ == ShardPlacement::kStriped) {
      return k0 / shard_count_ + 1;
    }
    const std::uint64_t big = std::uint64_t{rem_} * (base_ + 1);
    return (k0 < big ? k0 % (base_ + 1)
                     : static_cast<std::uint32_t>((k0 - big) % base_)) +
           1;
  }
  /// Inverse of (shard_of, local_of).
  std::uint32_t global_key(std::uint32_t shard, std::uint32_t local) const {
    if (placement_ == ShardPlacement::kStriped) {
      return (local - 1) * shard_count_ + shard + 1;
    }
    return shard * base_ + std::min(shard, rem_) + local;
  }
  /// Keys owned by shard s (≥ 1 for every shard, since shard_count ≤
  /// domain).
  std::uint32_t shard_domain(std::uint32_t s) const {
    if (placement_ == ShardPlacement::kStriped) {
      return (domain_ - 1 - s) / shard_count_ + 1;
    }
    return base_ + (s < rem_ ? 1 : 0);
  }

  /// Observer-side memory image: shard bitmaps concatenated in shard order
  /// (each shard contributes its S[1..size] bins) — the canonical
  /// representation the HI argument is about. Never a step of the model.
  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (const Shard& shard : shards_) shard.encode_memory(out);
  }

  std::uint32_t domain() const { return domain_; }
  std::uint32_t shard_count() const { return shard_count_; }
  ShardPlacement placement() const { return placement_; }
  /// Bytes of shared storage across all shards (observer-side): 8 bytes
  /// per started 64 keys of each shard, so exactly domain/8 when every
  /// shard's key count is a multiple of 64 (RtShardedFootprint.*).
  std::size_t memory_bytes() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.memory_bytes();
    return total;
  }

 private:
  std::uint32_t domain_;
  std::uint32_t shard_count_;
  ShardPlacement placement_;
  std::uint32_t base_;  // blocked placement: keys per small shard
  std::uint32_t rem_;   // blocked placement: number of base_+1-sized shards
  std::vector<Shard> shards_;
};

template <typename E>
using ShardedHiSetPacked = ShardedHiSet<E, env::PackedBins<E>>;

}  // namespace hi::algo
