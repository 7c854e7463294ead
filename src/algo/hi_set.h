// Wait-free perfect-HI set over {1..t} from t binary registers (§5.1),
// written ONCE over an execution environment Env (src/env/env.h) and
// instantiated over every Env (simulator, hardware, replay, fuzz).
//
// The set is the paper's example of an object escaping class C_t despite
// having 2^t states: its operations return only success/failure, so no
// single operation distinguishes t states, and the impossibility result
// does not apply. "There is a simple wait-free perfect HI implementation …
// we simply represent the set as an array S of length t, with S[i] = 1 if
// and only if element i is in the set, with the obvious implementation."
//
// Every operation is a single primitive, so every configuration's memory is
// exactly the membership bitmap of the current abstract state: perfect HI
// per Definition 5 (and trivially consistent with Proposition 6 — adjacent
// states differ in exactly one base object). Fully multi-writer/multi-reader
// and wait-free. Each operation spawns exactly one Op coroutine and no
// helpers; on RtEnv that single frame recycles through the per-thread frame
// arena (env/rt_env.h), so the hardware cost is one padded atomic access
// and zero steady-state heap allocations.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "env/env.h"
#include "spec/set_spec.h"

namespace hi::algo {

template <typename Env, typename Bins>
class HiSetAlg {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;

  /// `initial_words`: membership bitmap, bit (v-1) of the flat multi-word
  /// bitmap set <=> v initially in the set — hence the Bins::make_bits
  /// factory rather than the registers' one-hot initialization. The domain
  /// is unbounded (word v/64 is addressed directly; `util/bits.h` is the
  /// single source of the geometry).
  ///
  /// Layouts: with env::PaddedBins every element is its own padded cell
  /// (disjoint elements never share a cache line); with env::PackedBins the
  /// whole set is ceil(domain/64) words whose values ARE the membership
  /// bitmap — still one primitive per operation, still perfect HI (the
  /// memory representation is exactly the abstract state, per Definition 5;
  /// adjacent states differ in one base object, consistent with
  /// Proposition 6), but concurrent writers to elements sharing a word now
  /// contend on that word (the padded-vs-packed tradeoff, docs/PERF.md).
  /// `prefix` names the backing cells on the registering backends (the
  /// sharded facade labels each shard's array distinctly: "S0", "S1", …).
  HiSetAlg(typename Env::Ctx ctx, std::uint32_t domain,
           std::span<const std::uint64_t> initial_words,
           const char* prefix = "S")
      : domain_(domain),
        s_(Bins::make_bits(ctx, prefix, domain, initial_words)) {
    assert(domain >= 1);
  }

  /// From the spec: its domain and initial membership bitmap (one word:
  /// spec domains are ≤ 64).
  HiSetAlg(typename Env::Ctx ctx, const spec::SetSpec& spec)
      : HiSetAlg(ctx, spec.domain(),
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

  /// Insert(v): one blind set of S[v] (a fetch_or when packed).
  Op<bool> insert(std::uint32_t value) {
    assert(value >= 1 && value <= domain_);
    co_await Bins::set(s_, value);
    co_return true;
  }
  /// Remove(v): one blind clear of S[v] (a fetch_and when packed).
  Op<bool> remove(std::uint32_t value) {
    assert(value >= 1 && value <= domain_);
    co_await Bins::clear(s_, value);
    co_return true;
  }
  /// Lookup(v): one read of S[v] (a word load when packed).
  Op<bool> lookup(std::uint32_t value) {
    assert(value >= 1 && value <= domain_);
    const std::uint8_t bit = co_await Bins::read(s_, value);
    co_return bit == 1;
  }

  /// Every member, ascending, passed to `emit` — Bins::scan_members
  /// forwarded without an extra coroutine frame: one word load per word
  /// when packed, one bit read per bin when padded. The building block of
  /// snapshot_members and of the sharded facade's audit (algo/sharded_set.h).
  template <typename Emit>
  typename Env::template Sub<std::uint32_t> scan_members(Emit emit) {
    return Bins::scan_members(s_, std::move(emit));
  }

  /// Snapshot(): enumerate the members ascending in one pass — one word
  /// load per word (packed), one bit read per bin (padded). Each load is a
  /// single primitive step, so the scan is NOT an atomic multi-word
  /// snapshot: it observes every concurrently-quiescent member and
  /// linearizes per word (members sharing a word come from one load).
  /// Appends to `out` (caller reserves capacity to keep rt paths
  /// allocation-free); returns out.size().
  Op<std::uint32_t> snapshot_members(std::vector<std::uint32_t>& out) {
    co_await Bins::scan_members(s_,
                                [&out](std::uint32_t v) { out.push_back(v); });
    co_return static_cast<std::uint32_t>(out.size());
  }

  /// Observer-side memory image (S[1..t]); never a step of the model.
  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v = 1; v <= domain_; ++v) {
      out.push_back(Bins::peek(s_, v));
    }
  }

  std::uint32_t domain() const { return domain_; }
  /// Bytes of shared storage behind S (observer-side).
  std::size_t memory_bytes() const { return Bins::footprint_bytes(s_); }

 private:
  std::uint32_t domain_;
  typename Bins::Array s_;
};

template <typename E>
using HiSetAlgPadded = HiSetAlg<E, env::PaddedBins<E>>;
template <typename E>
using HiSetAlgPacked = HiSetAlg<E, env::PackedBins<E>>;

}  // namespace hi::algo
