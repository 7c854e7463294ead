// ReplayEnv: the schedule-replay backend of the Env abstraction — hardware
// atomics under simulator scheduling (SchedEnvT over ReplayCells; see
// sched_env.h and docs/ENV.md).
//
// Each primitive executes the SAME std::atomic operation, on the SAME cell
// types and codecs, as RtEnv (rt/cells.h is the shared factoring), but the
// awaitable is a sim::Primitive: co_await suspends the calling coroutine and
// the atomic operation runs when a sim::Scheduler grants the process its
// step. One scheduler resume == one std::atomic operation == one step of the
// paper's §2 model. This is what makes a recorded simulator schedule
// (sim/trace.h) executable over the hardware code path: the differential
// driver (verify/replay.h) marches a SimEnv instantiation and a ReplayEnv
// instantiation of the same single-source algorithm through the identical
// (pid, primitive, object) sequence and compares responses and memory
// word-for-word after every step — turning every explorer counterexample and
// fuzzer schedule into a reproducible hardware regression.
//
// SchedEnvT's one set of factories gives both backends the same object ids
// and names, so pending-primitive introspection (the Lemma 16 adversary's
// observable), mem(C) snapshots, word_range() and dump() all correspond.
// Every cell is a sim::Cell over one of the four stores below, so primitive
// kinds, peeks and the snapshot layout come from the one Cell and its
// sim::encode_word overloads: binary, packed and word cells encode one
// word each, and the CAS cell encodes (value, 0, ctx) — the simulator's
// (lo, hi, ctx) with hi unused, word-for-word equal to it whenever the
// simulator's hi word is 0: true for the standalone R-LLSC embedding and,
// through the shared head codecs, for the universal constructions
// (docs/ENV.md "Trace/snapshot format notes").
//
// Store constructors store their initial values relaxed, as RtEnv's
// factories do: construction is not a step (docs/ENV.md "Factories").
#pragma once

#include <atomic>
#include <cstdint>

#include "env/sched_env.h"
#include "rt/atomic128.h"
#include "rt/cells.h"
#include "sim/base_object.h"

namespace hi::env {

// The replay stores: each access is the rt/cells.h body RtEnv runs (a
// load is the same seq_cst load as rt::bin_read / rt::word_read).

/// A binary register: the rt backend's padded atomic byte.
struct ReplayBinStore {
  using Word = std::uint8_t;
  explicit ReplayBinStore(Word initial) {
    cell->store(initial, std::memory_order_relaxed);
  }
  Word load() const { return cell->load(std::memory_order_seq_cst); }
  void store(Word value) { rt::bin_write(*cell, value); }
  rt::BinCell cell;
};

/// One packed-bin-array word: the rt backend's unpadded atomic word.
struct ReplayPackedStore {
  using Word = std::uint64_t;
  explicit ReplayPackedStore(Word initial) {
    cell.store(initial, std::memory_order_relaxed);
  }
  Word load() const { return rt::packed_load(cell); }
  void fetch_or(Word mask) { rt::packed_or(cell, mask); }
  void fetch_and(Word mask) { rt::packed_and(cell, mask); }
  std::atomic<std::uint64_t> cell;
};

/// The CAS base object: the rt backend's 16-byte Atomic128 word (one
/// CMPXCHG16B per CAS).
struct ReplayCasStore {
  using Word = rt::CasWord;
  explicit ReplayCasStore(Word initial)
      : cell(rt::Word128{initial.value, initial.ctx}) {}
  Word load() const { return rt::cas128_read(cell); }
  void store(const Word& desired) { rt::cas128_write(cell, desired); }
  algo::CasResult<Word> cas(const Word& expected, const Word& desired) {
    return rt::cas128_cas(cell, expected, desired);
  }
  bool is_lock_free() const { return cell.word.is_lock_free(); }
  rt::CasCell128 cell;
};

/// A 64-bit CAS word: the rt backend's padded atomic word.
struct ReplayWordStore {
  using Word = std::uint64_t;
  explicit ReplayWordStore(Word initial) {
    cell->store(initial, std::memory_order_relaxed);
  }
  Word load() const { return cell->load(std::memory_order_seq_cst); }
  void store(Word value) { rt::word_write(*cell, value); }
  algo::CasResult<Word> cas(Word expected, Word desired) {
    return rt::word_cas(*cell, expected, desired);
  }
  rt::WordCell cell;
};

/// The replay cells: RtEnv's cells and value packing (Value =
/// std::uint64_t — the hardware codecs) under the simulator's scheduling.
struct ReplayCells {
  using Bin = sim::Cell<ReplayBinStore>;
  using Packed = sim::Cell<ReplayPackedStore>;
  using Cas = sim::Cell<ReplayCasStore>;
  using WordCell = sim::Cell<ReplayWordStore>;
  using Value = std::uint64_t;
};

using ReplayEnv = SchedEnvT<ReplayCells>;

static_assert(ExecutionEnv<ReplayEnv>);

}  // namespace hi::env
