// SchedEnvT: the scheduler-driven backends of the Env abstraction (see env.h
// and docs/ENV.md) — SimEnv (plain cells, sim_env.h) and ReplayEnv (the
// rt/cells.h atomics, replay_env.h) are SchedEnvT<SimCells> and
// SchedEnvT<ReplayCells>.
//
// Every primitive returns its cell's own sim::Primitive awaiter, so one
// scheduler resume executes exactly one primitive (§2's step granularity).
// Cells are registered as sim::BaseObjects in a sim::Memory, so object
// ids, pending-primitive introspection, mem(C) snapshots, word_range() and
// dump() work the same over either policy, and one factory order and one
// naming scheme hold for both: a SimEnv system and a ReplayEnv system built
// from the same algorithm have corresponding object ids and names.
//
// Every cell is one sim::Cell<Store> (sim/base_object.h): the Cell turns
// each store access into a one-step sim::Primitive and encodes the store's
// word into mem(C), so a Cells policy names only four Cell<...> types and
// the value type:
//
//   Bin      — a binary register (read, write, peek);
//   Packed   — one packed-bin-array word (read, fetch_or, fetch_and, peek);
//   Cas      — the CAS base object over CtxWord<Value> (read, write,
//              cas_observe, peek, is_lock_free);
//   WordCell — a 64-bit CAS word (read, write, cas_observe, peek);
//   Value    — the R-LLSC value type (algo::RllscValue in the simulator,
//              the packed std::uint64_t of the hardware codecs on replay).
//
// Coroutines are sim::OpTask/sim::SubTask: ordinary heap-allocated frames,
// NOT FrameArena-backed EagerTasks. A suspended frame must outlive
// arbitrarily many scheduler steps (and the scheduler may abandon it
// mid-operation), so the per-thread recycling arena rules do not apply;
// both backends are verification harnesses, exempt from the steady-state
// allocs_per_op == 0 gate (docs/ENV.md; tests/test_rt_alloc.cpp pins the
// exemption for replay).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/values.h"
#include "env/env.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::env {

template <typename Cells>
struct SchedEnvT {
  using Ctx = sim::Memory&;

  template <typename T>
  using Op = sim::OpTask<T>;
  template <typename T>
  using Sub = sim::SubTask<T>;

  /// One awaited primitive (or Sub) plus local computation (env.h "lift"):
  /// the one-await coroutine, so one scheduler resume is still one step.
  template <typename Task, typename Source, typename Fn>
  static Task lift(Source source, Fn fn) {
    return detail::lift_await<Task>(std::move(source), std::move(fn));
  }
  /// `count` independent steps (env.h "lift_each"): the coroutine that
  /// awaits each in turn, so one scheduler resume is still one step.
  template <typename Task, typename Source, typename Sink>
  static Task lift_each(std::uint32_t count, Source source, Sink sink) {
    return detail::lift_each_await<Task>(count, std::move(source),
                                         std::move(sink));
  }

  // ---- binary registers (the §4/§5.1 base objects) ----

  using BinArray = std::vector<typename Cells::Bin*>;

  /// Registers `count` binary registers named "<prefix>[1..count]" in the
  /// Memory (which owns them); slot v starts at bit (v-1) of the flat
  /// multi-word bitmap `words` (util::bin_test; missing trailing words read
  /// as 0). Registration order == mem(C) layout order. Construction only —
  /// never a step of the model.
  static BinArray make_bin_array_words(Ctx memory, const char* prefix,
                                       std::uint32_t count,
                                       std::span<const std::uint64_t> words) {
    BinArray array;
    array.reserve(count);
    for (std::uint32_t v = 1; v <= count; ++v) {
      array.push_back(&memory.make<typename Cells::Bin>(
          std::string(prefix) + "[" + std::to_string(v) + "]",
          util::bin_test(words, v)));
    }
    return array;
  }

  /// read(A[index]) — exactly 1 primitive step (the paper's binary-register
  /// read). `index` is 1-based, matching the paper's A[v] notation.
  static auto read_bit(BinArray& array, std::uint32_t index) {
    return array[index - 1]->read();
  }
  /// write(A[index], value) — exactly 1 primitive step (binary-register
  /// write; the only mutation primitive of Algorithms 1–4).
  static auto write_bit(BinArray& array, std::uint32_t index,
                        std::uint8_t value) {
    assert(value <= 1);
    return array[index - 1]->write(value);
  }
  /// Observer-side peek — 0 steps, never part of an execution; feeds
  /// encode_memory()/parity checks only.
  static std::uint8_t peek_bit(const BinArray& array, std::uint32_t index) {
    return array[index - 1]->peek();
  }
  /// Modeled footprint: one snapshot word per binary register.
  static std::size_t bin_storage_bytes(const BinArray& array) {
    return array.size() * sizeof(std::uint64_t);
  }

  // ---- packed bin arrays: 64 bins per word-sized base object ----
  //
  // Each word is ONE cell, so a word load or masked RMW is one primitive
  // step and the explorer interleaves at word granularity. mem(C) encodes
  // one 64-bit word per cell — the packed representation is a pure
  // function of the abstract bins, which is what preserves the HI
  // arguments (env/env.h, docs/ENV.md "Packed bin arrays").

  struct PackedBinArray {
    std::uint32_t bins = 0;
    std::vector<typename Cells::Packed*> words;
  };

  /// Registers ceil(count/64) packed words named "<prefix>.w[0..]"; word w
  /// starts from `words[w]` (bit v-1 of the flat bitmap = bin v). Missing
  /// trailing words read as 0; bits beyond `count` are dropped so tail bins
  /// stay 0 (util::init_word). Construction only.
  static PackedBinArray make_packed_bin_array_words(
      Ctx memory, const char* prefix, std::uint32_t count,
      std::vector<std::uint64_t> words) {
    PackedBinArray array;
    array.bins = count;
    const std::uint32_t nwords = util::bin_words(count);
    array.words.reserve(nwords);
    for (std::uint32_t w = 0; w < nwords; ++w) {
      array.words.push_back(&memory.make<typename Cells::Packed>(
          std::string(prefix) + ".w[" + std::to_string(w) + "]",
          util::init_word(words, count, w)));
    }
    return array;
  }

  static std::uint32_t packed_bins(const PackedBinArray& array) {
    return array.bins;
  }
  static std::uint32_t packed_words(const PackedBinArray& array) {
    return static_cast<std::uint32_t>(array.words.size());
  }

  /// Word load — 1 primitive step; returns 64 bins atomically.
  static auto load_packed_word(PackedBinArray& array, std::uint32_t w) {
    return array.words[w]->read();
  }
  /// fetch_or — 1 primitive step; sets every bin in `mask`.
  static auto or_packed_word(PackedBinArray& array, std::uint32_t w,
                             std::uint64_t mask) {
    return array.words[w]->fetch_or(mask);
  }
  /// fetch_and — 1 primitive step; keeps only the bins in `mask`.
  static auto and_packed_word(PackedBinArray& array, std::uint32_t w,
                              std::uint64_t mask) {
    return array.words[w]->fetch_and(mask);
  }
  /// Observer-side peek — 0 steps.
  static std::uint64_t peek_packed_word(const PackedBinArray& array,
                                        std::uint32_t w) {
    return array.words[w]->peek();
  }
  /// Modeled footprint of the shared representation (observer-side).
  static std::size_t packed_storage_bytes(const PackedBinArray& array) {
    return array.words.size() * sizeof(std::uint64_t);
  }

  // ---- one CAS base object over CtxWord<Value> (Algorithm 6's base) ----

  using Value = typename Cells::Value;
  using Word = algo::CtxWord<Value>;
  using CasCell = typename Cells::Cas*;

  /// Registers the CAS base object, context empty. Construction only.
  static CasCell make_cas(Ctx memory, std::string name, Value initial) {
    return &memory.make<typename Cells::Cas>(std::move(name),
                                             Word{initial, 0});
  }

  /// Read(X) on the CAS object — 1 primitive step (§2: CAS objects support
  /// standard reads).
  static auto cas_read(CasCell& cell) { return cell->read(); }
  /// CAS(X, expected, desired) — 1 primitive step. Failure-word semantics:
  /// the result carries the word observed at the step, so a retry loop pays
  /// one primitive per attempt (no separate re-read; see docs/ENV.md).
  static auto cas(CasCell& cell, const Word& expected, const Word& desired) {
    return cell->cas_observe(expected, desired);
  }
  /// Write(X, desired) — 1 primitive step (§2: CAS objects support writes).
  static auto cas_write(CasCell& cell, const Word& desired) {
    return cell->write(desired);
  }
  /// Observer-side peek of the full CAS word — 0 steps.
  static Word peek_cas(const CasCell& cell) { return cell->peek(); }
  /// The cell's own report: true for the simulated cell; on replay false
  /// iff libatomic fell back to a lock table (no CMPXCHG16B).
  static bool cas_is_lock_free(const CasCell& cell) {
    return cell->is_lock_free();
  }
  /// A failure-word CAS retry loop (env.h "cas_loop"): the coroutine that
  /// awaits cas_read, each cas and each poll, so one resume is one step.
  template <typename Task, typename Plan>
  static Task cas_loop(CasCell& cell, Plan plan) {
    return detail::cas_loop_await<Task, SchedEnvT>(cell, std::move(plan));
  }
  /// Local scheduling hint for spin retries — never a step, never touches
  /// shared memory. The scheduler single-steps every process: no-op.
  static void relax() noexcept {}

  // ---- arrays of 64-bit CAS words (per-process announce/result tables) ----

  using WordArray = std::vector<typename Cells::WordCell*>;

  /// Registers `count` word-sized CAS cells named "<prefix>[0..count-1]"
  /// (0-based: these model per-process cells indexed by pid, not the
  /// paper's 1-based value slots). Construction only.
  static WordArray make_word_array(Ctx memory, const char* prefix,
                                   std::uint32_t count, std::uint64_t initial) {
    WordArray array;
    array.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      array.push_back(&memory.make<typename Cells::WordCell>(
          std::string(prefix) + "[" + std::to_string(i) + "]", initial));
    }
    return array;
  }

  /// read(W[index]) — 1 primitive step.
  static auto read_word(WordArray& array, std::uint32_t index) {
    return array[index]->read();
  }
  /// write(W[index], value) — 1 primitive step.
  static auto write_word(WordArray& array, std::uint32_t index,
                         std::uint64_t value) {
    return array[index]->write(value);
  }
  /// CAS(W[index], expected, desired) — 1 primitive step, failure-word
  /// semantics as for cas().
  static auto cas_word(WordArray& array, std::uint32_t index,
                       std::uint64_t expected, std::uint64_t desired) {
    return array[index]->cas_observe(expected, desired);
  }
  /// Observer-side peek — 0 steps.
  static std::uint64_t peek_word(const WordArray& array, std::uint32_t index) {
    return array[index]->peek();
  }
};

}  // namespace hi::env
