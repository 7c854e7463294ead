// SimEnv: the simulated asynchronous shared-memory backend of the Env
// abstraction (see env.h and docs/ENV.md).
//
// Wraps the existing sim::Primitive awaiters and BaseObject state encoding:
// every read_bit/write_bit/cas_read/cas/cas_write/read_word/write_word/
// cas_word returns the base object's own Primitive awaiter, so one scheduler
// resume still executes exactly one primitive (§2's step granularity) and
// mem(C) snapshots, object ids and primitive kinds are byte-identical to the
// pre-Env implementations — the HI checker, the adversaries and the
// exhaustive explorer all keep working unchanged over the single-source
// algorithms.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/values.h"
#include "env/env.h"
#include "sim/base_object.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::env {

struct SimEnv {
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

  using BinArray = std::vector<sim::BinaryRegister*>;

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
      array.push_back(&memory.make<sim::BinaryRegister>(
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
  // Each word is ONE sim::PackedWordCell, so a word load or masked RMW is
  // one primitive step and the explorer interleaves at word granularity.
  // mem(C) encodes one 64-bit word per cell — the packed representation is
  // a pure function of the abstract bins, which is what preserves the HI
  // arguments (env/env.h, docs/ENV.md "Packed bin arrays").

  struct PackedBinArray {
    std::uint32_t bins = 0;
    std::vector<sim::PackedWordCell*> words;
  };

  /// Registers ceil(count/64) packed words named "<prefix>.w[0..]"; word w
  /// starts from `words[w]` (bit v-1 of the flat bitmap = bin v). Missing
  /// trailing words read as 0; bits beyond `count` are dropped so tail bins
  /// stay 0 (util::init_word). Construction only.
  static PackedBinArray make_packed_bin_array_words(
      Ctx memory, const char* prefix, std::uint32_t count,
      std::span<const std::uint64_t> words) {
    PackedBinArray array;
    array.bins = count;
    const std::uint32_t nwords = util::bin_words(count);
    array.words.reserve(nwords);
    for (std::uint32_t w = 0; w < nwords; ++w) {
      array.words.push_back(&memory.make<sim::PackedWordCell>(
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

  using Value = algo::RllscValue;
  using Word = algo::CtxWord<Value>;
  using CasCell = sim::WideCasCell*;

  /// Registers the (wide) CAS base object in the Memory. Construction only.
  static CasCell make_cas(Ctx memory, std::string name, Value initial) {
    return &memory.make<sim::WideCasCell>(
        std::move(name), sim::WideWord{initial.lo, initial.hi, 0});
  }

  /// Read(X) on the CAS object — 1 primitive step (§2: CAS objects support
  /// standard reads).
  static auto cas_read(CasCell& cell) {
    return detail::MapAwait{cell->read(), [](sim::WideWord w) {
                              return Word{{w.lo, w.hi}, w.ctx};
                            }};
  }
  /// CAS(X, expected, desired) — 1 primitive step. Failure-word semantics:
  /// the result carries the word observed at the step, so a retry loop pays
  /// one primitive per attempt (no separate re-read; see docs/ENV.md).
  static auto cas(CasCell& cell, const Word& expected, const Word& desired) {
    return detail::MapAwait{
        cell->cas_observe(to_wide(expected), to_wide(desired)),
        [](sim::WideCasObserved r) {
          return algo::CasResult<Word>{
              r.installed, Word{{r.observed.lo, r.observed.hi}, r.observed.ctx}};
        }};
  }
  /// Write(X, desired) — 1 primitive step (§2: CAS objects support writes).
  static auto cas_write(CasCell& cell, const Word& desired) {
    return cell->write(to_wide(desired));
  }
  /// Observer-side peek of the full CAS word — 0 steps.
  static Word peek_cas(const CasCell& cell) {
    const sim::WideWord w = cell->peek();
    return Word{{w.lo, w.hi}, w.ctx};
  }
  /// The simulated CAS object is an atomic primitive by construction.
  static bool cas_is_lock_free(const CasCell&) { return true; }
  /// A failure-word CAS retry loop (env.h "cas_loop"): the coroutine that
  /// awaits cas_read, each cas and each poll, so one resume is one step.
  template <typename Task, typename Plan>
  static Task cas_loop(CasCell& cell, Plan plan) {
    return detail::cas_loop_await<Task, SimEnv>(cell, std::move(plan));
  }
  /// Local scheduling hint for spin retries — never a step, never touches
  /// shared memory. Meaningless under the sim scheduler: no-op.
  static void relax() noexcept {}

  // ---- arrays of 64-bit CAS words (per-process announce/result tables) ----

  using WordArray = std::vector<sim::CasCell*>;

  /// Registers `count` word-sized CAS cells named "<prefix>[0..count-1]"
  /// (0-based: these model per-process cells indexed by pid, not the
  /// paper's 1-based value slots). Construction only.
  static WordArray make_word_array(Ctx memory, const char* prefix,
                                   std::uint32_t count, std::uint64_t initial) {
    WordArray array;
    array.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      array.push_back(&memory.make<sim::CasCell>(
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
    return detail::MapAwait{array[index]->cas_observe(expected, desired),
                            [](sim::CasObserved r) {
                              return algo::CasResult<std::uint64_t>{
                                  r.installed, r.observed};
                            }};
  }
  /// Observer-side peek — 0 steps.
  static std::uint64_t peek_word(const WordArray& array, std::uint32_t index) {
    return array[index]->peek();
  }

 private:
  static sim::WideWord to_wide(const Word& word) {
    return sim::WideWord{word.value.lo, word.value.hi, word.ctx};
  }
};

static_assert(ExecutionEnv<SimEnv>);

}  // namespace hi::env
