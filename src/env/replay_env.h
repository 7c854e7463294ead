// ReplayEnv: the schedule-replay backend of the Env abstraction — hardware
// atomics under simulator scheduling.
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
// Cells are registered as sim::BaseObjects in a sim::Memory, in the same
// factory order SimEnv uses, so object ids, pending-primitive introspection
// (the Lemma 16 adversary's observable), mem(C) snapshots, word_range() and
// dump() all work unchanged. Snapshot layout per cell type:
//
//   ReplayBinaryRegister — 1 word (0/1), identical to sim::BinaryRegister;
//   ReplayCasCell        — 3 words (value, 0, ctx), matching
//                          sim::WideCasCell's (lo, hi, ctx) whenever the
//                          simulator's hi word is unused (true for the
//                          standalone R-LLSC embedding — word-for-word
//                          parity; the universal constructions pack heads
//                          differently per backend, so their differential
//                          comparison is semantic, via the codecs);
//   ReplayWordCell       — 1 word, identical to sim::CasCell.
//
// Cell constructors store their initial values relaxed, as RtEnv's
// factories do: construction is not a step (docs/ENV.md "Factories").
//
// Allocation contract: ReplayEnv coroutines are sim::OpTask/sim::SubTask —
// ordinary heap-allocated frames, NOT FrameArena-backed EagerTasks. A
// suspended frame must outlive arbitrarily many scheduler steps (and the
// scheduler may abandon it mid-operation), so the per-thread recycling arena
// rules do not apply; replay is a verification harness, exempt from the
// steady-state allocs_per_op == 0 gate (docs/ENV.md "ReplayEnv";
// tests/test_rt_alloc.cpp pins the exemption).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/values.h"
#include "env/env.h"
#include "rt/atomic128.h"
#include "rt/cells.h"
#include "sim/base_object.h"
#include "sim/memory.h"
#include "sim/task.h"
#include "util/bits.h"

namespace hi::env {

/// A binary register backed by the rt backend's padded atomic byte. Kind
/// strings ("read"/"write") match sim::BinaryRegister, so trace annotations
/// recorded from a SimEnv run cross-check against a ReplayEnv re-execution.
class ReplayBinaryRegister : public sim::BaseObject {
 public:
  explicit ReplayBinaryRegister(std::string name, bool initial = false)
      : BaseObject(std::move(name)) {
    cell_->store(initial ? 1 : 0, std::memory_order_relaxed);
  }

  auto read() {
    return sim::Primitive{id(), "read", [this] { return rt::bin_read(*cell_); }};
  }
  auto write(std::uint8_t value) {
    return sim::Primitive{id(), "write", [this, value] {
                            rt::bin_write(*cell_, value);
                            return true;
                          }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(cell_->load(std::memory_order_seq_cst));
  }
  std::string describe() const override {
    return name() + "=" +
           std::to_string(cell_->load(std::memory_order_seq_cst));
  }

  std::uint8_t peek() const {  // observer-side, not a step
    return cell_->load(std::memory_order_seq_cst);
  }

 private:
  rt::BinCell cell_;
};

/// One packed-bin-array word backed by the rt backend's atomic word and the
/// shared rt/cells.h packed primitive bodies. Kind strings ("read",
/// "fetch_or", "fetch_and") match sim::PackedWordCell, so traces recorded
/// from a packed SimEnv run cross-check against a ReplayEnv re-execution;
/// the snapshot layout (one 64-bit word) matches too, so packed objects
/// compare word-for-word in the differential driver.
class ReplayPackedWordCell : public sim::BaseObject {
 public:
  explicit ReplayPackedWordCell(std::string name, std::uint64_t initial)
      : BaseObject(std::move(name)) {
    cell_.store(initial, std::memory_order_relaxed);
  }

  auto read() {
    return sim::Primitive{id(), "read",
                          [this] { return rt::packed_load(cell_); }};
  }
  auto fetch_or(std::uint64_t mask) {
    return sim::Primitive{id(), "fetch_or", [this, mask] {
                            rt::packed_or(cell_, mask);
                            return true;
                          }};
  }
  auto fetch_and(std::uint64_t mask) {
    return sim::Primitive{id(), "fetch_and", [this, mask] {
                            rt::packed_and(cell_, mask);
                            return true;
                          }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(cell_.load(std::memory_order_seq_cst));
  }
  std::string describe() const override {
    return name() + "=" +
           std::to_string(cell_.load(std::memory_order_seq_cst));
  }

  std::uint64_t peek() const {  // observer-side, not a step
    return cell_.load(std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint64_t> cell_;
};

/// The CAS base object backed by the rt backend's 16-byte Atomic128 word.
class ReplayCasCell : public sim::BaseObject {
 public:
  explicit ReplayCasCell(std::string name, rt::Word128 initial)
      : BaseObject(std::move(name)), cell_(initial) {}

  auto read() {
    return sim::Primitive{id(), "read",
                          [this] { return rt::cas128_read(cell_); }};
  }
  auto write(rt::CasWord desired) {
    return sim::Primitive{id(), "write", [this, desired] {
                            rt::cas128_write(cell_, desired);
                            return true;
                          }};
  }
  /// Failure-word CAS: one CMPXCHG16B at the granted step.
  auto cas_observe(rt::CasWord expected, rt::CasWord desired) {
    return sim::Primitive{id(), "cas", [this, expected, desired] {
                            return rt::cas128_cas(cell_, expected, desired);
                          }};
  }

  /// (value, 0, ctx) — sim::WideCasCell's (lo, hi, ctx) with hi unused.
  void encode_state(std::vector<std::uint64_t>& out) const override {
    const rt::CasWord w = rt::cas128_read(cell_);
    out.push_back(w.value);
    out.push_back(0);
    out.push_back(w.ctx);
  }
  std::string describe() const override {
    const rt::CasWord w = rt::cas128_read(cell_);
    return name() + "=(" + std::to_string(w.value) +
           ",ctx=" + std::to_string(w.ctx) + ")";
  }

  rt::CasWord peek() const { return rt::cas128_read(cell_); }
  bool is_lock_free() const { return cell_.word.is_lock_free(); }

 private:
  rt::CasCell128 cell_;
};

/// A 64-bit CAS word backed by the rt backend's padded atomic word.
class ReplayWordCell : public sim::BaseObject {
 public:
  explicit ReplayWordCell(std::string name, std::uint64_t initial)
      : BaseObject(std::move(name)) {
    cell_->store(initial, std::memory_order_relaxed);
  }

  auto read() {
    return sim::Primitive{id(), "read",
                          [this] { return rt::word_read(*cell_); }};
  }
  auto write(std::uint64_t value) {
    return sim::Primitive{id(), "write", [this, value] {
                            rt::word_write(*cell_, value);
                            return true;
                          }};
  }
  auto cas_observe(std::uint64_t expected, std::uint64_t desired) {
    return sim::Primitive{id(), "cas", [this, expected, desired] {
                            return rt::word_cas(*cell_, expected, desired);
                          }};
  }

  void encode_state(std::vector<std::uint64_t>& out) const override {
    out.push_back(cell_->load(std::memory_order_seq_cst));
  }
  std::string describe() const override {
    return name() + "=" +
           std::to_string(cell_->load(std::memory_order_seq_cst));
  }

  std::uint64_t peek() const {
    return cell_->load(std::memory_order_seq_cst);
  }

 private:
  rt::WordCell cell_;
};

/// The replay execution environment: RtEnv's cells and value packing
/// (Value = std::uint64_t — the hardware codecs), SimEnv's coroutine types
/// and scheduling. Factories register objects in the same order and with
/// the same names as SimEnv, so a SimEnv system and a ReplayEnv system
/// built from the same algorithm have corresponding object ids.
struct ReplayEnv {
  using Ctx = sim::Memory&;

  template <typename T>
  using Op = sim::OpTask<T>;
  template <typename T>
  using Sub = sim::SubTask<T>;

  /// env.h "lift": the one-await coroutine, exactly as in SimEnv.
  template <typename Task, typename Source, typename Fn>
  static Task lift(Source source, Fn fn) {
    return detail::lift_await<Task>(std::move(source), std::move(fn));
  }
  /// env.h "lift_each": the await-each coroutine, exactly as in SimEnv.
  template <typename Task, typename Source, typename Sink>
  static Task lift_each(std::uint32_t count, Source source, Sink sink) {
    return detail::lift_each_await<Task>(count, std::move(source),
                                         std::move(sink));
  }

  // ---- binary registers (the §4/§5.1 base objects) ----

  using BinArray = std::vector<ReplayBinaryRegister*>;

  /// Multi-word bitmap initialization (util::bin_test; same word geometry
  /// and factory order as SimEnv). Construction only — never a step of the
  /// model.
  static BinArray make_bin_array_words(Ctx memory, const char* prefix,
                                       std::uint32_t count,
                                       std::span<const std::uint64_t> words) {
    BinArray array;
    array.reserve(count);
    for (std::uint32_t v = 1; v <= count; ++v) {
      array.push_back(&memory.make<ReplayBinaryRegister>(
          std::string(prefix) + "[" + std::to_string(v) + "]",
          util::bin_test(words, v)));
    }
    return array;
  }

  /// read(A[index]) — one seq_cst atomic load, executed at the granted step.
  static auto read_bit(BinArray& array, std::uint32_t index) {
    return array[index - 1]->read();
  }
  /// write(A[index], value) — one seq_cst atomic store; 1 step.
  static auto write_bit(BinArray& array, std::uint32_t index,
                        std::uint8_t value) {
    return array[index - 1]->write(value);
  }
  /// Observer-side peek — 0 steps.
  static std::uint8_t peek_bit(const BinArray& array, std::uint32_t index) {
    return array[index - 1]->peek();
  }
  /// Modeled footprint: one snapshot word per binary register.
  static std::size_t bin_storage_bytes(const BinArray& array) {
    return array.size() * sizeof(std::uint64_t);
  }

  // ---- packed bin arrays: 64 bins per word, hardware atomics under
  // simulator scheduling (same factory order/names as SimEnv) ----

  struct PackedBinArray {
    std::uint32_t bins = 0;
    std::vector<ReplayPackedWordCell*> words;
  };

  /// Multi-word bitmap initialization: word w starts from `words[w]`, tail
  /// bits beyond `count` dropped (util::init_word; same factory order and
  /// names as SimEnv). Construction only.
  static PackedBinArray make_packed_bin_array_words(
      Ctx memory, const char* prefix, std::uint32_t count,
      std::span<const std::uint64_t> words) {
    PackedBinArray array;
    array.bins = count;
    const std::uint32_t nwords = util::bin_words(count);
    array.words.reserve(nwords);
    for (std::uint32_t w = 0; w < nwords; ++w) {
      array.words.push_back(&memory.make<ReplayPackedWordCell>(
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

  /// Word load — one seq_cst atomic load at the granted step; 1 step.
  static auto load_packed_word(PackedBinArray& array, std::uint32_t w) {
    return array.words[w]->read();
  }
  /// One LOCK OR at the granted step; 1 step.
  static auto or_packed_word(PackedBinArray& array, std::uint32_t w,
                             std::uint64_t mask) {
    return array.words[w]->fetch_or(mask);
  }
  /// One LOCK AND at the granted step; 1 step.
  static auto and_packed_word(PackedBinArray& array, std::uint32_t w,
                              std::uint64_t mask) {
    return array.words[w]->fetch_and(mask);
  }
  /// Observer-side peek — 0 steps.
  static std::uint64_t peek_packed_word(const PackedBinArray& array,
                                        std::uint32_t w) {
    return array.words[w]->peek();
  }
  static std::size_t packed_storage_bytes(const PackedBinArray& array) {
    return array.words.size() * sizeof(std::uint64_t);
  }

  // ---- one CAS base object: the 16-byte hardware word ----

  using Value = std::uint64_t;  // the hardware packing (RtEnv's codecs)
  using Word = algo::CtxWord<Value>;
  using CasCell = ReplayCasCell*;

  /// Construction only.
  static CasCell make_cas(Ctx memory, std::string name, Value initial) {
    return &memory.make<ReplayCasCell>(std::move(name),
                                       rt::Word128{initial, 0});
  }

  /// Read(X) — one seq_cst 16-byte atomic load; 1 step.
  static auto cas_read(CasCell& cell) { return cell->read(); }
  /// CAS(X, expected, desired) — one CMPXCHG16B; 1 step, failure-word
  /// semantics (docs/ENV.md).
  static auto cas(CasCell& cell, const Word& expected, const Word& desired) {
    return cell->cas_observe(expected, desired);
  }
  /// Write(X, desired) — one seq_cst 16-byte atomic store; 1 step.
  static auto cas_write(CasCell& cell, const Word& desired) {
    return cell->write(desired);
  }
  /// Observer-side peek — 0 steps.
  static Word peek_cas(const CasCell& cell) { return cell->peek(); }
  /// False iff libatomic fell back to a lock table (no CMPXCHG16B).
  static bool cas_is_lock_free(const CasCell& cell) {
    return cell->is_lock_free();
  }
  /// env.h "cas_loop": the retry coroutine, exactly as in SimEnv.
  template <typename Task, typename Plan>
  static Task cas_loop(CasCell& cell, Plan plan) {
    return detail::cas_loop_await<Task, ReplayEnv>(cell, std::move(plan));
  }
  /// Local scheduling hint for spin retries — never a step, never touches
  /// shared memory. Replay is single-stepped by the sim scheduler: no-op
  /// (yielding here would perturb nothing but wall time).
  static void relax() noexcept {}

  // ---- arrays of 64-bit CAS words (per-process announce/result tables) ----

  using WordArray = std::vector<ReplayWordCell*>;

  /// Construction only.
  static WordArray make_word_array(Ctx memory, const char* prefix,
                                   std::uint32_t count, std::uint64_t initial) {
    WordArray array;
    array.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      array.push_back(&memory.make<ReplayWordCell>(
          std::string(prefix) + "[" + std::to_string(i) + "]", initial));
    }
    return array;
  }

  /// read(W[index]) — 1 step.
  static auto read_word(WordArray& array, std::uint32_t index) {
    return array[index]->read();
  }
  /// write(W[index], value) — 1 step.
  static auto write_word(WordArray& array, std::uint32_t index,
                         std::uint64_t value) {
    return array[index]->write(value);
  }
  /// CAS(W[index], expected, desired) — 1 step, failure-word semantics.
  static auto cas_word(WordArray& array, std::uint32_t index,
                       std::uint64_t expected, std::uint64_t desired) {
    return array[index]->cas_observe(expected, desired);
  }
  /// Observer-side peek — 0 steps.
  static std::uint64_t peek_word(const WordArray& array, std::uint32_t index) {
    return array[index]->peek();
  }
};

static_assert(ExecutionEnv<ReplayEnv>);

}  // namespace hi::env
