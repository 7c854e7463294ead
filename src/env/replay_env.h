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
// Snapshot layout per cell type:
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
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "env/sched_env.h"
#include "rt/atomic128.h"
#include "rt/cells.h"
#include "sim/base_object.h"

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
  explicit ReplayCasCell(std::string name, rt::CasWord initial)
      : BaseObject(std::move(name)),
        cell_(rt::Word128{initial.value, initial.ctx}) {}

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

/// The replay cells: RtEnv's cells and value packing (Value =
/// std::uint64_t — the hardware codecs) under the simulator's scheduling.
struct ReplayCells {
  using Bin = ReplayBinaryRegister;
  using Packed = ReplayPackedWordCell;
  using Cas = ReplayCasCell;
  using WordCell = ReplayWordCell;
  using Value = std::uint64_t;
};

using ReplayEnv = SchedEnvT<ReplayCells>;

static_assert(ExecutionEnv<ReplayEnv>);

}  // namespace hi::env
