// Strawman "state-quiescent HI queue with Peek" from binary registers — the
// candidate that Theorem 20 (§5.4 / Appendix C) dooms — written ONCE over an
// execution environment Env (src/env/env.h) and instantiated by the
// simulator and by the schedule-replay backend (env/replay_env.h), so the
// Theorem 20 adversary's starvation schedules replay over hardware atomics
// (tests/test_replay_adversary.cpp).
//
// Single-mutator queue over domain {1..t} with a front indicator kept in a
// one-hot binary array F (slot v+1 ⇔ front element v; slot 1 ⇔ empty) and
// the queue contents mirrored canonically into per-slot bit-planes. Every
// state-changing operation rewrites memory to the canonical encoding of the
// new state (set-the-new-front-then-clear-the-old, Algorithm 2 style), so
// the implementation is state-quiescent HI. Enqueue/Dequeue are wait-free.
// Peek, however, must chase the one-hot front bit across F — and the
// representative-state adversary (S(i1,i2) walks, Lemma 38) keeps the bit
// forever one step ahead of the scan: Peek is only lock-free, demonstrating
// concretely that the wait-free + state-quiescent-HI combination is
// unattainable from base objects with fewer than t+1 states.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/values.h"
#include "spec/queue_spec.h"
#include "util/bits.h"

namespace hi::algo {

/// Single mutator (the SwsrRoles writer: Enqueue, Dequeue) and single
/// peeker (the reader: Peek).
template <typename Env>
class StrawmanQueueAlg : public SwsrRoles {
 public:
  template <typename T>
  using Op = typename Env::template Op<T>;
  template <typename T>
  using Sub = typename Env::template Sub<T>;

  StrawmanQueueAlg(typename Env::Ctx ctx, const spec::QueueSpec& spec,
                   int changer_pid, int reader_pid)
      : SwsrRoles(changer_pid, reader_pid),
        domain_(spec.domain()),
        capacity_(spec.capacity()),
        // F slot v+1 holds the paper's F[v]; slot 1 (= F[0], "empty") starts
        // at 1. Registration order fixes the mem(C) layout: F first, then
        // the slot bit-planes.
        front_(Env::make_bin_array_words(ctx, "F", domain_ + 1,
                                         util::one_hot_words(1))) {
    bits_per_slot_ = 1;
    while ((1u << bits_per_slot_) < domain_ + 1) ++bits_per_slot_;
    slots_.reserve(capacity_);
    for (std::size_t s = 0; s < capacity_; ++s) {
      slots_.push_back(Env::make_bin_array_words(
          ctx, ("slot" + std::to_string(s)).c_str(), bits_per_slot_, {}));
    }
  }

  Op<std::uint32_t> apply(int pid, spec::QueueSpec::Op op) {
    switch (op.kind) {
      case spec::QueueSpec::Kind::kEnqueue: return enqueue(pid, op.value);
      case spec::QueueSpec::Kind::kDequeue: return dequeue(pid);
      case spec::QueueSpec::Kind::kPeek: break;
    }
    return peek(pid);
  }

  /// Peek: retry-scan F for the one-hot front bit. Lock-free only.
  Op<std::uint32_t> peek(int pid) {
    assert_reader(pid);
    for (;;) {
      for (std::uint32_t v = 0; v <= domain_; ++v) {
        const std::uint8_t bit = co_await Env::read_bit(front_, v + 1);
        if (bit == 1) co_return v;  // r_0 = empty, r_v = front element v
      }
    }
  }

  Op<std::uint32_t> enqueue(int pid, std::uint8_t value) {
    assert_writer(pid);
    assert(value >= 1 && value <= domain_);
    const std::uint32_t old_front = mirror_front();
    if (mirror_.size() < capacity_) mirror_.push_back(value);
    co_await rewrite_slots();
    co_await update_front(old_front, mirror_front());
    co_return 0;  // the spec's r0 / empty response
  }

  Op<std::uint32_t> dequeue(int pid) {
    assert_writer(pid);
    if (mirror_.empty()) co_return 0;
    const std::uint32_t old_front = mirror_front();
    const std::uint32_t response = mirror_.front();
    mirror_.erase(mirror_.begin());
    co_await rewrite_slots();
    co_await update_front(old_front, mirror_front());
    co_return response;
  }

  /// Observer-side memory image (F, then the slot bit-planes); not a step.
  void encode_memory(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v = 0; v <= domain_; ++v) {
      out.push_back(Env::peek_bit(front_, v + 1));
    }
    for (const auto& slot : slots_) {
      for (std::uint32_t b = 1; b <= bits_per_slot_; ++b) {
        out.push_back(Env::peek_bit(slot, b));
      }
    }
  }

  std::uint32_t domain() const { return domain_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::uint32_t mirror_front() const {
    return mirror_.empty() ? 0u : mirror_.front();
  }

  /// Canonically re-encode the queue contents (left-justified, zero-padded).
  Sub<bool> rewrite_slots() {
    for (std::size_t s = 0; s < capacity_; ++s) {
      const std::uint32_t value = s < mirror_.size() ? mirror_[s] : 0u;
      for (std::uint32_t b = 1; b <= bits_per_slot_; ++b) {
        co_await Env::write_bit(slots_[s], b, (value >> (b - 1)) & 1u);
      }
    }
    co_return true;
  }

  /// One-hot front update: set the new bit, then clear the old one (there is
  /// always at least one bit set, but a scan can still miss both).
  Sub<bool> update_front(std::uint32_t old_front, std::uint32_t new_front) {
    if (old_front != new_front) {
      co_await Env::write_bit(front_, new_front + 1, 1);
      co_await Env::write_bit(front_, old_front + 1, 0);
    }
    co_return true;
  }

  std::uint32_t domain_;
  std::size_t capacity_;
  std::uint32_t bits_per_slot_ = 1;
  std::vector<std::uint8_t> mirror_;  // single-mutator local view
  typename Env::BinArray front_;
  std::vector<typename Env::BinArray> slots_;
};

}  // namespace hi::algo
