// Set over {1..t} with insert / remove / lookup — the paper's example (§5.1)
// of an object *outside* class C_t: it has 2^t states but only two responses
// ("success"/"failure"), so no single operation distinguishes t states, and
// the impossibility result does not apply. Indeed the paper notes a trivial
// wait-free *perfect* HI implementation from t binary registers
// (src/algo/hi_set.h reproduces it).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bits.h"

namespace hi::spec {

class SetSpec {
 public:
  using State = std::uint64_t;  // membership bitmask; bit (v-1) <=> v in set

  enum class Kind : std::uint8_t { kInsert, kRemove, kLookup };
  struct Op {
    Kind kind;
    std::uint32_t value;  // element in [1, t]

    friend bool operator==(const Op&, const Op&) = default;
  };
  // Lookup: presence. Insert/Remove: constant "success" acknowledgement —
  // the paper's set has only success/failure responses, and the trivial
  // perfect-HI implementation (blind writes to t binary registers) cannot
  // report the previous presence bit atomically; keeping update responses
  // constant is precisely what keeps the set outside class C_t.
  using Resp = bool;

  explicit SetSpec(std::uint32_t domain, std::uint64_t initial = 0)
      : domain_(domain), initial_(initial) {
    assert(domain >= 1 && domain <= 64);
    assert(domain == 64 || initial < (std::uint64_t{1} << domain));
  }

  std::uint32_t domain() const { return domain_; }

  static Op insert(std::uint32_t value) { return Op{Kind::kInsert, value}; }
  static Op remove(std::uint32_t value) { return Op{Kind::kRemove, value}; }
  static Op lookup(std::uint32_t value) { return Op{Kind::kLookup, value}; }

  State initial_state() const { return initial_; }

  std::pair<State, Resp> apply(const State& state, const Op& op) const {
    assert(op.value >= 1 && op.value <= domain_);
    const unsigned bit = op.value - 1;
    const bool present = util::test_bit(state, bit);
    switch (op.kind) {
      case Kind::kInsert:
        return {util::set_bit(state, bit), true};
      case Kind::kRemove:
        return {util::clear_bit(state, bit), true};
      case Kind::kLookup:
        return {state, present};
    }
    return {state, false};  // unreachable
  }

  bool is_read_only(const Op& op) const { return op.kind == Kind::kLookup; }

  std::uint64_t encode_state(const State& state) const { return state; }
  State decode_state(std::uint64_t word) const { return word; }

  std::uint32_t encode_op(const Op& op) const {
    return (static_cast<std::uint32_t>(op.kind) << 8) | op.value;
  }
  Op decode_op(std::uint32_t word) const {
    return Op{static_cast<Kind>(word >> 8), word & 0xffu};
  }
  std::uint32_t encode_resp(const Resp& resp) const { return resp ? 1u : 0u; }
  Resp decode_resp(std::uint32_t word) const { return word != 0; }

  /// 2^t states; only call for small domains.
  std::vector<State> enumerate_states() const {
    assert(domain_ <= 20);
    std::vector<State> states;
    states.reserve(std::size_t{1} << domain_);
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << domain_); ++mask) {
      states.push_back(mask);
    }
    return states;
  }

 private:
  std::uint32_t domain_;
  std::uint64_t initial_;
};

}  // namespace hi::spec
