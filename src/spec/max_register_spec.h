// Max register (Aspnes–Attiya–Censor): WriteMax(v) and ReadMax, where ReadMax
// returns the maximum value ever written. The paper (§5.1) uses it as the
// canonical example of an object *not* in class C_t — its state graph is not
// strongly connected (once at m it can never drop below m) — and observes
// that a one-line modification of Vidyasankar's algorithm gives a wait-free
// state-quiescent HI max register from binary registers
// (src/algo/max_register.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace hi::spec {

class MaxRegisterSpec {
 public:
  using State = std::uint32_t;  // current maximum, in [1, K]

  enum class Kind : std::uint8_t { kReadMax, kWriteMax };
  struct Op {
    Kind kind;
    std::uint32_t value = 0;

    friend bool operator==(const Op&, const Op&) = default;
  };
  using Resp = std::uint32_t;

  explicit MaxRegisterSpec(std::uint32_t num_values, std::uint32_t initial = 1)
      : num_values_(num_values), initial_(initial) {
    assert(num_values >= 1 && initial >= 1 && initial <= num_values);
  }

  std::uint32_t num_values() const { return num_values_; }

  static Op read_max() { return Op{Kind::kReadMax, 0}; }
  static Op write_max(std::uint32_t value) {
    return Op{Kind::kWriteMax, value};
  }

  State initial_state() const { return initial_; }

  std::pair<State, Resp> apply(const State& state, const Op& op) const {
    switch (op.kind) {
      case Kind::kReadMax:
        return {state, state};
      case Kind::kWriteMax:
        assert(op.value >= 1 && op.value <= num_values_);
        return {op.value > state ? op.value : state, 0};
    }
    return {state, 0};  // unreachable
  }

  bool is_read_only(const Op& op) const { return op.kind == Kind::kReadMax; }

  std::uint64_t encode_state(const State& state) const { return state; }
  State decode_state(std::uint64_t word) const {
    return static_cast<State>(word);
  }

  std::uint32_t encode_op(const Op& op) const {
    return op.kind == Kind::kReadMax ? 0u : op.value;
  }
  Op decode_op(std::uint32_t word) const {
    return word == 0 ? read_max() : write_max(word);
  }
  std::uint32_t encode_resp(const Resp& resp) const { return resp; }
  Resp decode_resp(std::uint32_t word) const { return word; }

  std::vector<State> enumerate_states() const {
    std::vector<State> states;
    states.reserve(num_values_);
    for (std::uint32_t v = 1; v <= num_values_; ++v) states.push_back(v);
    return states;
  }

 private:
  std::uint32_t num_values_;
  std::uint32_t initial_;
};

}  // namespace hi::spec
