// Value types shared by the algorithm layer and both execution environments.
//
// The single-source algorithms (src/algo) are templated over an execution
// environment Env (src/env). The R-LLSC family manipulates values of type
// Env::Value — a 128-bit two-word payload in the simulator (room for the
// paper's unbounded abstract states) and a packed 64-bit word on hardware
// (the DESIGN substitution: states ≤ 32 bits so one CMPXCHG16B covers value
// plus context). CtxWord pairs a value with the R-LLSC context bitmask; it
// is the environment-neutral view of one CAS base-object state.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace hi::algo {

/// The value carried by an R-LLSC cell (context excluded): two words, enough
/// for Algorithm 5's ⟨state, ⟨response, process⟩⟩ head tuples.
struct RllscValue {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const RllscValue&, const RllscValue&) = default;
};

/// One CAS base-object state as the algorithms see it: an algorithm-level
/// value plus the context bitmask (bit i set <=> process i in context).
template <typename V>
struct CtxWord {
  V value{};
  std::uint64_t ctx = 0;

  friend bool operator==(const CtxWord&, const CtxWord&) = default;
};

/// Result of a failure-word CAS (Env::cas / Env::cas_word): `installed` says
/// whether the swap was applied; `observed` is the word the cell held
/// immediately before the CAS executed (== expected iff installed). Retry
/// loops feed `observed` straight into the next attempt's expectation, so a
/// failed retry costs ONE primitive instead of a CAS followed by a re-read —
/// the hardware gets this for free (compare_exchange writes the current word
/// back into `expected` on failure), and the simulator models it as a single
/// atomic step of the same "cas" primitive kind.
template <typename W>
struct CasResult {
  bool installed = false;
  W observed{};

  friend bool operator==(const CasResult&, const CasResult&) = default;
};

/// The two process roles of a single-writer object: the paper's p_w, and
/// p_r for the §4 registers (the queue's single mutator and its peeker for
/// the Theorem 20 strawman). Fixed at construction; every role-bound entry
/// point asserts its caller, so a wrong-role call aborts in asserts-on
/// builds on every backend.
class SwsrRoles {
 public:
  SwsrRoles(int writer_pid, int reader_pid)
      : writer_pid_(writer_pid), reader_pid_(reader_pid) {}

  int writer_pid() const { return writer_pid_; }
  int reader_pid() const { return reader_pid_; }

 protected:
  void assert_writer(int pid) const {
    assert(pid == writer_pid_ && "wrong role: only p_w may write");
    (void)pid;
  }
  void assert_reader(int pid) const {
    assert(pid == reader_pid_ && "wrong role: only p_r may read");
    (void)pid;
  }

 private:
  int writer_pid_;
  int reader_pid_;
};

/// Observer-side memory image of any algorithm object: its encode_memory
/// bytes (abstract bins in mem(C) order, whatever the layout). Never a step.
template <typename Obj>
std::vector<std::uint8_t> memory_image(const Obj& obj) {
  std::vector<std::uint8_t> image;
  obj.encode_memory(image);
  return image;
}

}  // namespace hi::algo
