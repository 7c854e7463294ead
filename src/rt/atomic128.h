// 16-byte atomic word for the real-hardware implementations (src/rt).
//
// The paper's universal construction needs a CAS base object with
// O(s + 2^n) states: the full abstract state plus n context bits, updated in
// one indivisible compare-and-swap. On x86-64 this maps onto CMPXCHG16B
// (compiled with -mcx16; std::atomic<Word128> resolves to lock-free
// 16-byte operations via libatomic's runtime dispatch). The layout gives
// 64 bits of packed algorithm value and 64 context bits, so n ≤ 64 processes
// and abstract states must encode into 32 bits — the substitution documented
// in DESIGN.md. If the platform lacks CMPXCHG16B, libatomic falls back to a
// lock table: still correct, no longer lock-free (is_lock_free() reports it).
#pragma once

#include <atomic>
#include <cstdint>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace hi::rt {

struct Word128 {
  std::uint64_t value = 0;  // packed algorithm payload
  std::uint64_t ctx = 0;    // context bitmask / second payload word

  friend bool operator==(const Word128&, const Word128&) = default;
};

static_assert(sizeof(Word128) == 16);

class Atomic128 {
 public:
  Atomic128() = default;
  explicit Atomic128(Word128 initial) : word_(initial) {}

  Word128 load() const { return word_.load(std::memory_order_seq_cst); }
  void store(Word128 desired) {
    word_.store(desired, std::memory_order_seq_cst);
  }
  /// Strong CAS; on failure `expected` receives the current word.
  bool compare_exchange(Word128& expected, Word128 desired) {
    return word_.compare_exchange_strong(expected, desired,
                                         std::memory_order_seq_cst,
                                         std::memory_order_seq_cst);
  }

  /// Whether the 16-byte operations resolve to lock-free instructions. On
  /// x86-64, libatomic's __atomic_*_16 entry points dispatch at load time to
  /// LOCK CMPXCHG16B (and, with AVX, VMOVDQA loads) whenever CPUID.1:ECX
  /// reports CX16, but std::atomic::is_lock_free() cannot see that dispatch
  /// and answers false under gcc 12. So on x86-64 the CPUID bit is the
  /// answer; elsewhere std::atomic's answer stands.
  bool is_lock_free() const {
#if defined(__x86_64__)
    static const bool cx16 = [] {
      unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
      return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
             (ecx & bit_CMPXCHG16B) != 0;
    }();
    return cx16;
#else
    return word_.is_lock_free();
#endif
  }

 private:
  std::atomic<Word128> word_{};
};

}  // namespace hi::rt
