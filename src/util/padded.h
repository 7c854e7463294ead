// Cache-line padding for the real-hardware (src/rt) implementations, and
// cache-line placement of hot loops' code (HI_ALIGN_LOOPS).
//
// Per-process announce cells and statistics counters are padded to a cache
// line each so that false sharing does not distort the benchmark shapes
// (CP.free: measure, don't guess; contention must come from the algorithm,
// not the layout).
#pragma once

#include <cstddef>
#include <utility>

/// Puts every loop head of the marked function on a 64-byte boundary —
/// GCC's -falign-loops=64 for that function alone — so a hot loop's
/// placement, and with it its speed, no longer depends on the code ahead
/// of it in the translation unit (docs/PERF.md "How to read a
/// regression"). The function stays out of line: an inlined copy would
/// take its caller's alignment. Clang has no per-function form of the
/// flag, so there the macro is empty.
#if defined(__GNUC__) && !defined(__clang__)
#define HI_ALIGN_LOOPS [[gnu::optimize("align-loops=64"), gnu::noinline]]
#else
#define HI_ALIGN_LOOPS
#endif

namespace hi::util {

/// Fixed at 64 bytes (the x86-64 line) rather than
/// std::hardware_destructive_interference_size, whose value GCC warns may
/// vary with -mtune and so is unfit for a layout that must stay stable.
inline constexpr std::size_t kCacheLine = 64;

/// Wraps T so that consecutive array elements land on distinct cache lines.
template <typename T>
struct alignas(kCacheLine) Padded {
  T value;

  Padded() = default;
  template <typename... Args>
  explicit Padded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
};

}  // namespace hi::util
