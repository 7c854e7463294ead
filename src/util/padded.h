// Cache-line padding for the real-hardware (src/rt) implementations.
//
// Per-process announce cells and statistics counters are padded to a cache
// line each so that false sharing does not distort the benchmark shapes
// (CP.free: measure, don't guess; contention must come from the algorithm,
// not the layout).
#pragma once

#include <cstddef>
#include <utility>

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
