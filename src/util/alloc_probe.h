// Heap-allocation counting instrumentation for tests and benchmarks.
//
// Including this header REPLACES the global operator new/delete with
// counting versions (thread-local counters, malloc-backed), which is what
// lets tests/test_rt_alloc.cpp assert "zero steady-state allocations per
// operation" and lets perfbench report its env.allocs_per_op metric
// (docs/PERF.md).
//
// RULES OF USE
//   * Replacement functions must have external linkage and appear at most
//     once per binary: include this header from exactly ONE translation
//     unit of an executable (every tests/ target is a single .cpp, so in
//     practice: include it from the .cpp or from a header only that .cpp
//     includes).
//   * Counters are thread-local: thread_heap_allocs() observes only the
//     calling thread's allocations, which is exactly the right scope for
//     per-op accounting on a worker thread (background threads — gtest,
//     TSan — never perturb the measurement).
//   * The probe counts calls to the replaceable global allocation
//     functions. The RtEnv FrameArena (env/rt_env.h) mints its slabs via
//     ::operator new, so cold-path slab creation IS counted and
//     steady-state slab reuse is NOT — allocs_per_op == 0 therefore means
//     "the arena absorbed every coroutine frame", not "nothing ever
//     allocated".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace hi::util {

namespace detail {
inline thread_local std::uint64_t t_heap_allocs = 0;
inline thread_local std::uint64_t t_heap_frees = 0;
}  // namespace detail

/// Global-new calls made by the calling thread since it started.
inline std::uint64_t thread_heap_allocs() noexcept {
  return detail::t_heap_allocs;
}
/// Global-delete calls (with a non-null pointer) made by the calling thread.
inline std::uint64_t thread_heap_frees() noexcept {
  return detail::t_heap_frees;
}

/// RAII window: allocations by THIS thread since construction.
class AllocTally {
 public:
  AllocTally() noexcept
      : allocs0_(thread_heap_allocs()), frees0_(thread_heap_frees()) {}

  std::uint64_t allocs() const noexcept {
    return thread_heap_allocs() - allocs0_;
  }
  std::uint64_t frees() const noexcept { return thread_heap_frees() - frees0_; }

 private:
  std::uint64_t allocs0_;
  std::uint64_t frees0_;
};

namespace detail {

inline void* counted_alloc(std::size_t size) noexcept {
  ++t_heap_allocs;
  return std::malloc(size != 0 ? size : 1);
}

inline void* counted_aligned_alloc(std::size_t size,
                                   std::size_t alignment) noexcept {
  ++t_heap_allocs;
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment, size != 0 ? size : alignment) != 0) {
    return nullptr;
  }
  return ptr;
}

inline void counted_free(void* ptr) noexcept {
  if (ptr != nullptr) {
    ++t_heap_frees;
    std::free(ptr);
  }
}

}  // namespace detail
}  // namespace hi::util

// ---- Replacement global allocation functions (one TU per binary!) ----

void* operator new(std::size_t size) {
  if (void* ptr = hi::util::detail::counted_alloc(size)) return ptr;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  if (void* ptr = hi::util::detail::counted_alloc(size)) return ptr;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return hi::util::detail::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return hi::util::detail::counted_alloc(size);
}
// Over-aligned forms: util::Padded cells (64-byte) inside std::vector go
// through these at object construction time.
void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* ptr = hi::util::detail::counted_aligned_alloc(
          size, static_cast<std::size_t>(alignment))) {
    return ptr;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  if (void* ptr = hi::util::detail::counted_aligned_alloc(
          size, static_cast<std::size_t>(alignment))) {
    return ptr;
  }
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return hi::util::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return hi::util::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept { hi::util::detail::counted_free(ptr); }
void operator delete[](void* ptr) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete(void* ptr, std::size_t) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  hi::util::detail::counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  hi::util::detail::counted_free(ptr);
}
