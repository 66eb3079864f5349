#ifndef SJSEL_UTIL_ALIGNED_H_
#define SJSEL_UTIL_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace sjsel {

/// Cache-line / SIMD-lane alignment used by every SoA geometry buffer.
/// 64 bytes covers one x86 cache line, twice the widest vector register
/// the batch kernels use (AVX2's 32-byte ymm).
inline constexpr std::size_t kSoaAlignment = 64;

/// Minimal C++17 allocator handing out `Alignment`-byte-aligned storage via
/// the aligned operator new. Lets `std::vector<double>` buffers start on a
/// cache-line boundary so the batch kernels can use aligned vector loads
/// and never straddle lines on the first lane.
template <typename T, std::size_t Alignment = kSoaAlignment>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T),
                "Alignment must be at least the type's natural alignment");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// A vector whose buffer starts on a 64-byte boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, kSoaAlignment>>;

}  // namespace sjsel

#endif  // SJSEL_UTIL_ALIGNED_H_
