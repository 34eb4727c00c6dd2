// Cache-line / SIMD-friendly aligned storage.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace xutil {

/// Default alignment for numeric buffers: one typical cache line.
inline constexpr std::size_t kDefaultAlignment = 64;

/// Minimal allocator that over-aligns allocations to `Alignment` bytes.
/// Satisfies the C++ named requirement Allocator so it composes with
/// std::vector; used for FFT working arrays so complex data never straddles
/// cache lines unnecessarily.
template <typename T, std::size_t Alignment = kDefaultAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::size_t alignment =
      Alignment < alignof(T) ? alignof(T) : Alignment;

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    void* p = ::operator new(n * sizeof(T), std::align_val_t{alignment});
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{alignment});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector with cache-line aligned storage.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// n values of T in cache-line aligned storage that is never initialized,
/// for a buffer whose users write every element before reading it. Unlike
/// AlignedVector(n), which value-initializes, allocating one touches no
/// page: the page faults fall to the first writer.
template <typename T>
class UninitializedBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  UninitializedBuffer() = default;
  explicit UninitializedBuffer(std::size_t n)
      : data_(n == 0 ? nullptr : AlignedAllocator<T>().allocate(n)), size_(n) {}

  [[nodiscard]] T* data() const { return data_.get(); }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Free {
    void operator()(T* p) const noexcept {
      AlignedAllocator<T>().deallocate(p, 0);
    }
  };
  std::unique_ptr<T[], Free> data_;
  std::size_t size_ = 0;
};

}  // namespace xutil
