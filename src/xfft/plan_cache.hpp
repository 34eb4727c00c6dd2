// Plan cache: FFTW-style amortization of plan construction.
//
// Twiddle tables and digit-reversal permutations dominate plan setup; a
// cache keyed on (shape, direction, options) lets call sites that cannot
// hold a plan (e.g. library internals, language bindings) still reuse
// them. Plans are shared via shared_ptr.
//
// The cache is bounded: at most `capacity` entries (1-D and N-D combined,
// default kDefaultCapacity — generous for any realistic working set) are
// retained, and inserting past the bound evicts the least-recently-used
// entry. A long-running service (xserve) can therefore plan for arbitrary
// request streams without unbounded memory growth; evicted plans stay
// valid for whoever still holds their shared_ptr.
//
// The cache itself is thread-safe (a mutex guards the maps and counters),
// so planning may happen from pool workers. A Plan1D is immutable, so any
// number of threads may execute one shared instance at once (fft_cached
// does). A PlanND owns a full-size scratch buffer and still takes one
// executor at a time: concurrent N-D callers each need their own plan or
// a lock around execute().
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"

namespace xfft {

class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// `capacity` bounds the number of retained plans (>= 1).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the cached 1-D plan for (n, dir, opt), creating it on miss.
  std::shared_ptr<Plan1D<float>> plan_1d(std::size_t n, Direction dir,
                                         PlanOptions opt = {});

  /// Returns the cached N-D plan for (dims, dir, opt), creating on miss.
  std::shared_ptr<PlanND<float>> plan_nd(Dims3 dims, Direction dir,
                                         PlanND<float>::Options opt = {});

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return cache_1d_.size() + cache_nd_.size();
  }
  [[nodiscard]] std::size_t capacity() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  [[nodiscard]] std::uint64_t hits() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  [[nodiscard]] std::uint64_t evictions() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

  /// Rebounds the cache (>= 1), evicting LRU entries down to the new size.
  void set_capacity(std::size_t capacity);

  /// Drops every cached plan (outstanding shared_ptrs stay valid).
  void clear();

  /// Process-wide cache for convenience call sites.
  static PlanCache& global();

 private:
  struct Key1D {
    std::size_t n;
    Direction dir;
    unsigned max_radix;
    Scaling scaling;
    auto operator<=>(const Key1D&) const = default;
  };
  struct KeyND {
    std::size_t nx, ny, nz;
    Direction dir;
    unsigned max_radix;
    Scaling scaling;
    RotationMode rotation;
    auto operator<=>(const KeyND&) const = default;
  };
  template <typename P>
  struct Entry {
    std::shared_ptr<P> plan;
    std::uint64_t last_use = 0;  ///< recency stamp from tick_
  };

  /// Evicts least-recently-used entries (across both maps) until the
  /// combined size fits capacity_. Caller holds mu_.
  void evict_to_capacity_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<Key1D, Entry<Plan1D<float>>> cache_1d_;
  std::map<KeyND, Entry<PlanND<float>>> cache_nd_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Convenience one-call transform through the global cache.
void fft_cached(std::span<Cf> data, Direction dir);

}  // namespace xfft
