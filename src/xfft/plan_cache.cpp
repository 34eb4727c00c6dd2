#include "xfft/plan_cache.hpp"

#include <algorithm>

#include "xutil/check.hpp"

namespace xfft {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  XU_CHECK_MSG(capacity >= 1, "plan cache capacity must be >= 1");
}

std::shared_ptr<Plan1D<float>> PlanCache::plan_1d(std::size_t n,
                                                  Direction dir,
                                                  PlanOptions opt) {
  const Key1D key{n, dir, opt.max_radix, opt.scaling};
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_1d_.find(key);
  if (it != cache_1d_.end()) {
    ++hits_;
    it->second.last_use = ++tick_;
    return it->second.plan;
  }
  ++misses_;
  auto plan = std::make_shared<Plan1D<float>>(n, dir, opt);
  cache_1d_.emplace(key, Entry<Plan1D<float>>{plan, ++tick_});
  evict_to_capacity_locked();
  return plan;
}

std::shared_ptr<PlanND<float>> PlanCache::plan_nd(Dims3 dims, Direction dir,
                                                  PlanND<float>::Options opt) {
  const KeyND key{dims.nx,       dims.ny,     dims.nz,     dir,
                  opt.max_radix, opt.scaling, opt.rotation};
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_nd_.find(key);
  if (it != cache_nd_.end()) {
    ++hits_;
    it->second.last_use = ++tick_;
    return it->second.plan;
  }
  ++misses_;
  auto plan = std::make_shared<PlanND<float>>(dims, dir, opt);
  cache_nd_.emplace(key, Entry<PlanND<float>>{plan, ++tick_});
  evict_to_capacity_locked();
  return plan;
}

void PlanCache::evict_to_capacity_locked() {
  // Linear scan for the oldest stamp across both maps: capacities are small
  // (hundreds), evictions rare, and the simplicity keeps the two key types
  // out of a shared recency list.
  while (cache_1d_.size() + cache_nd_.size() > capacity_) {
    auto oldest_1d = cache_1d_.end();
    for (auto it = cache_1d_.begin(); it != cache_1d_.end(); ++it) {
      if (oldest_1d == cache_1d_.end() ||
          it->second.last_use < oldest_1d->second.last_use) {
        oldest_1d = it;
      }
    }
    auto oldest_nd = cache_nd_.end();
    for (auto it = cache_nd_.begin(); it != cache_nd_.end(); ++it) {
      if (oldest_nd == cache_nd_.end() ||
          it->second.last_use < oldest_nd->second.last_use) {
        oldest_nd = it;
      }
    }
    const bool take_1d =
        oldest_1d != cache_1d_.end() &&
        (oldest_nd == cache_nd_.end() ||
         oldest_1d->second.last_use < oldest_nd->second.last_use);
    if (take_1d) {
      cache_1d_.erase(oldest_1d);
    } else if (oldest_nd != cache_nd_.end()) {
      cache_nd_.erase(oldest_nd);
    } else {
      break;  // both empty; capacity_ >= 1 makes this unreachable
    }
    ++evictions_;
  }
}

void PlanCache::set_capacity(std::size_t capacity) {
  XU_CHECK_MSG(capacity >= 1, "plan cache capacity must be >= 1");
  const std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  evict_to_capacity_locked();
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  cache_1d_.clear();
  cache_nd_.clear();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

void fft_cached(std::span<Cf> data, Direction dir) {
  PlanCache::global().plan_1d(data.size(), dir)->execute(data);
}

}  // namespace xfft
