// Test seam: plans whose lane kernels run at the baseline 16-byte width
// (kLanes<T>) on any host, so one process can hold both widths and compare
// their bytes. Only tests include this header; the library, PlanCache among
// it, builds every plan at lane_width<T>().
#pragma once

#include <memory>

#include "xfft/butterflies.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"

namespace xfft::detail {

struct NarrowLanes {
  template <typename T>
  static Plan1D<T> plan_1d(std::size_t n, Direction dir, PlanOptions opt = {}) {
    return Plan1D<T>(n, dir, opt, kLanes<T>);
  }

  template <typename T>
  static std::unique_ptr<PlanND<T>> plan_nd(
      Dims3 dims, Direction dir, typename PlanND<T>::Options opt = {}) {
    return std::unique_ptr<PlanND<T>>(
        new PlanND<T>(dims, dir, opt, kLanes<T>));
  }
};

}  // namespace xfft::detail
