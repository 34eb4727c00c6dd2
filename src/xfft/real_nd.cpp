#include "xfft/real_nd.hpp"

#include "xfft/plan1d.hpp"
#include "xfft/real.hpp"
#include "xutil/check.hpp"

namespace xfft {

void rfftnd_forward(std::span<const float> in, std::span<Cf> out,
                    Dims3 dims) {
  XU_CHECK(in.size() == dims.total());
  XU_CHECK(out.size() == r2c_bins(dims));
  XU_CHECK_MSG(dims.nx >= 2 && dims.nx % 2 == 0,
               "r2c needs an even x dimension >= 2");
  const std::size_t bx = dims.nx / 2 + 1;

  // 1. Real FFT along x for every (y, z) row.
  {
    std::vector<Cf> bins(bx);
    for (std::size_t row = 0; row < dims.ny * dims.nz; ++row) {
      rfft_forward(in.subspan(row * dims.nx, dims.nx),
                   std::span<Cf>(bins));
      for (std::size_t k = 0; k < bx; ++k) out[row * bx + k] = bins[k];
    }
  }
  // 2. Complex FFT along y (stride bx) for every (x-bin, z).
  if (dims.ny > 1) {
    Plan1D<float> plan(dims.ny, Direction::kForward,
                       PlanOptions{.scaling = Scaling::kNone});
    std::vector<Cf> line(dims.ny);
    std::vector<Cf> scratch(dims.ny);
    for (std::size_t z = 0; z < dims.nz; ++z) {
      for (std::size_t k = 0; k < bx; ++k) {
        Cf* p = out.data() + z * dims.ny * bx + k;
        for (std::size_t y = 0; y < dims.ny; ++y) line[y] = p[y * bx];
        plan.execute(std::span<Cf>(line), scratch);
        for (std::size_t y = 0; y < dims.ny; ++y) p[y * bx] = line[y];
      }
    }
  }
  // 3. Complex FFT along z (stride bx*ny).
  if (dims.nz > 1) {
    Plan1D<float> plan(dims.nz, Direction::kForward,
                       PlanOptions{.scaling = Scaling::kNone});
    std::vector<Cf> line(dims.nz);
    std::vector<Cf> scratch(dims.nz);
    const std::size_t plane = bx * dims.ny;
    for (std::size_t yk = 0; yk < plane; ++yk) {
      Cf* p = out.data() + yk;
      for (std::size_t z = 0; z < dims.nz; ++z) line[z] = p[z * plane];
      plan.execute(std::span<Cf>(line), scratch);
      for (std::size_t z = 0; z < dims.nz; ++z) p[z * plane] = line[z];
    }
  }
}

void rfftnd_inverse(std::span<const Cf> in, std::span<float> out,
                    Dims3 dims) {
  XU_CHECK(out.size() == dims.total());
  XU_CHECK(in.size() == r2c_bins(dims));
  XU_CHECK_MSG(dims.nx >= 2 && dims.nx % 2 == 0,
               "r2c needs an even x dimension >= 2");
  const std::size_t bx = dims.nx / 2 + 1;
  std::vector<Cf> work(in.begin(), in.end());

  // Reverse step 3: inverse FFT along z (1/nz scaling).
  if (dims.nz > 1) {
    Plan1D<float> plan(dims.nz, Direction::kInverse,
                       PlanOptions{.scaling = Scaling::kUnitary1OverN});
    std::vector<Cf> line(dims.nz);
    std::vector<Cf> scratch(dims.nz);
    const std::size_t plane = bx * dims.ny;
    for (std::size_t yk = 0; yk < plane; ++yk) {
      Cf* p = work.data() + yk;
      for (std::size_t z = 0; z < dims.nz; ++z) line[z] = p[z * plane];
      plan.execute(std::span<Cf>(line), scratch);
      for (std::size_t z = 0; z < dims.nz; ++z) p[z * plane] = line[z];
    }
  }
  // Reverse step 2: inverse FFT along y (1/ny scaling).
  if (dims.ny > 1) {
    Plan1D<float> plan(dims.ny, Direction::kInverse,
                       PlanOptions{.scaling = Scaling::kUnitary1OverN});
    std::vector<Cf> line(dims.ny);
    std::vector<Cf> scratch(dims.ny);
    for (std::size_t z = 0; z < dims.nz; ++z) {
      for (std::size_t k = 0; k < bx; ++k) {
        Cf* p = work.data() + z * dims.ny * bx + k;
        for (std::size_t y = 0; y < dims.ny; ++y) line[y] = p[y * bx];
        plan.execute(std::span<Cf>(line), scratch);
        for (std::size_t y = 0; y < dims.ny; ++y) p[y * bx] = line[y];
      }
    }
  }
  // Reverse step 1: inverse real FFT along x (1/nx scaling inside).
  {
    std::vector<Cf> bins(bx);
    for (std::size_t row = 0; row < dims.ny * dims.nz; ++row) {
      for (std::size_t k = 0; k < bx; ++k) bins[k] = work[row * bx + k];
      rfft_inverse(bins, out.subspan(row * dims.nx, dims.nx));
    }
  }
}

}  // namespace xfft
