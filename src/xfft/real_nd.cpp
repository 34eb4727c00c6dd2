#include "xfft/real_nd.hpp"

#include "xfft/plan1d.hpp"
#include "xfft/real.hpp"
#include "xutil/check.hpp"

namespace xfft {
namespace {

/// Transforms in place every line of `len` points at `stride` in `data`,
/// one Plan1D call per line: the lines start at g * len * stride + j for
/// j < stride, g outer. Along y (stride bx) that is one block per z plane;
/// along z (stride bx * ny) one block spans the volume. A length below 2
/// is the identity and is skipped.
void strided_lines(std::span<Cf> data, std::size_t len, std::size_t stride,
                   Direction dir, Scaling scaling) {
  if (len < 2) return;
  Plan1D<float> plan(len, dir, PlanOptions{.scaling = scaling});
  std::vector<Cf> line(len);
  std::vector<Cf> scratch(plan.scratch_size());
  for (std::size_t g = 0; g < data.size(); g += len * stride) {
    for (std::size_t j = 0; j < stride; ++j) {
      Cf* p = data.data() + g + j;
      for (std::size_t i = 0; i < len; ++i) line[i] = p[i * stride];
      plan.execute(std::span<Cf>(line), scratch);
      for (std::size_t i = 0; i < len; ++i) p[i * stride] = line[i];
    }
  }
}

}  // namespace

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
  strided_lines(out, dims.ny, bx, Direction::kForward, Scaling::kNone);
  // 3. Complex FFT along z (stride bx*ny).
  strided_lines(out, dims.nz, bx * dims.ny, Direction::kForward,
                Scaling::kNone);
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
  strided_lines(work, dims.nz, bx * dims.ny, Direction::kInverse,
                Scaling::kUnitary1OverN);
  // Reverse step 2: inverse FFT along y (1/ny scaling).
  strided_lines(work, dims.ny, bx, Direction::kInverse,
                Scaling::kUnitary1OverN);
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
