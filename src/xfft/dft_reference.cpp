#include "xfft/dft_reference.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "xutil/check.hpp"

namespace xfft {

void dft_reference(std::span<const Cd> in, std::span<Cd> out, Direction dir) {
  XU_CHECK(in.size() == out.size());
  XU_CHECK_MSG(in.data() != out.data(), "dft_reference must not alias");
  const std::size_t n = in.size();
  if (n == 0) return;
  const double sign = dir == Direction::kForward ? -1.0 : 1.0;
  const double step = sign * 2.0 * std::numbers::pi / static_cast<double>(n);
  // Root j at angle step*j, indexed by k*t mod n, which keeps the angle
  // small and the oracle accurate even for large n. The index steps by k
  // and wraps at n instead of dividing.
  std::vector<Cd> root(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double a = step * static_cast<double>(j);
    root[j] = Cd{std::cos(a), std::sin(a)};
  }
  for (std::size_t k = 0; k < n; ++k) {
    Cd acc{0.0, 0.0};
    std::size_t j = 0;
    for (std::size_t t = 0; t < n; ++t) {
      acc += in[t] * root[j];
      j += k;
      if (j >= n) j -= n;
    }
    out[k] = acc;
  }
}

void dft_reference(std::span<const Cf> in, std::span<Cf> out, Direction dir) {
  std::vector<Cd> tmp_in(in.size());
  std::vector<Cd> tmp_out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    tmp_in[i] = Cd{in[i].real(), in[i].imag()};
  }
  dft_reference(std::span<const Cd>(tmp_in), std::span<Cd>(tmp_out), dir);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Cf{static_cast<float>(tmp_out[i].real()),
                static_cast<float>(tmp_out[i].imag())};
  }
}

void dft_reference_3d(std::span<const Cd> in, std::span<Cd> out, Dims3 dims,
                      Direction dir) {
  XU_CHECK(in.size() == dims.total() && out.size() == dims.total());
  std::vector<Cd> work(in.begin(), in.end());
  std::vector<Cd> row;
  std::vector<Cd> row_out;

  // Along x (contiguous rows).
  row.resize(dims.nx);
  row_out.resize(dims.nx);
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      const std::size_t base = (z * dims.ny + y) * dims.nx;
      for (std::size_t x = 0; x < dims.nx; ++x) row[x] = work[base + x];
      dft_reference(std::span<const Cd>(row), std::span<Cd>(row_out), dir);
      for (std::size_t x = 0; x < dims.nx; ++x) work[base + x] = row_out[x];
    }
  }
  // Along y (stride nx).
  if (dims.ny > 1) {
    row.resize(dims.ny);
    row_out.resize(dims.ny);
    for (std::size_t z = 0; z < dims.nz; ++z) {
      for (std::size_t x = 0; x < dims.nx; ++x) {
        for (std::size_t y = 0; y < dims.ny; ++y) {
          row[y] = work[(z * dims.ny + y) * dims.nx + x];
        }
        dft_reference(std::span<const Cd>(row), std::span<Cd>(row_out), dir);
        for (std::size_t y = 0; y < dims.ny; ++y) {
          work[(z * dims.ny + y) * dims.nx + x] = row_out[y];
        }
      }
    }
  }
  // Along z (stride nx*ny).
  if (dims.nz > 1) {
    row.resize(dims.nz);
    row_out.resize(dims.nz);
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x) {
        for (std::size_t z = 0; z < dims.nz; ++z) {
          row[z] = work[(z * dims.ny + y) * dims.nx + x];
        }
        dft_reference(std::span<const Cd>(row), std::span<Cd>(row_out), dir);
        for (std::size_t z = 0; z < dims.nz; ++z) {
          work[(z * dims.ny + y) * dims.nx + x] = row_out[z];
        }
      }
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = work[i];
}

void scale_by_1_over_n(std::span<Cd> data) {
  if (data.empty()) return;
  const double s = 1.0 / static_cast<double>(data.size());
  for (auto& v : data) v *= s;
}

void scale_by_1_over_n(std::span<Cf> data) {
  if (data.empty()) return;
  const float s = 1.0F / static_cast<float>(data.size());
  for (auto& v : data) v *= s;
}

}  // namespace xfft
