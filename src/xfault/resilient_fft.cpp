#include "xfault/resilient_fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xutil/check.hpp"
#include "xutil/rng.hpp"

namespace xfault {

namespace {

/// Flips one high exponent bit of a float — whichever of the two top
/// exponent bits is clear, so the upset always drives the magnitude UP (by
/// 2^128 when bit 30 is clear, 2^64 otherwise). A downward flip of a
/// modest element would change row energy by only that element's share,
/// which a row-relative checksum cannot see; upward flips are the
/// high-order-upset regime the Parseval check is guaranteed to catch.
void flip_exponent_bit(float* f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, f, sizeof(bits));
  bits ^= (bits & (1u << 30)) == 0 ? (1u << 30) : (1u << 29);
  std::memcpy(f, &bits, sizeof(bits));
}

/// Injects transient upsets into `row`; each element is hit independently
/// with probability `rate`. The stream id makes every (row, attempt) pair
/// an independent, reproducible draw — a retry reruns the computation under
/// fresh transient conditions, it does not replay the same upset.
std::uint64_t inject_soft_errors(std::span<xfft::Cf> row, double rate,
                                 std::uint64_t seed, std::uint64_t stream) {
  if (rate <= 0.0) return 0;
  xutil::Pcg32 rng(seed, stream);
  std::uint64_t flips = 0;
  for (auto& v : row) {
    if (rng.next_double() >= rate) continue;
    auto* words = reinterpret_cast<float*>(&v);
    flip_exponent_bit(&words[rng.next_u32() & 1u]);
    ++flips;
  }
  return flips;
}

}  // namespace

double parseval_energy(std::span<const xfft::Cf> data) {
  double e = 0.0;
  for (const auto& v : data) {
    e += static_cast<double>(v.real()) * v.real() +
         static_cast<double>(v.imag()) * v.imag();
  }
  return e;
}

ResilienceReport resilient_fft(std::span<xfft::Cf> data, xfft::Dims3 dims,
                               xfft::Direction dir,
                               const ResilienceOptions& opt) {
  XU_CHECK_MSG(data.size() == dims.total(),
               "buffer length " << data.size() << " != " << dims.total());
  XU_CHECK_MSG(opt.max_attempts_per_row >= 1,
               "need at least one compute attempt per row");
  ResilienceReport rep;

  // One plan per distinct axis length, unscaled (the final inverse scaling
  // is applied once at the end, as PlanND does).
  std::vector<std::unique_ptr<xfft::Plan1D<float>>> plans;
  const auto plan_for = [&](std::size_t len) -> const xfft::Plan1D<float>& {
    for (const auto& p : plans) {
      if (p->size() == len) return *p;
    }
    plans.push_back(std::make_unique<xfft::Plan1D<float>>(
        len, dir,
        xfft::PlanOptions{.max_radix = opt.max_radix,
                          .scaling = xfft::Scaling::kNone}));
    return *plans.back();
  };

  const std::size_t n = dims.total();
  std::vector<xfft::Cf> scratch(n);
  std::vector<xfft::Cf> backup;
  std::vector<xfft::Cf> row_scratch;
  xfft::Cf* src = data.data();
  xfft::Cf* dst = scratch.data();
  xfft::Dims3 cur = dims;
  const std::size_t axis_len[3] = {dims.nx, dims.ny, dims.nz};
  std::uint64_t row_counter = 0;

  for (int pass = 0; pass < 3; ++pass) {
    if (axis_len[pass] > 1) {
      const xfft::Plan1D<float>& plan = plan_for(cur.nx);
      const std::size_t rows = n / cur.nx;
      backup.resize(cur.nx);
      row_scratch.resize(cur.nx);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::span<xfft::Cf> row(src + r * cur.nx, cur.nx);
        std::copy(row.begin(), row.end(), backup.begin());
        const double e_in = parseval_energy(row);
        const double expected = e_in * static_cast<double>(cur.nx);
        ++rep.rows_computed;
        bool verified = false;
        for (unsigned attempt = 0; attempt < opt.max_attempts_per_row;
             ++attempt) {
          if (attempt > 0) {
            std::copy(backup.begin(), backup.end(), row.begin());
            ++rep.rows_recomputed;
          }
          plan.execute(row, row_scratch);
          rep.flips_injected += inject_soft_errors(
              row, opt.soft_flip_rate, opt.seed,
              row_counter * opt.max_attempts_per_row + attempt);
          const double e_out = parseval_energy(row);
          const double err = std::abs(e_out - expected);
          if (std::isfinite(e_out) &&
              err <= opt.checksum_rel_tolerance *
                         std::max(expected, 1e-30)) {
            verified = true;
            break;
          }
          ++rep.errors_detected;
        }
        if (!verified) ++rep.retries_exhausted;
        ++row_counter;
      }
    }
    xfft::rotate_axes(std::span<const xfft::Cf>(src, n),
                      std::span<xfft::Cf>(dst, n), cur);
    std::swap(src, dst);
    cur = xfft::Dims3{cur.ny, cur.nz, cur.nx};
  }
  if (src != data.data()) std::copy(src, src + n, data.data());

  if (dir == xfft::Direction::kInverse) {
    const float s = 1.0f / static_cast<float>(n);
    for (auto& v : data) v *= s;
  }
  return rep;
}

}  // namespace xfault
