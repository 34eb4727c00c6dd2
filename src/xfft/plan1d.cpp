#include "xfft/plan1d.hpp"

#include <algorithm>

#include "xfft/butterflies.hpp"
#include "xutil/aligned.hpp"
#include "xutil/check.hpp"
#include "xutil/units.hpp"

namespace xfft {

std::vector<unsigned> choose_radices(std::size_t n, unsigned max_radix) {
  XU_CHECK_MSG(n >= 1, "transform size must be >= 1");
  XU_CHECK_MSG(max_radix == 2 || max_radix == 4 || max_radix == 8,
               "max_radix must be 2, 4 or 8");
  std::vector<unsigned> radices;
  std::size_t rem = n;
  // Separate the power-of-two part and spend it greedily: as many stages of
  // max_radix as fit, then one stage of 4 or 2 for the remainder.
  unsigned two_exp = 0;
  while (rem % 2 == 0) {
    rem /= 2;
    ++two_exp;
  }
  const unsigned max_exp = max_radix == 8 ? 3 : (max_radix == 4 ? 2 : 1);
  while (two_exp >= max_exp) {
    radices.push_back(max_radix);
    two_exp -= max_exp;
  }
  if (two_exp == 2) {
    radices.push_back(4);
  } else if (two_exp == 1) {
    radices.push_back(2);
  }
  // Odd prime factors via trial division.
  for (std::size_t p = 3; p * p <= rem; p += 2) {
    while (rem % p == 0) {
      XU_CHECK_MSG(p <= kMaxRadix,
                   "prime factor " << p << " exceeds max supported radix");
      radices.push_back(static_cast<unsigned>(p));
      rem /= p;
    }
  }
  if (rem > 1) {
    XU_CHECK_MSG(rem <= kMaxRadix,
                 "prime factor " << rem << " exceeds max supported radix");
    radices.push_back(static_cast<unsigned>(rem));
  }
  if (radices.empty()) radices.push_back(1);  // n == 1: identity stage
  return radices;
}

template <typename T>
Plan1D<T>::Plan1D(std::size_t n, Direction dir, PlanOptions opt)
    : n_(n), dir_(dir), opt_(opt), tw_(std::max<std::size_t>(n, 1), dir) {
  XU_CHECK_MSG(n >= 1, "transform size must be >= 1");
  radices_ = choose_radices(n, opt_.max_radix);
  if (n == 1) {
    perm_ = {0};
    return;
  }
  perm_ = dif_output_permutation(radices_, n_);
  // Flop accounting: per stage of radix r there are n/r butterflies, each
  // running the r-point core plus (r-1) twiddle complex multiplies.
  for (const unsigned r : radices_) {
    const std::uint64_t butterflies = n_ / r;
    flops_ += butterflies * (small_dft_flops(r) + 6ULL * (r - 1));
  }
}

template <typename T>
void Plan1D<T>::run_stages(std::span<std::complex<T>> data,
                           const xutil::CancelToken* cancel) const {
  XU_CHECK_MSG(data.size() == n_, "buffer length " << data.size()
                                                   << " != plan size " << n_);
  if (n_ == 1) return;
  const bool inverse = dir_ == Direction::kInverse;
  std::complex<T> v[kMaxRadix];
  std::size_t block = n_;
  for (const unsigned r : radices_) {
    // Stage-granularity cancellation: a deadline aborts between butterfly
    // passes (each O(n)), leaving the buffer in a partial state the caller
    // has agreed to discard.
    if (cancel != nullptr && cancel->expired()) return;
    const std::size_t sub = block / r;
    const std::size_t tw_stride = n_ / block;
    if (r == 8) {
      // The paper's radix (Section IV-A) gets the batched inner loop:
      // constant trip counts, dispatch hoisted out of the butterfly —
      // same arithmetic, in the same order, as the generic path below.
      for (std::size_t base = 0; base < n_; base += block) {
        radix8_dif_block(data.data() + base, sub, block, tw_stride, tw_,
                         inverse);
      }
      block = sub;
      continue;
    }
    for (std::size_t base = 0; base < n_; base += block) {
      for (std::size_t j = 0; j < sub; ++j) {
        std::complex<T>* p = data.data() + base + j;
        for (unsigned t = 0; t < r; ++t) v[t] = p[t * sub];
        small_dft(v, r, inverse, tw_, n_);
        // Twiddle: X_i *= w_block^{-i*j}; i = 0 is unity and skipped.
        for (unsigned i = 1; i < r; ++i) {
          v[i] = cmul(
              v[i], tw_[(static_cast<std::size_t>(i) * j % block) * tw_stride]);
        }
        for (unsigned t = 0; t < r; ++t) p[t * sub] = v[t];
      }
    }
    block = sub;
  }
}

template <typename T>
void Plan1D<T>::apply_scaling(std::span<std::complex<T>> data) const {
  if (dir_ == Direction::kInverse && opt_.scaling == Scaling::kUnitary1OverN) {
    const T s = T(1) / static_cast<T>(n_);
    for (auto& x : data) x *= s;
  }
}

template <typename T>
void Plan1D<T>::execute(std::span<std::complex<T>> data,
                        std::span<std::complex<T>> scratch,
                        const xutil::CancelToken* cancel) const {
  XU_CHECK_MSG(n_ <= 1 || scratch.empty() || scratch.size() >= n_,
               "scratch length " << scratch.size() << " < plan size " << n_);
  run_stages(data, cancel);
  if (cancel != nullptr && cancel->expired()) return;
  if (n_ > 1) {
    xutil::AlignedVector<std::complex<T>> own;
    if (scratch.empty()) {
      own.resize(n_);
      scratch = std::span<std::complex<T>>(own.data(), n_);
    }
    for (std::size_t k = 0; k < n_; ++k) scratch[k] = data[perm_[k]];
    std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(n_),
              data.begin());
  }
  apply_scaling(data);
}

template <typename T>
void Plan1D<T>::execute_digit_reversed(std::span<std::complex<T>> data) const {
  run_stages(data);
  apply_scaling(data);
}

template <typename T>
void Plan1D<T>::execute_scatter_tile(std::span<std::complex<T>> tile,
                                     std::span<std::complex<T>> out,
                                     std::size_t offset,
                                     std::size_t stride) const {
  XU_CHECK_MSG(!tile.empty() && tile.size() % n_ == 0,
               "tile length " << tile.size()
                              << " is not a multiple of plan size " << n_);
  const std::size_t rows = tile.size() / n_;
  XU_CHECK_MSG(offset + (rows - 1) + (n_ - 1) * stride < out.size(),
               "scatter range exceeds destination buffer");
  for (std::size_t b = 0; b < rows; ++b) run_stages(tile.subspan(b * n_, n_));
  const bool scale =
      dir_ == Direction::kInverse && opt_.scaling == Scaling::kUnitary1OverN;
  const T s = scale ? T(1) / static_cast<T>(n_) : T(1);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::complex<T>* x = tile.data() + perm_[k];
    std::complex<T>* y = out.data() + offset + k * stride;
    for (std::size_t b = 0; b < rows; ++b) {
      y[b] = scale ? x[b * n_] * s : x[b * n_];
    }
  }
}

template <typename T>
void Plan1D<T>::execute_scatter_affine(std::span<std::complex<T>> row,
                                       std::span<std::complex<T>> out,
                                       std::size_t offset,
                                       std::size_t stride) const {
  XU_CHECK_MSG(row.size() == n_, "buffer length " << row.size()
                                                  << " != plan size " << n_);
  execute_scatter_tile(row, out, offset, stride);
}

template class Plan1D<float>;
template class Plan1D<double>;

}  // namespace xfft
