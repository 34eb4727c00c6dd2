#include "xfft/plan1d.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

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

namespace {

/// Reads the L consecutive complex values at p into split lanes. A
/// std::complex<T> is stored as T[2] ([complex.numbers]/4), so the run is
/// 2L values of T: two vectors, deinterleaved into real and imaginary parts.
template <typename T, std::size_t L, std::size_t... I>
SplitComplex<T, L> load_run(const std::complex<T>* p,
                            std::index_sequence<I...> /*lanes*/) {
  using V = typename SplitComplex<T, L>::V;
  V lo{};
  V hi{};
  const T* q = reinterpret_cast<const T*>(p);
  std::memcpy(&lo, q, sizeof lo);
  std::memcpy(&hi, q + L, sizeof hi);
  return {__builtin_shufflevector(lo, hi, (2 * I)...),
          __builtin_shufflevector(lo, hi, (2 * I + 1)...)};
}

/// Inverse of load_run: interleaves the lanes back into L complex values.
template <typename T, std::size_t L, std::size_t... I>
void store_run(std::complex<T>* p, SplitComplex<T, L> x,
               std::index_sequence<I...> /*lanes*/) {
  using V = typename SplitComplex<T, L>::V;
  const V lo = __builtin_shufflevector(x.re, x.im, (I / 2 + I % 2 * L)...);
  const V hi =
      __builtin_shufflevector(x.re, x.im, (L / 2 + I / 2 + I % 2 * L)...);
  T* q = reinterpret_cast<T*>(p);
  std::memcpy(q, &lo, sizeof lo);
  std::memcpy(q + L, &hi, sizeof hi);
}

/// Lane l holds p[at[l]].
template <typename T, std::size_t L>
SplitComplex<T, L> gather(const std::complex<T>* p,
                          const std::size_t (&at)[L]) {
  SplitComplex<T, L> x{};
  for (std::size_t l = 0; l < L; ++l) {
    x.re[l] = p[at[l]].real();
    x.im[l] = p[at[l]].imag();
  }
  return x;
}

/// Lane l of x goes to p[at[l]].
template <typename T, std::size_t L>
void scatter(std::complex<T>* p, const std::size_t (&at)[L],
             SplitComplex<T, L> x) {
  for (std::size_t l = 0; l < L; ++l) p[at[l]] = {x.re[l], x.im[l]};
}

/// Radix-R stage geometry. Butterfly (base, j), for each block start `base`
/// and j < sub, reads x[base + j + t*sub] for t < R, runs the R-point core,
/// multiplies output i (1 <= i < R) by W[i*j*tw_stride] and writes back in
/// place. i*j < block, so the table index needs no reduction.
template <unsigned R, typename T>
struct LaneStage {
  std::complex<T>* x;
  std::size_t block;
  std::size_t sub;
  const std::complex<T>* tw;
  std::size_t tw_stride;
  bool inverse;

  /// Core and twiddles for the L butterflies whose twiddle columns are
  /// j[0..L): the scalar butterfly's operations, in its order, per lane.
  template <std::size_t L>
  void butterflies(SplitComplex<T, L> (&v)[R],
                   const std::size_t (&j)[L]) const {
    if constexpr (R == 2) {
      dft2(v);
    } else if constexpr (R == 4) {
      dft4(v, inverse);
    } else {
      dft8(v, inverse);
    }
    for (unsigned i = 1; i < R; ++i) {
      std::size_t at[L] = {};
      for (std::size_t l = 0; l < L; ++l) at[l] = i * j[l] * tw_stride;
      v[i] = cmul(v[i], gather(tw, at));
    }
  }

  /// L butterflies at consecutive j of one block: contiguous lane loads.
  void run_consecutive(std::size_t base, std::size_t j0) const {
    constexpr std::size_t L = kLanes<T>;
    constexpr auto lanes = std::make_index_sequence<L>{};
    std::complex<T>* const p = x + base + j0;
    SplitComplex<T, L> v[R] = {};
    for (unsigned t = 0; t < R; ++t) v[t] = load_run<T, L>(p + t * sub, lanes);
    std::size_t j[L] = {};
    for (std::size_t l = 0; l < L; ++l) j[l] = j0 + l;
    butterflies(v, j);
    for (unsigned t = 0; t < R; ++t) store_run(p + t * sub, v[t], lanes);
  }

  /// The next L butterflies in (base, j) order, which may span blocks. The
  /// cursor steps per lane and wraps at sub instead of dividing.
  template <std::size_t L>
  void run_spanning(std::size_t& base, std::size_t& j_next) const {
    std::size_t at[L] = {};
    std::size_t j[L] = {};
    for (std::size_t l = 0; l < L; ++l) {
      at[l] = base + j_next;
      j[l] = j_next;
      if (++j_next == sub) {
        j_next = 0;
        base += block;
      }
    }
    SplitComplex<T, L> v[R] = {};
    for (unsigned t = 0; t < R; ++t) v[t] = gather(x + t * sub, at);
    butterflies(v, j);
    for (unsigned t = 0; t < R; ++t) scatter(x + t * sub, at, v[t]);
  }

  /// All n/R butterflies of the stage, kLanes<T> per step. When sub is a
  /// multiple of the lane count the lanes are consecutive j; otherwise
  /// (e.g. the last stage, sub = 1) they span blocks, and a remainder of
  /// fewer than kLanes<T> butterflies runs one lane per step.
  void run(std::size_t n) const {
    constexpr std::size_t L = kLanes<T>;
    if (sub % L == 0) {
      for (std::size_t base = 0; base < n; base += block) {
        for (std::size_t j = 0; j < sub; j += L) run_consecutive(base, j);
      }
      return;
    }
    std::size_t base = 0;
    std::size_t j = 0;
    std::size_t left = n / R;
    for (; left >= L; left -= L) run_spanning<L>(base, j);
    for (; left > 0; --left) run_spanning<1>(base, j);
  }
};

}  // namespace

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
    if (r == 2 || r == 4 || r == 8) {
      // Every stage of a power-of-two size: kLanes<T> butterflies per step,
      // each with the arithmetic of the loop below, in its order.
      std::complex<T>* const x = data.data();
      const std::complex<T>* const tw = tw_.data();
      if (r == 2) {
        LaneStage<2, T>{x, block, sub, tw, tw_stride, inverse}.run(n_);
      } else if (r == 4) {
        LaneStage<4, T>{x, block, sub, tw, tw_stride, inverse}.run(n_);
      } else {
        LaneStage<8, T>{x, block, sub, tw, tw_stride, inverse}.run(n_);
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
          v[i] = cmul(v[i], tw_[static_cast<std::size_t>(i) * j * tw_stride]);
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
