#include "xfft/plan1d.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

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

/// Inverse of load_run's shuffles: the two 16-byte halves of the L
/// complex values, interleaved back into memory order.
template <typename T, std::size_t L, std::size_t... I>
std::array<typename SplitComplex<T, L>::V, 2> interleave(
    SplitComplex<T, L> x, std::index_sequence<I...> /*lanes*/) {
  return {__builtin_shufflevector(x.re, x.im, (I / 2 + I % 2 * L)...),
          __builtin_shufflevector(x.re, x.im, (L / 2 + I / 2 + I % 2 * L)...)};
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

// ---------------------------------------------------------------------------
// Rows in lanes: the one stage kernel. A lane group is kLanes<T> rows, each
// an independent transform of the same length, in split re/im planes:
// plane element m is one SplitComplex whose lane l is row l's value m.
// Every butterfly then has the same (base, j) in all lanes, so its inputs
// are contiguous plane loads and its twiddle is one broadcast value. The
// rows are a tile's rows, or the r0 sub-transforms that a single row's
// first stage (radix r0) leaves.
// ---------------------------------------------------------------------------

template <typename T>
using Lanes = SplitComplex<T, kLanes<T>>;

/// T values per plane element: its real vector, then its imaginary vector.
template <typename T>
inline constexpr std::size_t kPlaneStride = 2 * kLanes<T>;

/// Destination line: a full tile of rows fills one.
inline constexpr std::size_t kLineBytes = xutil::kDefaultAlignment;

/// Plane element at p. The two halves move as separate 16-byte vectors:
/// one 32-byte copy of the pair made GCC route every value through the
/// stack, which cost a third of the pass at n = 256.
template <typename T>
Lanes<T> load_lanes(const T* p) {
  Lanes<T> x{};
  std::memcpy(&x.re, p, sizeof x.re);
  std::memcpy(&x.im, p + kLanes<T>, sizeof x.im);
  return x;
}

template <typename T>
void store_lanes(T* p, Lanes<T> x) {
  std::memcpy(p, &x.re, sizeof x.re);
  std::memcpy(p + kLanes<T>, &x.im, sizeof x.im);
}

/// In-register transpose of an L x L block: afterwards v[i][l] is the old
/// v[l][i]. Pure data movement, so no bit changes.
template <typename V, std::size_t L>
void transpose(V (&v)[L]) {
  if constexpr (L == 2) {
    const V a = __builtin_shufflevector(v[0], v[1], 0, 2);
    const V b = __builtin_shufflevector(v[0], v[1], 1, 3);
    v[0] = a;
    v[1] = b;
  } else {
    static_assert(L == 4);
    const V t0 = __builtin_shufflevector(v[0], v[1], 0, 4, 1, 5);
    const V t1 = __builtin_shufflevector(v[0], v[1], 2, 6, 3, 7);
    const V t2 = __builtin_shufflevector(v[2], v[3], 0, 4, 1, 5);
    const V t3 = __builtin_shufflevector(v[2], v[3], 2, 6, 3, 7);
    v[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    v[1] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    v[2] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    v[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  }
}

/// Deinterleaves `live` <= kLanes<T> rows of length n (row l at
/// rows + l*n) into one lane group's planes. Lanes from `live` on hold
/// zeros: they run the butterflies but are never stored.
template <typename T>
void to_planes(const std::complex<T>* rows, std::size_t live, std::size_t n,
               T* plane) {
  constexpr std::size_t L = kLanes<T>;
  constexpr std::size_t S = kPlaneStride<T>;
  constexpr auto lanes = std::make_index_sequence<L>{};
  std::size_t m = 0;
  if (live == L) {
    // L values of each of the L rows, transposed in registers.
    for (; m + L <= n; m += L) {
      typename Lanes<T>::V re[L] = {};
      typename Lanes<T>::V im[L] = {};
      for (std::size_t l = 0; l < L; ++l) {
        const Lanes<T> x = load_run<T, L>(rows + l * n + m, lanes);
        re[l] = x.re;
        im[l] = x.im;
      }
      transpose(re);
      transpose(im);
      for (std::size_t i = 0; i < L; ++i) {
        store_lanes(plane + (m + i) * S, Lanes<T>{re[i], im[i]});
      }
    }
  }
  for (; m < n; ++m) {
    Lanes<T> x{};
    for (std::size_t l = 0; l < live; ++l) {
      x.re[l] = rows[l * n + m].real();
      x.im[l] = rows[l * n + m].imag();
    }
    store_lanes(plane + m * S, x);
  }
}

/// Calls f(std::integral_constant<unsigned, R>) with R = r for the radices
/// with a hardcoded core (2, 4, 8), else with R = 0: the generic core.
template <typename F>
void with_radix(unsigned r, F&& f) {
  switch (r) {
    case 2:
      f(std::integral_constant<unsigned, 2>{});
      break;
    case 4:
      f(std::integral_constant<unsigned, 4>{});
      break;
    case 8:
      f(std::integral_constant<unsigned, 8>{});
      break;
    default:
      f(std::integral_constant<unsigned, 0>{});
      break;
  }
}

/// The radix-R core on v[0..R); R == 0 runs the generic core at radix r
/// through the plan's table tw. Radix 1 (the n = 1 plan) is the identity.
template <unsigned R, typename T>
void core(Lanes<T>* v, unsigned r, const TwiddleTable<T>& tw, bool inverse) {
  if constexpr (R == 2) {
    dft2(v);
  } else if constexpr (R == 4) {
    dft4(v, inverse);
  } else if constexpr (R == 8) {
    dft8(v, inverse);
  } else {
    if (r > 1) dft_generic(v, r, tw, tw.size());
  }
}

/// One DIF stage of radix R (R == 0: generic at radix r) over a lane
/// group's `len` plane elements, in blocks of `block` elements, for the
/// plan of n = tw.size() points. Each step is butterfly (base, j) of the
/// scalar stage loop in every lane: the R inputs are R plane loads, and the
/// twiddle W[i*j*(n/block)] is broadcast, W[0] = (1, 0) included.
template <unsigned R, typename T>
void plane_stage(T* plane, std::size_t len, unsigned r, std::size_t block,
                 const TwiddleTable<T>& tw, bool inverse) {
  constexpr std::size_t S = kPlaneStride<T>;
  const unsigned radix = R == 0 ? r : R;
  const std::size_t sub = block / radix;
  const std::size_t tw_stride = tw.size() / block;
  Lanes<T> v[R == 0 ? kMaxRadix : R] = {};
  for (std::size_t base = 0; base < len; base += block) {
    for (std::size_t j = 0; j < sub; ++j) {
      T* const p = plane + (base + j) * S;
      for (unsigned t = 0; t < radix; ++t) v[t] = load_lanes(p + t * sub * S);
      core<R>(v, radix, tw, inverse);
      for (unsigned i = 1; i < radix; ++i) {
        v[i] = cmul(v[i], tw[i * j * tw_stride]);
      }
      for (unsigned t = 0; t < radix; ++t) store_lanes(p + t * sub * S, v[t]);
    }
  }
}

/// The stages `radices` of an n-point plan (n = tw.size()) over one lane
/// group's `len` plane elements, len being their product, in place; output
/// in digit-reversed order. A tile row runs every stage (len = n), the
/// sub-transforms of a single row all but the first (len = n / r0).
template <typename T>
void plane_stages(T* plane, std::span<const unsigned> radices, std::size_t len,
                  const TwiddleTable<T>& tw, bool inverse) {
  std::size_t block = len;
  for (const unsigned r : radices) {
    with_radix(r, [&](auto R) {
      plane_stage<decltype(R)::value>(plane, len, r, block, tw, inverse);
    });
    block /= r;
  }
}

/// The first stage, radix R (R == 0: generic at radix r), of the n-point row
/// x (n = tw.size()), kLanes<T> consecutive butterflies j per step; the last
/// step may be partial, its idle lanes zero. Output t of butterfly j becomes
/// element j of sub-transform row t: lane t % L of plane element j in lane
/// group t / L, one group being m = n/r elements. Rows from r up to a whole
/// group hold zeros, run the later stages and are never stored.
template <unsigned R, typename T>
void first_stage(const std::complex<T>* x, unsigned r,
                 const TwiddleTable<T>& tw, bool inverse, T* planes) {
  constexpr std::size_t L = kLanes<T>;
  constexpr std::size_t S = kPlaneStride<T>;
  constexpr auto lanes = std::make_index_sequence<L>{};
  const unsigned radix = R == 0 ? r : R;
  const std::size_t m = tw.size() / radix;
  Lanes<T> v[((R == 0 ? kMaxRadix : R) + L - 1) / L * L] = {};
  for (std::size_t j0 = 0; j0 < m; j0 += L) {
    const std::size_t live = std::min(L, m - j0);
    for (unsigned t = 0; t < radix; ++t) {
      const std::complex<T>* const p = x + t * m + j0;
      if (live == L) {
        v[t] = load_run<T, L>(p, lanes);
        continue;
      }
      v[t] = Lanes<T>{};
      for (std::size_t l = 0; l < live; ++l) {
        v[t].re[l] = p[l].real();
        v[t].im[l] = p[l].imag();
      }
    }
    core<R>(v, radix, tw, inverse);
    for (unsigned i = 1; i < radix; ++i) {
      std::size_t at[L] = {};  // idle lanes read W[0]
      for (std::size_t l = 0; l < live; ++l) at[l] = i * (j0 + l);
      v[i] = cmul(v[i], gather(tw.data(), at));
    }
    // Lanes are butterflies here and rows in the planes: L x L transposes.
    for (std::size_t g = 0; g * L < radix; ++g) {
      typename Lanes<T>::V re[L] = {};
      typename Lanes<T>::V im[L] = {};
      for (std::size_t i = 0; i < L; ++i) {
        re[i] = v[g * L + i].re;
        im[i] = v[g * L + i].im;
      }
      transpose(re);
      transpose(im);
      T* const plane = planes + (g * m + j0) * S;
      for (std::size_t l = 0; l < live; ++l) {
        store_lanes(plane + l * S, Lanes<T>{re[l], im[l]});
      }
    }
  }
}

/// Stores the 16 bytes at v to p. With Stream, on x86 with SSE2, the store
/// is non-temporal: it goes to memory through a write-combining buffer and
/// does not read the line into the cache first. p must then be 16-byte
/// aligned, and since such stores are weakly ordered, a run of them ends
/// with fence_streams() before other threads may read the data. Elsewhere
/// Stream is a plain store.
template <bool Stream>
inline void store16(void* p, const void* v) {
#if defined(__SSE2__)
  if constexpr (Stream) {
    __m128i x{};
    std::memcpy(&x, v, sizeof x);
    _mm_stream_si128(static_cast<__m128i*>(p), x);
    return;
  }
#endif
  std::memcpy(p, v, 16);
}

inline void fence_streams() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

/// L2 size as sysconf reports it, or 2 MiB when it reports none. Streaming
/// pays once the destination cannot stay in the L2: below that, the lines
/// a pass writes are read again from cache by the next pass.
std::size_t l2_bytes() {
  static const std::size_t bytes = [] {
#if defined(_SC_LEVEL2_CACHE_SIZE)
    const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (v > 0) return static_cast<std::size_t>(v);
#endif
    return std::size_t{2} << 20;
  }();
  return bytes;
}

/// Writes frequency k < len of row b, for the `live` rows held in
/// consecutive lane groups of `len` elements from `planes`, to
/// y0[k*stride + b*pitch], scaled by s when `scale`. Frequency k of a row
/// sits at its digit-reversed position perm[k*perm_step].
/// At pitch 1 a full lane group is two 16-byte stores; with Stream the
/// `live` rows are a whole aligned line per k, streamed past the cache.
template <bool Stream, typename T>
void from_planes(const T* planes, std::size_t len, std::size_t live,
                 const std::uint32_t* perm, std::size_t perm_step,
                 std::complex<T>* y0, std::size_t stride, std::size_t pitch,
                 bool scale, T s) {
  constexpr std::size_t L = kLanes<T>;
  constexpr std::size_t S = kPlaneStride<T>;
  constexpr auto lanes = std::make_index_sequence<L>{};
  for (std::size_t k = 0; k < len; ++k) {
    std::complex<T>* const y = y0 + k * stride;
    const T* const x0 = planes + perm[k * perm_step] * S;
    for (std::size_t b = 0; b < live; b += L) {
      Lanes<T> x = load_lanes(x0 + b / L * len * S);
      // Lane-wise complex * real: (re*s, im*s), as std::complex does it.
      if (scale) x = {x.re * s, x.im * s};
      if (pitch == 1 && live - b >= L) {
        const auto halves = interleave(x, lanes);
        T* const q = reinterpret_cast<T*>(y + b);
        store16<Stream>(q, &halves[0]);
        store16<Stream>(q + L, &halves[1]);
      } else {
        for (std::size_t l = 0; l < L && b + l < live; ++l) {
          y[(b + l) * pitch] = {x.re[l], x.im[l]};
        }
      }
    }
  }
  if constexpr (Stream) fence_streams();
}

/// n, once known to fit the uint32_t output permutation. Checked in the
/// member-init list, so an oversized plan throws before its tables exist.
std::size_t checked_plan_size(std::size_t n) {
  XU_CHECK_MSG(n >= 1, "transform size must be >= 1");
  XU_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
               "transform size " << n
                                 << " exceeds the uint32_t output "
                                    "permutation limit of 2^32 - 1");
  return n;
}

/// The Plan1D scratch rule: the planes are `scratch`, of length >= len, or
/// when it is empty `own`, resized to len for this call.
template <typename T>
T* planes_in(std::span<std::complex<T>> scratch, std::size_t len,
             xutil::AlignedVector<std::complex<T>>& own) {
  XU_CHECK_MSG(scratch.empty() || scratch.size() >= len,
               "scratch length " << scratch.size() << " < " << len);
  if (scratch.empty()) {
    own.resize(len);
    return reinterpret_cast<T*>(own.data());
  }
  return reinterpret_cast<T*>(scratch.data());
}

}  // namespace

template <typename T>
Plan1D<T>::Plan1D(std::size_t n, Direction dir, PlanOptions opt)
    : n_(checked_plan_size(n)), dir_(dir), opt_(opt), tw_(n_, dir) {
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
std::size_t Plan1D<T>::scratch_size() const {
  constexpr std::size_t L = kLanes<T>;
  const std::size_t r0 = radices_[0];
  return (r0 + L - 1) / L * L * (n_ / r0);
}

template <typename T>
void Plan1D<T>::transform_row(const std::complex<T>* x, std::complex<T>* y,
                              std::size_t stride,
                              std::span<std::complex<T>> scratch,
                              const xutil::CancelToken* cancel) const {
  xutil::AlignedVector<std::complex<T>> own;
  T* const planes = planes_in(scratch, scratch_size(), own);
  // Cancellation: polled before each of the two steps that cost O(n log n);
  // on expiry y is left as it was.
  if (cancel != nullptr && cancel->expired()) return;
  const bool inverse = dir_ == Direction::kInverse;
  const unsigned r0 = radices_[0];
  const std::size_t m = n_ / r0;
  with_radix(r0, [&](auto R) {
    first_stage<decltype(R)::value>(x, r0, tw_, inverse, planes);
  });
  if (cancel != nullptr && cancel->expired()) return;
  const auto rest = std::span<const unsigned>(radices_).subspan(1);
  for (std::size_t g = 0; g * kLanes<T> < r0; ++g) {
    plane_stages(planes + g * m * kPlaneStride<T>, rest, m, tw_, inverse);
  }
  // X[b + r0*k] is frequency k of sub-transform b, held at element
  // perm_[r0*k] of row b, since perm_[b + r0*k] = b*m + perm_[r0*k].
  const bool scale = inverse && opt_.scaling == Scaling::kUnitary1OverN;
  const T s = scale ? T(1) / static_cast<T>(n_) : T(1);
  from_planes<false>(planes, m, r0, perm_.data(), r0, y, r0 * stride, stride,
                     scale, s);
}

template <typename T>
void Plan1D<T>::execute(std::span<std::complex<T>> data,
                        std::span<std::complex<T>> scratch,
                        const xutil::CancelToken* cancel) const {
  XU_CHECK_MSG(data.size() == n_, "buffer length " << data.size()
                                                   << " != plan size " << n_);
  transform_row(data.data(), data.data(), 1, scratch, cancel);
}

template <typename T>
void Plan1D<T>::execute_digit_reversed(std::span<std::complex<T>> data) const {
  xutil::AlignedVector<std::complex<T>> x(data.begin(), data.end());
  execute(std::span<std::complex<T>>(x));
  for (std::size_t k = 0; k < n_; ++k) data[perm_[k]] = x[k];
}

template <typename T>
void Plan1D<T>::execute_scatter_tile(std::span<const std::complex<T>> tile,
                                     std::span<std::complex<T>> out,
                                     std::size_t offset, std::size_t stride,
                                     std::span<std::complex<T>> scratch) const {
  constexpr std::size_t L = kLanes<T>;
  constexpr std::size_t B = kTileRows<T>;
  static_assert(B % L == 0, "a tile is whole lane groups");
  XU_CHECK_MSG(!tile.empty() && tile.size() % n_ == 0,
               "tile length " << tile.size()
                              << " is not a multiple of plan size " << n_);
  const std::size_t rows = tile.size() / n_;
  XU_CHECK_MSG(offset + (rows - 1) + (n_ - 1) * stride < out.size(),
               "scatter range exceeds destination buffer");
  // Planes for at most one tile of rows, rounded up to whole lane groups.
  xutil::AlignedVector<std::complex<T>> own;
  T* const planes =
      planes_in(scratch, n_ * std::min(B, (rows + L - 1) / L * L), own);
  const bool inverse = dir_ == Direction::kInverse;
  const bool scale = inverse && opt_.scaling == Scaling::kUnitary1OverN;
  const T s = scale ? T(1) / static_cast<T>(n_) : T(1);
  // Stream whole lines (every k's line aligned) into a destination the L2
  // cannot hold; smaller ones stay cached for the next pass.
  const bool big = out.size() * sizeof(std::complex<T>) > l2_bytes() &&
                   stride * sizeof(std::complex<T>) % kLineBytes == 0;
  for (std::size_t b0 = 0; b0 < rows; b0 += B) {
    const std::size_t live = std::min(B, rows - b0);
    for (std::size_t b = 0; b < live; b += L) {
      T* const plane = planes + b / L * n_ * kPlaneStride<T>;
      to_planes(tile.data() + (b0 + b) * n_, std::min(L, live - b), n_, plane);
      plane_stages(plane, std::span<const unsigned>(radices_), n_, tw_,
                   inverse);
    }
    std::complex<T>* const y0 = out.data() + offset + b0;
    if (big && live == B &&
        reinterpret_cast<std::uintptr_t>(y0) % kLineBytes == 0) {
      from_planes<true>(planes, n_, live, perm_.data(), 1, y0, stride, 1,
                        scale, s);
    } else {
      from_planes<false>(planes, n_, live, perm_.data(), 1, y0, stride, 1,
                         scale, s);
    }
  }
}

template <typename T>
void Plan1D<T>::execute_scatter_affine(std::span<const std::complex<T>> row,
                                       std::span<std::complex<T>> out,
                                       std::size_t offset,
                                       std::size_t stride) const {
  XU_CHECK_MSG(row.size() == n_, "buffer length " << row.size()
                                                  << " != plan size " << n_);
  XU_CHECK_MSG(offset + (n_ - 1) * stride < out.size(),
               "scatter range exceeds destination buffer");
  transform_row(row.data(), out.data() + offset, stride, {}, nullptr);
}

template class Plan1D<float>;
template class Plan1D<double>;

}  // namespace xfft
