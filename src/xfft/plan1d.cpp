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
// The wide kernels need a compiler that can build one function for AVX2
// inside a baseline translation unit and ask the CPU at run time: GCC or
// Clang (which defines __GNUC__ too) on x86.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define XFFT_AVX2_DISPATCH 1
#include <immintrin.h>
#else
#define XFFT_AVX2_DISPATCH 0
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

// ---------------------------------------------------------------------------
// Lane width. Every kernel below is a template on its lane count L. The
// baseline build runs L = kLanes<T> (16-byte vectors). On an x86 CPU that
// reports AVX2 it runs L = kWideLanes<T> (32-byte vectors), compiled for
// AVX2 inside run_avx2 only; each lane does the scalar butterfly's
// operations in its order at either width, so the bytes are the same.
// ---------------------------------------------------------------------------

/// Lanes of one 32-byte vector of T (8 float, 4 double): one lane group is
/// one kTileRows<T> tile, which fills one destination line per frequency.
template <typename T>
inline constexpr std::size_t kWideLanes = 32 / sizeof(T);

static_assert(kWideLanes<float> == kTileRows<float> &&
              kWideLanes<double> == kTileRows<double>);

/// True when this process runs the wide kernels. Asked once: the CPU's
/// answer cannot change while the process runs.
bool host_has_avx2() {
#if XFFT_AVX2_DISPATCH
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

#if XFFT_AVX2_DISPATCH
/// Calls f() compiled for AVX2. `flatten` inlines f's whole call tree here,
/// so the wide kernels exist as AVX2 code in this function and nowhere
/// else, and no baseline caller can reach an AVX2 instruction. The target
/// is "avx2" alone, never "fma": with -ffp-contract=off no multiply and add
/// can fuse, so every lane rounds as the scalar butterfly does.
template <typename F>
[[gnu::target("avx2"), gnu::flatten]] void run_avx2(const F& f) {
  f();
}

/// Streams the 32 bytes at v to p (32-byte aligned). Only wide kernels
/// call it, and only inside run_avx2, where it is inlined.
[[gnu::target("avx2")]] inline void stream32(void* p, const void* v) {
  __m256i x{};
  std::memcpy(&x, v, sizeof x);
  _mm256_stream_si256(static_cast<__m256i*>(p), x);
}
#endif

/// Calls f(std::integral_constant<std::size_t, L>{}) at a plan's width
/// `lanes`: L = kWideLanes<T> through run_avx2, otherwise L = kLanes<T>.
template <typename T, typename F>
void at_width([[maybe_unused]] std::size_t lanes, const F& f) {
#if XFFT_AVX2_DISPATCH
  if (lanes == kWideLanes<T>) {
    run_avx2([&] { f(std::integral_constant<std::size_t, kWideLanes<T>>{}); });
    return;
  }
#endif
  f(std::integral_constant<std::size_t, kLanes<T>>{});
}

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

/// Interleaves a and b lane by lane: lo = (a0, b0, a1, b1, ...) from their
/// lower halves, hi the same from their upper halves. The outputs may be
/// the inputs. Vectors pass by reference: a 32-byte vector passed or
/// returned by value in a baseline function changes the ABI.
template <typename V, std::size_t... I>
void zip(const V& a, const V& b, V& lo, V& hi,
         std::index_sequence<I...> /*lanes*/) {
  constexpr std::size_t L = sizeof...(I);
  const V l = __builtin_shufflevector(a, b, (I / 2 + I % 2 * L)...);
  const V h = __builtin_shufflevector(a, b, (L / 2 + I / 2 + I % 2 * L)...);
  lo = l;
  hi = h;
}

// ---------------------------------------------------------------------------
// Rows in lanes: the one stage kernel. A lane group is L rows, each an
// independent transform of the same length, in split re/im planes: plane
// element m is one SplitComplex whose lane l is row l's value m. Every
// butterfly then has the same (base, j) in all lanes, so its inputs are
// contiguous plane loads and its twiddle is one broadcast value. The rows
// are a tile's rows, or the r0 sub-transforms that a single row's first
// stage (radix r0) leaves.
// ---------------------------------------------------------------------------

template <typename T, std::size_t L>
using Lanes = SplitComplex<T, L>;

/// Destination line: a full tile of rows fills one.
inline constexpr std::size_t kLineBytes = xutil::kDefaultAlignment;

/// Plane element at p: L real parts, then L imaginary parts, 2L values of
/// T. The two halves move as separate vectors: one copy of the pair made
/// GCC route every value through the stack, which cost a third of the pass
/// at n = 256.
template <std::size_t L, typename T>
Lanes<T, L> load_lanes(const T* p) {
  Lanes<T, L> x{};
  std::memcpy(&x.re, p, sizeof x.re);
  std::memcpy(&x.im, p + L, sizeof x.im);
  return x;
}

template <std::size_t L, typename T>
void store_lanes(T* p, const Lanes<T, L>& x) {
  std::memcpy(p, &x.re, sizeof x.re);
  std::memcpy(p + L, &x.im, sizeof x.im);
}

/// One round of transpose(): v[2i] and v[2i + 1] zip the old v[i] and
/// v[i + L/2], for every i < L/2.
template <typename V, std::size_t L, std::size_t... I>
void zip_round(V (&v)[L], std::index_sequence<I...> /*pairs*/) {
  const std::array<V, L> u = std::to_array(v);
  (zip(u[I], u[I + L / 2], v[2 * I], v[2 * I + 1],
       std::make_index_sequence<L>{}),
   ...);
}

/// In-register transpose of an L x L block: afterwards v[i][l] is the old
/// v[l][i]. log2(L) rounds of pairwise zips; each round moves one bit of a
/// value's lane index into its vector index. Pure data movement, so no bit
/// changes.
template <std::size_t Round = 1, typename V, std::size_t L>
void transpose(V (&v)[L]) {
  static_assert((L & (L - 1)) == 0, "L is a power of two");
  if constexpr (Round < L) {
    zip_round(v, std::make_index_sequence<L / 2>{});
    transpose<2 * Round>(v);
  }
}

/// Deinterleaves `live` <= L rows of length n (row l at rows + l*n) into
/// one lane group's planes. Lanes from `live` on hold zeros: they run the
/// butterflies but are never stored.
template <std::size_t L, typename T>
void to_planes(const std::complex<T>* rows, std::size_t live, std::size_t n,
               T* plane) {
  constexpr std::size_t S = 2 * L;
  constexpr auto lanes = std::make_index_sequence<L>{};
  std::size_t m = 0;
  if (live == L) {
    // L values of each of the L rows, transposed in registers.
    for (; m + L <= n; m += L) {
      typename Lanes<T, L>::V re[L] = {};
      typename Lanes<T, L>::V im[L] = {};
      for (std::size_t l = 0; l < L; ++l) {
        const Lanes<T, L> x = load_run<T, L>(rows + l * n + m, lanes);
        re[l] = x.re;
        im[l] = x.im;
      }
      transpose(re);
      transpose(im);
      for (std::size_t i = 0; i < L; ++i) {
        store_lanes<L>(plane + (m + i) * S, Lanes<T, L>{re[i], im[i]});
      }
    }
  }
  for (; m < n; ++m) {
    Lanes<T, L> x{};
    for (std::size_t l = 0; l < live; ++l) {
      x.re[l] = rows[l * n + m].real();
      x.im[l] = rows[l * n + m].imag();
    }
    store_lanes<L>(plane + m * S, x);
  }
}

/// Calls f(std::integral_constant<unsigned, R>) with R = r for the radices
/// with a fixed core (2, 3, 4, 5, 8), else with R = 0: the generic core.
template <typename F>
void with_radix(unsigned r, F&& f) {
  switch (r) {
    case 2:
      f(std::integral_constant<unsigned, 2>{});
      break;
    case 3:
      f(std::integral_constant<unsigned, 3>{});
      break;
    case 4:
      f(std::integral_constant<unsigned, 4>{});
      break;
    case 5:
      f(std::integral_constant<unsigned, 5>{});
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
template <unsigned R, typename C>
void core(C* v, unsigned r, const TwiddleTable<typename C::value_type>& tw,
          bool inverse) {
  if constexpr (R == 2) {
    dft2(v);
  } else if constexpr (R == 3) {
    dft3(v, inverse);
  } else if constexpr (R == 4) {
    dft4(v, inverse);
  } else if constexpr (R == 5) {
    dft5(v, inverse);
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
template <unsigned R, std::size_t L, typename T>
void plane_stage(T* plane, std::size_t len, unsigned r, std::size_t block,
                 const TwiddleTable<T>& tw, bool inverse) {
  constexpr std::size_t S = 2 * L;
  const unsigned radix = R == 0 ? r : R;
  const std::size_t sub = block / radix;
  const std::size_t tw_stride = tw.size() / block;
  Lanes<T, L> v[R == 0 ? kMaxRadix : R] = {};
  for (std::size_t base = 0; base < len; base += block) {
    for (std::size_t j = 0; j < sub; ++j) {
      T* const p = plane + (base + j) * S;
      for (unsigned t = 0; t < radix; ++t) {
        v[t] = load_lanes<L>(p + t * sub * S);
      }
      core<R>(v, radix, tw, inverse);
      for (unsigned i = 1; i < radix; ++i) {
        v[i] = cmul(v[i], tw[i * j * tw_stride]);
      }
      for (unsigned t = 0; t < radix; ++t) {
        store_lanes<L>(p + t * sub * S, v[t]);
      }
    }
  }
}

/// The stages `radices` of an n-point plan (n = tw.size()) over one lane
/// group's `len` plane elements, len being their product, in place; output
/// in digit-reversed order. A tile row runs every stage (len = n), the
/// sub-transforms of a single row all but the first (len = n / r0).
template <std::size_t L, typename T>
void plane_stages(T* plane, std::span<const unsigned> radices, std::size_t len,
                  const TwiddleTable<T>& tw, bool inverse) {
  std::size_t block = len;
  for (const unsigned r : radices) {
    with_radix(r, [&](auto R) {
      plane_stage<decltype(R)::value, L>(plane, len, r, block, tw, inverse);
    });
    block /= r;
  }
}

/// The first stage's twiddles W[i*j] in the lanes first_stage() multiplies
/// them in: per step of L butterflies j, for i = 1..r-1, one plane element
/// (L real parts, then L imaginary parts) with W[i*j] in lane j % L. Lanes
/// past the last butterfly hold W[0]. Copies of the table's values, so the
/// products keep their bits.
template <typename T>
xutil::AlignedVector<T> first_stage_twiddles(const TwiddleTable<T>& tw,
                                             unsigned r, std::size_t lanes) {
  const std::size_t m = tw.size() / r;
  const std::size_t steps = (m + lanes - 1) / lanes;
  xutil::AlignedVector<T> out(steps * (r - 1) * 2 * lanes);
  T* p = out.data();
  for (std::size_t step = 0; step < steps; ++step) {
    for (unsigned i = 1; i < r; ++i, p += 2 * lanes) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t j = step * lanes + l;
        const std::complex<T> w = tw[j < m ? i * j : 0];
        p[l] = w.real();
        p[lanes + l] = w.imag();
      }
    }
  }
  return out;
}

/// The first stage, radix R (R == 0: generic at radix r), of the n-point row
/// x (n = tw.size()), L consecutive butterflies j per step; the last step
/// may be partial, its idle lanes zero. Twiddles come from `ftw`, laid out
/// by first_stage_twiddles() at L lanes. Output t of butterfly j becomes
/// element j of sub-transform row t: lane t % L of plane element j in lane
/// group t / L, one group being m = n/r elements. Rows from r up to a whole
/// group hold zeros, run the later stages and are never stored.
template <unsigned R, std::size_t L, typename T>
void first_stage(const std::complex<T>* x, unsigned r,
                 const TwiddleTable<T>& tw, const T* ftw, bool inverse,
                 T* planes) {
  constexpr std::size_t S = 2 * L;
  constexpr auto lanes = std::make_index_sequence<L>{};
  const unsigned radix = R == 0 ? r : R;
  const std::size_t m = tw.size() / radix;
  Lanes<T, L> v[((R == 0 ? kMaxRadix : R) + L - 1) / L * L] = {};
  for (std::size_t j0 = 0; j0 < m; j0 += L) {
    const std::size_t live = std::min(L, m - j0);
    for (unsigned t = 0; t < radix; ++t) {
      const std::complex<T>* const p = x + t * m + j0;
      if (live == L) {
        v[t] = load_run<T, L>(p, lanes);
        continue;
      }
      v[t] = Lanes<T, L>{};
      for (std::size_t l = 0; l < live; ++l) {
        v[t].re[l] = p[l].real();
        v[t].im[l] = p[l].imag();
      }
    }
    core<R>(v, radix, tw, inverse);
    const T* const w = ftw + j0 / L * (radix - 1) * S;
    for (unsigned i = 1; i < radix; ++i) {
      v[i] = cmul(v[i], load_lanes<L>(w + (i - 1) * S));
    }
    // Lanes are butterflies here and rows in the planes: L x L transposes.
    for (std::size_t g = 0; g * L < radix; ++g) {
      typename Lanes<T, L>::V re[L] = {};
      typename Lanes<T, L>::V im[L] = {};
      for (std::size_t i = 0; i < L; ++i) {
        re[i] = v[g * L + i].re;
        im[i] = v[g * L + i].im;
      }
      transpose(re);
      transpose(im);
      T* const plane = planes + (g * m + j0) * S;
      for (std::size_t l = 0; l < live; ++l) {
        store_lanes<L>(plane + l * S, Lanes<T, L>{re[l], im[l]});
      }
    }
  }
}

/// Stores the vector v (16 or 32 bytes) to p. With Stream, on x86, the
/// store is non-temporal: it goes to memory through a write-combining
/// buffer and does not read the line into the cache first. p must then be
/// aligned to the vector's size, and since such stores are weakly ordered,
/// a run of them ends with fence_streams() before other threads may read
/// the data. Elsewhere Stream is a plain store.
template <bool Stream, typename V>
inline void store_vec(void* p, const V& v) {
#if defined(__SSE2__)
  if constexpr (Stream && sizeof(V) == 16) {
    __m128i x{};
    std::memcpy(&x, &v, sizeof x);
    _mm_stream_si128(static_cast<__m128i*>(p), x);
    return;
  }
#endif
#if XFFT_AVX2_DISPATCH
  if constexpr (Stream && sizeof(V) == 32) {
    stream32(p, &v);
    return;
  }
#endif
  std::memcpy(p, &v, sizeof v);
}

inline void fence_streams() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

/// Destination size above which the fused scatter streams: four times the
/// L2 size sysconf reports, or 8 MiB when it reports none. Below it, the
/// lines a pass writes are read again from cache by the next pass. The
/// factor is measured, not derived: on a 2 MiB-L2 Xeon with a large shared
/// L3, plain stores win at 8 MiB and streaming from 16 MiB, at either lane
/// width (EXPERIMENTS.md). The L2 alone streamed one size too early.
std::size_t stream_bytes() {
  static const std::size_t bytes = [] {
    std::size_t l2 = std::size_t{2} << 20;
#if defined(_SC_LEVEL2_CACHE_SIZE)
    const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (v > 0) l2 = static_cast<std::size_t>(v);
#endif
    return 4 * l2;
  }();
  return bytes;
}

/// Writes frequency k < len of row b, for the `live` rows held in
/// consecutive lane groups of `len` elements from `planes`, to
/// y0[k*stride + b*pitch], scaled by s when `scale`. Frequency k of a row
/// sits at its digit-reversed position perm[k*perm_step].
/// At pitch 1 a full lane group is two vector stores; with Stream the
/// `live` rows are a whole aligned line per k, streamed past the cache.
template <bool Stream, std::size_t L, typename T>
void from_planes(const T* planes, std::size_t len, std::size_t live,
                 const std::uint32_t* perm, std::size_t perm_step,
                 std::complex<T>* y0, std::size_t stride, std::size_t pitch,
                 bool scale, T s) {
  constexpr std::size_t S = 2 * L;
  constexpr auto lanes = std::make_index_sequence<L>{};
  for (std::size_t k = 0; k < len; ++k) {
    std::complex<T>* const y = y0 + k * stride;
    const T* const x0 = planes + perm[k * perm_step] * S;
    for (std::size_t b = 0; b < live; b += L) {
      Lanes<T, L> x = load_lanes<L>(x0 + b / L * len * S);
      if (scale) x = rmul(x, s);
      if (pitch == 1 && live - b >= L) {
        typename Lanes<T, L>::V halves[2];
        zip(x.re, x.im, halves[0], halves[1], lanes);
        T* const q = reinterpret_cast<T*>(y + b);
        store_vec<Stream>(q, halves[0]);
        store_vec<Stream>(q + L, halves[1]);
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
LaneWidth lane_width() {
  if (host_has_avx2()) return {kWideLanes<T>, "avx2"};
  return {kLanes<T>, "baseline"};
}

template LaneWidth lane_width<float>();
template LaneWidth lane_width<double>();

template <typename T>
Plan1D<T>::Plan1D(std::size_t n, Direction dir, PlanOptions opt)
    : Plan1D(n, dir, opt, lane_width<T>().lanes) {}

template <typename T>
Plan1D<T>::Plan1D(std::size_t n, Direction dir, PlanOptions opt,
                  std::size_t lanes)
    : n_(checked_plan_size(n)),
      dir_(dir),
      opt_(opt),
      lanes_(lanes),
      tw_(n_, dir) {
  XU_CHECK_MSG(lanes == kLanes<T> || lanes == lane_width<T>().lanes,
               "lane count " << lanes << " is not a width this host runs");
  radices_ = choose_radices(n, opt_.max_radix);
  if (n == 1) {
    perm_ = {0};
    return;
  }
  perm_ = dif_output_permutation(radices_, n_);
  first_tw_ = first_stage_twiddles(tw_, radices_[0], lanes_);
  // Flop accounting: per stage of radix r there are n/r butterflies, each
  // running the r-point core plus (r-1) twiddle complex multiplies.
  for (const unsigned r : radices_) {
    const std::uint64_t butterflies = n_ / r;
    flops_ += butterflies * (small_dft_flops(r) + 6ULL * (r - 1));
  }
}

template <typename T>
std::size_t Plan1D<T>::scratch_size() const {
  const std::size_t r0 = radices_[0];
  return (r0 + lanes_ - 1) / lanes_ * lanes_ * (n_ / r0);
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
  const auto rest = std::span<const unsigned>(radices_).subspan(1);
  const bool scale = inverse && opt_.scaling == Scaling::kUnitary1OverN;
  const T s = scale ? T(1) / static_cast<T>(n_) : T(1);
  at_width<T>(lanes_, [&](auto lanes) {
    constexpr std::size_t L = decltype(lanes)::value;
    with_radix(r0, [&](auto R) {
      first_stage<decltype(R)::value, L>(x, r0, tw_, first_tw_.data(),
                                         inverse, planes);
    });
    if (cancel != nullptr && cancel->expired()) return;
    for (std::size_t g = 0; g * L < r0; ++g) {
      plane_stages<L>(planes + g * m * 2 * L, rest, m, tw_, inverse);
    }
    // X[b + r0*k] is frequency k of sub-transform b, held at element
    // perm_[r0*k] of row b, since perm_[b + r0*k] = b*m + perm_[r0*k].
    from_planes<false, L>(planes, m, r0, perm_.data(), r0, y, r0 * stride,
                          stride, scale, s);
  });
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
  constexpr std::size_t B = kTileRows<T>;
  XU_CHECK_MSG(!tile.empty() && tile.size() % n_ == 0,
               "tile length " << tile.size()
                              << " is not a multiple of plan size " << n_);
  const std::size_t rows = tile.size() / n_;
  XU_CHECK_MSG(offset + (rows - 1) + (n_ - 1) * stride < out.size(),
               "scatter range exceeds destination buffer");
  // Planes for at most one tile of rows, rounded up to whole lane groups.
  xutil::AlignedVector<std::complex<T>> own;
  T* const planes = planes_in(
      scratch, n_ * std::min(B, (rows + lanes_ - 1) / lanes_ * lanes_), own);
  const bool inverse = dir_ == Direction::kInverse;
  const bool scale = inverse && opt_.scaling == Scaling::kUnitary1OverN;
  const T s = scale ? T(1) / static_cast<T>(n_) : T(1);
  // Stream whole lines (every k's line aligned) into a destination above
  // stream_bytes(); smaller ones stay cached for the next pass.
  const bool big = out.size() * sizeof(std::complex<T>) > stream_bytes() &&
                   stride * sizeof(std::complex<T>) % kLineBytes == 0;
  const auto radices = std::span<const unsigned>(radices_);
  at_width<T>(lanes_, [&](auto lanes) {
    constexpr std::size_t L = decltype(lanes)::value;
    static_assert(B % L == 0, "a tile is whole lane groups");
    for (std::size_t b0 = 0; b0 < rows; b0 += B) {
      const std::size_t live = std::min(B, rows - b0);
      for (std::size_t b = 0; b < live; b += L) {
        T* const plane = planes + b / L * n_ * 2 * L;
        to_planes<L>(tile.data() + (b0 + b) * n_, std::min(L, live - b), n_,
                     plane);
        plane_stages<L>(plane, radices, n_, tw_, inverse);
      }
      std::complex<T>* const y0 = out.data() + offset + b0;
      if (big && live == B &&
          reinterpret_cast<std::uintptr_t>(y0) % kLineBytes == 0) {
        from_planes<true, L>(planes, n_, live, perm_.data(), 1, y0, stride, 1,
                             scale, s);
      } else {
        from_planes<false, L>(planes, n_, live, perm_.data(), 1, y0, stride,
                              1, scale, s);
      }
    }
  });
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
