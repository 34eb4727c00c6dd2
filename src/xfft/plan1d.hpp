// One-dimensional FFT plan: iterative mixed-radix decimation-in-frequency,
// the algorithm the paper implements on XMT (Section IV-A: radix-8 DIF,
// breadth-first/iterative, twiddles from a precomputed table).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "xfft/permute.hpp"
#include "xfft/twiddle.hpp"
#include "xfft/types.hpp"
#include "xutil/aligned.hpp"
#include "xutil/cancel.hpp"

namespace xfft {

/// Chooses stage radices for size n: prefers `max_radix` (by default the
/// paper's radix 8) for power-of-two sizes, falling back to 4/2 for the
/// remainder, and to the prime factorization for general smooth sizes.
/// Throws if n has a prime factor above kMaxRadix.
[[nodiscard]] std::vector<unsigned> choose_radices(std::size_t n,
                                                   unsigned max_radix = 8);

/// Rows per tile of the fused scatter and of rotate_axes: one cache line
/// of elements (8 complex<float>, 4 complex<double>). Consecutive rows land
/// side by side in the destination, so a tile's store runs fill whole lines.
template <typename T>
inline constexpr std::size_t kTileRows =
    xutil::kDefaultAlignment / sizeof(std::complex<T>);

/// The vector width of Plan1D's lane kernels in this process, fixed at the
/// first query: 32-byte vectors ("avx2") on an x86 CPU that reports AVX2,
/// else the baseline build's 16-byte vectors ("baseline"). Both widths give
/// the same bytes (docs/architecture.md §3).
struct LaneWidth {
  std::size_t lanes;  ///< values of T per vector: rows per lane group
  const char* isa;    ///< "avx2" or "baseline"
};

template <typename T>
[[nodiscard]] LaneWidth lane_width();

extern template LaneWidth lane_width<float>();
extern template LaneWidth lane_width<double>();

namespace detail {
struct NarrowLanes;
}  // namespace detail

template <typename T>
class PlanND;

/// Tuning options for Plan1D.
struct PlanOptions {
  /// Largest radix the planner may pick (2, 4 or 8 for power-of-two sizes).
  unsigned max_radix = 8;
  /// Inverse-transform scaling convention.
  Scaling scaling = Scaling::kUnitary1OverN;
};

/// In-place 1-D FFT plan over std::complex<T>, natural order in and out.
///
/// The plan owns its twiddle table and digit-reversal permutation, both
/// fixed at construction, so a plan is immutable: any number of threads
/// may execute the same plan at once (PlanCache hands out shared
/// instances). A plan is cheap to execute many times (amortizing table
/// construction), mirroring FFTW's plan/execute split.
template <typename T>
class Plan1D {
 public:
  Plan1D(std::size_t n, Direction dir, PlanOptions opt = {});

  /// Transforms `data` (length n) in place; output in natural order.
  ///
  /// The first stage, of radix r0 = radices()[0], reads `data` into split
  /// re/im lane planes in `scratch`, as r0 sub-transforms of length n/r0;
  /// the rest runs there as it does for the rows of a tile
  /// (docs/architecture.md §3). `scratch` needs length >= scratch_size().
  /// An empty `scratch` means a buffer that lives only for this call;
  /// callers that run one plan over many rows pass one buffer for all of
  /// them.
  ///
  /// A non-null `cancel` token is polled before the first stage and again
  /// before the remaining stages; once it has expired the call returns
  /// without writing `data`. Callers that pass a token must check it after
  /// the call and discard the buffer on expiry (the xserve deadline path).
  void execute(std::span<std::complex<T>> data,
               std::span<std::complex<T>> scratch = {},
               const xutil::CancelToken* cancel = nullptr) const;

  /// execute(), then frequency k moved to position output_perm()[k]: the
  /// digit-reversed order the butterfly stages leave. Pure data movement,
  /// so the values carry execute()'s bits.
  void execute_digit_reversed(std::span<std::complex<T>> data) const;

  /// Transforms each of the `tile.size() / n` consecutive rows of `tile`
  /// and scatters row b's spectrum into out[offset + b + k*stride] = X_b[k].
  /// Implements the paper's fusion of the axis rotation with the last
  /// iteration (one memory pass instead of reorder-then-rotate). Each group
  /// of kTileRows<T> rows (one cache line of elements) runs in vector lanes,
  /// one row per lane, in split re/im planes held in `scratch`; the group
  /// then writes each frequency k as one contiguous run of rows, a whole
  /// line when the group is full (docs/architecture.md §3). `tile` is only
  /// read.
  ///
  /// `scratch` needs length >= n * kTileRows<T>; an empty `scratch` means a
  /// buffer that lives only for this call, as for execute().
  void execute_scatter_tile(std::span<const std::complex<T>> tile,
                            std::span<std::complex<T>> out,
                            std::size_t offset, std::size_t stride,
                            std::span<std::complex<T>> scratch = {}) const;

  /// One row: out[offset + k*stride] = X[k], the bytes execute() and
  /// execute_scatter_tile() give. Runs execute()'s single-row path, so the
  /// row fills every lane; `row` is only read.
  void execute_scatter_affine(std::span<const std::complex<T>> row,
                              std::span<std::complex<T>> out,
                              std::size_t offset, std::size_t stride) const;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Direction direction() const { return dir_; }
  [[nodiscard]] const std::vector<unsigned>& radices() const {
    return radices_;
  }
  /// Scratch length execute() needs: the planes of the ceil(r0/L) lane
  /// groups of L = lanes() rows, n/r0 elements each, that hold the first
  /// stage's r0 outputs. That is n whenever L divides r0, as it does at
  /// either width for every n divisible by 8 under the default max_radix.
  [[nodiscard]] std::size_t scratch_size() const;
  /// Rows per lane group this plan's kernels run: lane_width<T>().lanes,
  /// fixed at construction.
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  /// perm[k] = position of frequency k in the digit-reversed stage output.
  [[nodiscard]] const std::vector<std::uint32_t>& output_perm() const {
    return perm_;
  }
  /// Actual real floating-point operations per execution (adds + multiplies,
  /// counting all twiddle multiplies); used for host GFLOPS reporting.
  [[nodiscard]] std::uint64_t actual_flops() const { return flops_; }

 private:
  friend struct detail::NarrowLanes;
  friend class PlanND<T>;

  /// The plan at `lanes` lanes: lane_width<T>().lanes or kLanes<T>.
  Plan1D(std::size_t n, Direction dir, PlanOptions opt, std::size_t lanes);

  /// execute() with input x and frequency k written to y[k*stride].
  void transform_row(const std::complex<T>* x, std::complex<T>* y,
                     std::size_t stride, std::span<std::complex<T>> scratch,
                     const xutil::CancelToken* cancel) const;

  std::size_t n_;
  Direction dir_;
  PlanOptions opt_;
  std::size_t lanes_;
  std::vector<unsigned> radices_;
  TwiddleTable<T> tw_;
  std::vector<std::uint32_t> perm_;
  /// The first stage's twiddles in lane order (plan1d.cpp,
  /// first_stage_twiddles).
  xutil::AlignedVector<T> first_tw_;
  std::uint64_t flops_ = 0;
};

extern template class Plan1D<float>;
extern template class Plan1D<double>;

}  // namespace xfft
