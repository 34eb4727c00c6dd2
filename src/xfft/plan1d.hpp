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
#include "xutil/cancel.hpp"

namespace xfft {

/// Chooses stage radices for size n: prefers `max_radix` (by default the
/// paper's radix 8) for power-of-two sizes, falling back to 4/2 for the
/// remainder, and to the prime factorization for general smooth sizes.
/// Throws if n has a prime factor above kMaxRadix.
[[nodiscard]] std::vector<unsigned> choose_radices(std::size_t n,
                                                   unsigned max_radix = 8);

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
  /// The digit-reversal reorder goes through `scratch` (length >= n). An
  /// empty `scratch` means a buffer that lives only for this call; callers
  /// that run one plan over many rows pass one buffer for all of them.
  ///
  /// A non-null `cancel` token is polled between butterfly stages; once it
  /// expires the remaining stages and the reorder are skipped and `data` is
  /// left unspecified. Callers that pass a token must check it after the
  /// call and discard the buffer on expiry (the xserve deadline path).
  void execute(std::span<std::complex<T>> data,
               std::span<std::complex<T>> scratch = {},
               const xutil::CancelToken* cancel = nullptr) const;

  /// Runs only the butterfly stages; output left in digit-reversed order.
  /// Callers composing their own reorder (e.g. the fused-rotation 3-D path)
  /// use output_perm() to locate frequency k at position output_perm()[k].
  void execute_digit_reversed(std::span<std::complex<T>> data) const;

  /// Butterfly stages on each of the `tile.size() / n` consecutive rows of
  /// `tile` (in place), then a scatter of row b's spectrum into
  /// out[offset + b + k*stride] = X_b[k]. Implements the paper's fusion of
  /// the axis rotation with the last iteration (one memory pass instead of
  /// reorder-then-rotate). Consecutive rows land side by side, so each
  /// frequency k is stored as one contiguous run of rows: with a tile of a
  /// cache line's worth of rows, every store run fills whole lines instead
  /// of one element per line of a large power-of-two stride.
  void execute_scatter_tile(std::span<std::complex<T>> tile,
                            std::span<std::complex<T>> out,
                            std::size_t offset, std::size_t stride) const;

  /// One-row case of execute_scatter_tile: out[offset + k*stride] = X[k].
  void execute_scatter_affine(std::span<std::complex<T>> row,
                              std::span<std::complex<T>> out,
                              std::size_t offset, std::size_t stride) const;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Direction direction() const { return dir_; }
  [[nodiscard]] const std::vector<unsigned>& radices() const {
    return radices_;
  }
  /// perm[k] = position of frequency k in the digit-reversed stage output.
  [[nodiscard]] const std::vector<std::uint32_t>& output_perm() const {
    return perm_;
  }
  /// Actual real floating-point operations per execution (adds + multiplies,
  /// counting all twiddle multiplies); used for host GFLOPS reporting.
  [[nodiscard]] std::uint64_t actual_flops() const { return flops_; }

 private:
  void run_stages(std::span<std::complex<T>> data,
                  const xutil::CancelToken* cancel = nullptr) const;
  void apply_scaling(std::span<std::complex<T>> data) const;

  std::size_t n_;
  Direction dir_;
  PlanOptions opt_;
  std::vector<unsigned> radices_;
  TwiddleTable<T> tw_;
  std::vector<std::uint32_t> perm_;
  std::uint64_t flops_ = 0;
};

extern template class Plan1D<float>;
extern template class Plan1D<double>;

}  // namespace xfft
