// Multi-dimensional FFT plans (Section IV of the paper).
//
// The paper's algorithm: "our multidimensional FFT implementation consists
// of two phases that are executed once per dimension. First, the FFT of each
// row is computed. Second, the axes of the array are rotated so that the
// next time the FFT is applied to the rows of the array, it will actually
// compute the FFT of what was originally the columns. ... In our
// implementation, the rotation is combined with the last iteration of the
// computation to reduce the number of synchronization points and round
// trips to memory."
//
// Both variants are provided: kSeparate performs an explicit rotation pass
// after each dimension's row FFTs, kFusedRotation scatters the last
// butterfly iteration's output directly into the rotated array.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "xfft/plan1d.hpp"
#include "xfft/types.hpp"
#include "xutil/aligned.hpp"

namespace xfft {

/// How the axis rotation (generalized transpose) is realized.
enum class RotationMode {
  kSeparate,       ///< row FFTs in place, then a dedicated rotation pass
  kFusedRotation,  ///< last iteration scatters into the rotated array
};

/// Per-execution controls threaded through PlanND (and from there into the
/// chunk loops and Plan1D stages). Distinct from the plan-time Options:
/// the same cached plan serves requests with different deadlines and on
/// different degradation rungs.
struct ExecOptions {
  /// Polled at chunk/pass boundaries; on expiry the remaining work is
  /// skipped and the data buffer is left unspecified. Callers must check
  /// the token after execute() and discard the buffer when it expired.
  const xutil::CancelToken* cancel = nullptr;
  /// True runs every chunk on a one-lane pool, inline on the calling
  /// thread and never on the global pool's workers — the service layer's
  /// first degradation rung (shedding parallelism keeps pool lanes free
  /// for other requests).
  bool serial = false;
};

/// Rotates axes of a 3-D array: dst[i0][i2][i1] = src[i2][i1][i0], where
/// src has logical dims [d2][d1][d0] with d0 fastest. After the rotation the
/// previously second-fastest axis (d1) is fastest, so row FFTs on dst
/// transform what were columns of src. For 2-D arrays (d2 == 1) this is a
/// matrix transpose. Three successive rotations restore the original layout.
/// `exec` carries the cancel token and the serial rung; see ExecOptions.
template <typename T>
void rotate_axes(std::span<const std::complex<T>> src,
                 std::span<std::complex<T>> dst, Dims3 dims,
                 const ExecOptions& exec = {});

/// In-place N-dimensional FFT plan (rank 1, 2 or 3), natural layout in and
/// out (x fastest). The per-axis Plan1Ds are immutable, but the plan owns a
/// full-size ping-pong buffer, so one PlanND takes one executor at a time.
///
/// execute() is the paper's loop: per dimension, the row FFTs and then the
/// axis rotation, either fused into the rows' last iteration (each tile of
/// rows scatters straight into the rotated array) or as a separate
/// rotate_axes pass. Every pass is chunked with xpar's parallel_for, on the
/// global pool or, for ExecOptions::serial, on a one-lane pool. Every
/// row/tile writes a disjoint region, so output is byte-identical at any
/// pool size (including 1); callers pick the concurrency through
/// xpar::ThreadPool::set_global_threads / --threads / XMTFFT_THREADS.
template <typename T>
class PlanND {
 public:
  struct Options {
    unsigned max_radix = 8;
    Scaling scaling = Scaling::kUnitary1OverN;
    RotationMode rotation = RotationMode::kFusedRotation;
  };

  PlanND(Dims3 dims, Direction dir, Options opt = {});

  /// Transforms `data` (length dims.total(), x fastest) in place. `exec`
  /// carries a cooperative cancellation token polled at chunk, tile and
  /// pass boundaries, and a serial mode that keeps the whole transform on
  /// the calling thread. On token expiry the method returns early with
  /// `data` unspecified — check exec.cancel afterwards.
  void execute(std::span<std::complex<T>> data,
               const ExecOptions& exec = {}) const;

  [[nodiscard]] Dims3 dims() const { return dims_; }
  [[nodiscard]] Direction direction() const { return dir_; }
  [[nodiscard]] RotationMode rotation_mode() const { return opt_.rotation; }
  /// Actual real FLOPs per execution across all dimensions' row FFTs.
  [[nodiscard]] std::uint64_t actual_flops() const;
  /// The 1-D plan used along axis `axis` (0 = x).
  [[nodiscard]] const Plan1D<T>& axis_plan(int axis) const;

 private:
  friend struct detail::NarrowLanes;

  /// The plan with axis plans at `lanes` lanes (see Plan1D::lanes()).
  PlanND(Dims3 dims, Direction dir, Options opt, std::size_t lanes);

  /// dst[i] = src[i], times 1/N on a unitary inverse, chunked on the pool.
  /// src may be dst (scaling in place); then without scaling it is a no-op.
  void copy_scaled(std::span<const std::complex<T>> src,
                   std::span<std::complex<T>> dst,
                   const ExecOptions& exec) const;

  Dims3 dims_;
  Direction dir_;
  Options opt_;
  // One plan per axis length (axes of equal length share a plan).
  std::vector<std::unique_ptr<Plan1D<T>>> plans_;
  std::array<int, 3> plan_of_axis_{};
  // Every pass writes it before reading it, so it is not zero-filled.
  xutil::UninitializedBuffer<std::complex<T>> scratch_;
};

extern template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>,
                                        Dims3, const ExecOptions&);
extern template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>,
                                         Dims3, const ExecOptions&);
extern template class PlanND<float>;
extern template class PlanND<double>;

}  // namespace xfft
