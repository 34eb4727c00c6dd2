#include "xfft/fftnd.hpp"

#include <algorithm>

#include "xpar/pool.hpp"
#include "xutil/aligned.hpp"
#include "xutil/check.hpp"

namespace xfft {

namespace {

/// Chunked loop of every PlanND pass: the cancellation-aware parallel_for,
/// on the global pool or, for the serial rung, on a one-lane pool. A
/// one-lane pool starts no workers; its size-1 path replays the halving
/// split inline on the calling thread, polling the token once per chunk.
/// Bodies write disjoint outputs per index, so both produce byte-identical
/// results (absent cancellation).
void for_chunks(const ExecOptions& exec, std::int64_t begin, std::int64_t end,
                const std::function<void(std::int64_t, std::int64_t)>& body) {
  static xpar::ThreadPool one_lane(1);
  xpar::ThreadPool& pool = exec.serial ? one_lane : xpar::ThreadPool::global();
  pool.parallel_for(begin, end, 0, body, exec.cancel);
}

bool exec_expired(const ExecOptions& exec) {
  return exec.cancel != nullptr && exec.cancel->expired();
}

/// Rows per tile of both rotation kernels: one cache line of elements.
/// Consecutive rows land side by side in the destination, so a tile's
/// store runs fill whole lines (docs/architecture.md §3 has the why).
template <typename T>
inline constexpr std::size_t kTileRows =
    xutil::kDefaultAlignment / sizeof(std::complex<T>);

/// Walks rows [lo, hi) in tiles of kTileRows<T> aligned to multiples of
/// the width (the first and last may be partial), polling the cancel
/// token before each.
template <typename T, typename Body>
void for_tiles(const ExecOptions& exec, std::int64_t lo, std::int64_t hi,
               Body&& body) {
  constexpr auto width = static_cast<std::int64_t>(kTileRows<T>);
  for (std::int64_t t = lo; t < hi;) {
    if (exec_expired(exec)) return;
    const std::int64_t e = std::min(hi, (t / width + 1) * width);
    body(static_cast<std::size_t>(t), static_cast<std::size_t>(e));
    t = e;
  }
}

}  // namespace

template <typename T>
void rotate_axes(std::span<const std::complex<T>> src,
                 std::span<std::complex<T>> dst, Dims3 dims,
                 const ExecOptions& exec) {
  XU_CHECK(src.size() == dims.total() && dst.size() == dims.total());
  XU_CHECK_MSG(src.data() != dst.data(), "rotate_axes must not alias");
  const std::size_t d0 = dims.nx;
  // dst logical dims are [d0][d2][d1] with d1 fastest, so source row
  // idx = i2*d1 + i1 scatters to dst[idx + i0*d1*d2]. Chunked across the
  // pool over the rows: each chunk writes a disjoint comb of dst, so the
  // parallel rotation is byte-identical to the serial one at any thread
  // count. A tile of rows writes each i0 as one contiguous run.
  const std::size_t stride = dims.ny * dims.nz;
  for_chunks(exec, 0, static_cast<std::int64_t>(stride),
             [&](std::int64_t lo, std::int64_t hi) {
               for_tiles<T>(exec, lo, hi, [&](std::size_t t, std::size_t e) {
                 for (std::size_t i0 = 0; i0 < d0; ++i0) {
                   for (std::size_t idx = t; idx < e; ++idx) {
                     dst[idx + i0 * stride] = src[idx * d0 + i0];
                   }
                 }
               });
             });
}

template <typename T>
PlanND<T>::PlanND(Dims3 dims, Direction dir, Options opt)
    : dims_(dims), dir_(dir), opt_(opt) {
  XU_CHECK_MSG(dims.nx >= 1 && dims.ny >= 1 && dims.nz >= 1,
               "all dimensions must be >= 1");
  const std::size_t lens[3] = {dims.nx, dims.ny, dims.nz};
  for (int axis = 0; axis < 3; ++axis) {
    int found = -1;
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      if (plans_[p]->size() == lens[axis]) {
        found = static_cast<int>(p);
        break;
      }
    }
    if (found < 0) {
      plans_.push_back(std::make_unique<Plan1D<T>>(
          lens[axis], dir,
          PlanOptions{.max_radix = opt_.max_radix, .scaling = Scaling::kNone}));
      found = static_cast<int>(plans_.size()) - 1;
    }
    plan_of_axis_[static_cast<std::size_t>(axis)] = found;
  }
  scratch_.resize(dims.total());
}

template <typename T>
const Plan1D<T>& PlanND<T>::axis_plan(int axis) const {
  XU_CHECK(axis >= 0 && axis < 3);
  return *plans_[static_cast<std::size_t>(
      plan_of_axis_[static_cast<std::size_t>(axis)])];
}

template <typename T>
std::uint64_t PlanND<T>::actual_flops() const {
  std::uint64_t total = 0;
  const std::size_t n = dims_.total();
  for (int axis = 0; axis < 3; ++axis) {
    const Plan1D<T>& p = axis_plan(axis);
    if (p.size() <= 1) continue;
    total += (n / p.size()) * p.actual_flops();
  }
  return total;
}

template <typename T>
void PlanND<T>::apply_scaling(std::span<std::complex<T>> data,
                              const ExecOptions& exec) const {
  if (dir_ == Direction::kInverse && opt_.scaling == Scaling::kUnitary1OverN) {
    const T s = T(1) / static_cast<T>(dims_.total());
    for_chunks(exec, 0, static_cast<std::int64_t>(data.size()),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   data[static_cast<std::size_t>(i)] *= s;
                 }
               });
  }
}

template <typename T>
void PlanND<T>::execute(std::span<std::complex<T>> data,
                        const ExecOptions& exec) const {
  XU_CHECK_MSG(data.size() == dims_.total(),
               "buffer length " << data.size() << " != " << dims_.total());
  if (dims_.rank() == 1) {
    // No rotation needed for 1-D; run the row plan directly.
    if (dims_.nx > 1) {
      axis_plan(0).execute(
          data, std::span<std::complex<T>>(scratch_.data(), scratch_.size()),
          exec.cancel);
    }
  } else {
    const std::size_t n = data.size();
    const bool fused = opt_.rotation == RotationMode::kFusedRotation;
    Dims3 cur = dims_;
    std::complex<T>* src = data.data();
    std::complex<T>* dst = scratch_.data();
    const std::size_t axis_len[3] = {dims_.nx, dims_.ny, dims_.nz};
    for (int pass = 0; pass < 3; ++pass) {
      const std::span<std::complex<T>> in(src, n);
      const std::span<std::complex<T>> out(dst, n);
      const std::size_t len = cur.nx;
      const Plan1D<T>& plan = axis_plan(pass);
      const bool transform = axis_len[pass] > 1;
      if (transform) {
        // Pencil parallelism: chunks of rows, disjoint in the source. Fused,
        // each tile of consecutive rows runs its last iteration straight
        // into the rotated array: frequency k of row r lands at
        // k*(d1*d2) + r, so tiles write disjoint combs of the destination
        // and each frequency as one whole-line run. Otherwise each row is
        // transformed in place through one reorder scratch per chunk.
        const std::size_t stride = cur.ny * cur.nz;
        const auto scatter_tile = [&](std::size_t t, std::size_t e) {
          plan.execute_scatter_tile(in.subspan(t * len, (e - t) * len), out, t,
                                    stride);
        };
        for_chunks(exec, 0, static_cast<std::int64_t>(n / len),
                   [&](std::int64_t lo, std::int64_t hi) {
                     if (fused) {
                       for_tiles<T>(exec, lo, hi, scatter_tile);
                       return;
                     }
                     xutil::AlignedVector<std::complex<T>> row_scratch(len);
                     for (std::int64_t row = lo; row < hi; ++row) {
                       if (exec_expired(exec)) return;
                       plan.execute(
                           in.subspan(static_cast<std::size_t>(row) * len, len),
                           std::span<std::complex<T>>(row_scratch.data(), len));
                     }
                   });
      }
      if (!(transform && fused)) rotate_axes<T>(in, out, cur, exec);
      if (exec_expired(exec)) return;
      std::swap(src, dst);
      cur = Dims3{cur.ny, cur.nz, cur.nx};
    }
    // Three ping-pong swaps leave the result in the scratch buffer.
    std::copy(src, src + n, data.data());
  }
  if (exec_expired(exec)) return;
  apply_scaling(data, exec);
}

template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>, Dims3,
                                 const ExecOptions&);
template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>, Dims3,
                                  const ExecOptions&);
template class PlanND<float>;
template class PlanND<double>;

}  // namespace xfft
