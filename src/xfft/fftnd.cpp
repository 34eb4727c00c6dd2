#include "xfft/fftnd.hpp"

#include <algorithm>

#include "xpar/pool.hpp"
#include "xutil/aligned.hpp"
#include "xutil/check.hpp"

namespace xfft {

namespace {

/// Chunked loop shared by the pool and serial execution paths. The pool
/// path delegates to the cancellation-aware parallel_for; the serial path
/// replays the same work inline in fixed chunks so a deadline still aborts
/// with chunk granularity. Bodies write disjoint outputs per index, so both
/// paths produce byte-identical results (absent cancellation).
void for_chunks(const ExecOptions& exec, std::int64_t begin, std::int64_t end,
                std::int64_t grain,
                const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (!exec.serial) {
    xpar::ThreadPool::global().parallel_for(begin, end, grain, body,
                                            exec.cancel);
    return;
  }
  const std::int64_t g = grain > 0 ? grain : 64;
  for (std::int64_t lo = begin; lo < end; lo += g) {
    if (exec.cancel != nullptr && exec.cancel->expired()) return;
    body(lo, std::min(end, lo + g));
  }
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
  for_chunks(exec, 0, static_cast<std::int64_t>(stride), 0,
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
void rotate_axes(std::span<const std::complex<T>> src,
                 std::span<std::complex<T>> dst, Dims3 dims) {
  rotate_axes(src, dst, dims, ExecOptions{});
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
    for_chunks(exec, 0, static_cast<std::int64_t>(data.size()), 0,
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   data[static_cast<std::size_t>(i)] *= s;
                 }
               });
  }
}

template <typename T>
void PlanND<T>::execute(std::span<std::complex<T>> data) const {
  execute(data, ExecOptions{});
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
    if (exec_expired(exec)) return;
    apply_scaling(data, exec);
    return;
  }
  if (opt_.rotation == RotationMode::kFusedRotation) {
    execute_fused(data, exec);
  } else {
    execute_separate(data, exec);
  }
  if (exec_expired(exec)) return;
  apply_scaling(data, exec);
}

template <typename T>
void PlanND<T>::execute_separate(std::span<std::complex<T>> data,
                                 const ExecOptions& exec) const {
  Dims3 cur = dims_;
  std::complex<T>* src = data.data();
  std::complex<T>* dst = scratch_.data();
  const std::size_t n = dims_.total();
  const std::size_t axis_len[3] = {dims_.nx, dims_.ny, dims_.nz};
  for (int pass = 0; pass < 3; ++pass) {
    if (axis_len[pass] > 1) {
      const Plan1D<T>& plan = axis_plan(pass);
      const std::size_t rows = n / cur.nx;
      const std::size_t len = cur.nx;
      // Pencil parallelism: each chunk of rows runs on one lane with its
      // own reorder scratch, reused across every row of the chunk (the
      // shared plan is read-only in execution).
      for_chunks(
          exec, 0, static_cast<std::int64_t>(rows), 0,
          [&](std::int64_t lo, std::int64_t hi) {
            xutil::AlignedVector<std::complex<T>> row_scratch(len);
            const std::span<std::complex<T>> scratch_span(row_scratch.data(),
                                                          len);
            for (std::int64_t row = lo; row < hi; ++row) {
              if (exec_expired(exec)) return;
              plan.execute(std::span<std::complex<T>>(
                               src + static_cast<std::size_t>(row) * len, len),
                           scratch_span);
            }
          });
    }
    if (exec_expired(exec)) return;
    rotate_axes(std::span<const std::complex<T>>(src, n),
                std::span<std::complex<T>>(dst, n), cur, exec);
    if (exec_expired(exec)) return;
    std::swap(src, dst);
    cur = Dims3{cur.ny, cur.nz, cur.nx};
  }
  // Three ping-pong swaps leave the result in the scratch buffer.
  if (src != data.data()) {
    std::copy(src, src + n, data.data());
  }
}

template <typename T>
void PlanND<T>::execute_fused(std::span<std::complex<T>> data,
                              const ExecOptions& exec) const {
  Dims3 cur = dims_;
  std::complex<T>* src = data.data();
  std::complex<T>* dst = scratch_.data();
  const std::size_t n = dims_.total();
  const std::size_t axis_len[3] = {dims_.nx, dims_.ny, dims_.nz};
  for (int pass = 0; pass < 3; ++pass) {
    const std::size_t rows = n / cur.nx;
    if (axis_len[pass] > 1) {
      const Plan1D<T>& plan = axis_plan(pass);
      // Each row's final iteration scatters straight into the rotated
      // array: frequency k of row (i1, i2) lands at k*(d1*d2) + i2*d1 + i1.
      // Rows are disjoint in src and scatter to disjoint combs of dst
      // (offset = row), so the fused transpose tiles across lanes with no
      // synchronization inside a pass. Within a chunk, tiles of
      // consecutive rows write each frequency as one whole-line run.
      const std::size_t stride = cur.ny * cur.nz;
      const std::size_t len = cur.nx;
      const auto scatter_tile = [&](std::size_t t, std::size_t e) {
        plan.execute_scatter_tile(
            std::span<std::complex<T>>(src + t * len, (e - t) * len),
            std::span<std::complex<T>>(dst, n), t, stride);
      };
      for_chunks(exec, 0, static_cast<std::int64_t>(rows), 0,
                 [&](std::int64_t lo, std::int64_t hi) {
                   for_tiles<T>(exec, lo, hi, scatter_tile);
                 });
    } else {
      rotate_axes(std::span<const std::complex<T>>(src, n),
                  std::span<std::complex<T>>(dst, n), cur, exec);
    }
    if (exec_expired(exec)) return;
    std::swap(src, dst);
    cur = Dims3{cur.ny, cur.nz, cur.nx};
  }
  if (src != data.data()) {
    std::copy(src, src + n, data.data());
  }
}

template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>, Dims3);
template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>, Dims3);
template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>, Dims3,
                                 const ExecOptions&);
template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>, Dims3,
                                  const ExecOptions&);
template class PlanND<float>;
template class PlanND<double>;

}  // namespace xfft
