// In-run roofline probes (the paper's Fig. 3 method on this host): the
// memory bandwidth and single-core flop rate that per-layer rates are
// divided by. Measuring them in the same run as the layers cancels part of
// the host's run-to-run drift.
#pragma once

#include <cstddef>

namespace perfbench {

/// Copy bandwidth over two `bytes`-sized arrays, counting the bytes read
/// and written (2 * bytes per copy), in GB/s; median of `reps` copies.
[[nodiscard]] double probe_memcpy_gbps(std::size_t bytes, int reps);

/// Single-thread float multiply-add rate under this build's flags, in
/// GFLOP/s (each multiply and each add counts); median of `reps` loops.
[[nodiscard]] double probe_peak_gflops(int reps);

}  // namespace perfbench
