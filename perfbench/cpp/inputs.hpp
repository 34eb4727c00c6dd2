// Seeded input generation. Every input the benchmark feeds the libraries
// comes from here, as a pure function of (seed, stream), so one seed
// reproduces a run's inputs byte for byte.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// SplitMix64 over a (seed, stream) pair: independent streams for the
/// different inputs of one run, all fixed by the seed.
class InputRng {
 public:
  InputRng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  /// Uniform in [-1, 1), exactly representable in float.
  float next_unit();
  /// Uniform in [0, bound); bound >= 1.
  std::uint32_t below(std::uint32_t bound);

 private:
  std::uint64_t state_;
};

/// Fills `out` with complex samples uniform in [-1, 1)^2.
void fill_signal(std::uint64_t seed, std::uint64_t stream,
                 std::span<std::complex<float>> out);

/// One request of the host1d_mix stream.
struct MixItem {
  std::size_t n = 0;
  bool inverse = false;
  unsigned input = 0;  ///< which of the size's seeded inputs
};

/// The mix's sizes: radix-8 powers of two, then smooth sizes that take the
/// generic-radix path.
inline constexpr std::size_t kMixSizes[] = {1024, 4096, 16384, 768, 1000};
/// Transforms of each size and direction per batch, chosen so every size
/// contributes about the same number of points.
inline constexpr unsigned kMixPerBatch[] = {16, 4, 1, 21, 16};
/// Distinct seeded inputs kept per size.
inline constexpr unsigned kMixInputsPerSize = 4;

/// The requests of one batch: a fixed multiset (kMixPerBatch of each size,
/// both directions) in an order and with input picks drawn from `rng`.
[[nodiscard]] std::vector<MixItem> mix_batch(InputRng& rng);

}  // namespace perfbench
