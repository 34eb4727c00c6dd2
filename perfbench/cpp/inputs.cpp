#include "inputs.hpp"

#include <utility>

namespace perfbench {

InputRng::InputRng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xD1B54A32D192ED03ULL) {}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

float InputRng::next_unit() {
  // 24 random bits scaled into [-1, 1): every value is a float exactly.
  const auto bits = static_cast<std::int32_t>(next() >> 40);
  return static_cast<float>(bits - (1 << 23)) * 0x1.0p-23f;
}

std::uint32_t InputRng::below(std::uint32_t bound) {
  return static_cast<std::uint32_t>((next() >> 32) * bound >> 32);
}

void fill_signal(std::uint64_t seed, std::uint64_t stream,
                 std::span<std::complex<float>> out) {
  InputRng rng(seed, stream);
  for (auto& v : out) {
    const float re = rng.next_unit();
    v = {re, rng.next_unit()};
  }
}

std::vector<MixItem> mix_batch(InputRng& rng) {
  std::vector<MixItem> batch;
  for (std::size_t s = 0; s < std::size(kMixSizes); ++s) {
    for (unsigned i = 0; i < kMixPerBatch[s]; ++i) {
      for (const bool inverse : {false, true}) {
        batch.push_back({kMixSizes[s], inverse, rng.below(kMixInputsPerSize)});
      }
    }
  }
  for (std::size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng.below(static_cast<std::uint32_t>(i))]);
  }
  return batch;
}

}  // namespace perfbench
