#include "xfft/permute.hpp"

#include <limits>
#include <vector>

#include "xutil/check.hpp"

namespace xfft {

std::size_t dif_output_position(std::size_t k,
                                std::span<const unsigned> radices,
                                std::size_t n) {
  // Digits of k, least significant first, with bases r1, r2, ..., rm.
  // Position assembles the same digit sequence most significant first with
  // the same bases: p = d1*(n/r1) + d2*(n/(r1*r2)) + ... + dm.
  std::size_t p = 0;
  std::size_t weight = n;
  std::size_t rem = k;
  for (const unsigned r : radices) {
    XU_DCHECK(r >= 2);
    const std::size_t digit = rem % r;
    rem /= r;
    weight /= r;
    p += digit * weight;
  }
  XU_DCHECK(rem == 0);
  XU_DCHECK(weight == 1);
  return p;
}

std::vector<std::uint32_t> dif_output_permutation(
    std::span<const unsigned> radices, std::size_t n) {
  std::size_t product = 1;
  for (const unsigned r : radices) product *= r;
  XU_CHECK_MSG(product == n, "stage radices multiply to "
                                 << product << ", expected " << n);
  XU_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
               "permutation length " << n << " exceeds the uint32_t limit");
  std::vector<std::uint32_t> perm(n);
  for (std::size_t k = 0; k < n; ++k) {
    perm[k] = static_cast<std::uint32_t>(dif_output_position(k, radices, n));
  }
  return perm;
}

std::size_t bit_reverse(std::size_t v, unsigned bits) {
  std::size_t r = 0;
  for (unsigned b = 0; b < bits; ++b) {
    r = (r << 1) | ((v >> b) & 1u);
  }
  return r;
}

template <typename T>
void gather_permute(std::span<const std::complex<T>> in,
                    std::span<std::complex<T>> out,
                    std::span<const std::uint32_t> perm) {
  XU_CHECK(in.size() == out.size() && in.size() == perm.size());
  XU_CHECK_MSG(in.data() != out.data(), "gather_permute must not alias");
  for (std::size_t k = 0; k < perm.size(); ++k) {
    out[k] = in[perm[k]];
  }
}

template <typename T>
void permute_in_place(std::span<std::complex<T>> data,
                      std::span<const std::uint32_t> perm) {
  XU_CHECK(data.size() == perm.size());
  std::vector<bool> visited(data.size(), false);
  for (std::size_t start = 0; start < data.size(); ++start) {
    if (visited[start] || perm[start] == start) continue;
    // Follow the cycle: position `cur` must receive data[perm[cur]].
    std::size_t cur = start;
    const std::complex<T> saved = data[start];
    for (;;) {
      visited[cur] = true;
      const std::size_t src = perm[cur];
      if (src == start) {
        data[cur] = saved;
        break;
      }
      data[cur] = data[src];
      cur = src;
    }
  }
}

template void gather_permute<float>(std::span<const Cf>, std::span<Cf>,
                                    std::span<const std::uint32_t>);
template void gather_permute<double>(std::span<const Cd>, std::span<Cd>,
                                     std::span<const std::uint32_t>);
template void permute_in_place<float>(std::span<Cf>,
                                      std::span<const std::uint32_t>);
template void permute_in_place<double>(std::span<Cd>,
                                       std::span<const std::uint32_t>);

}  // namespace xfft
