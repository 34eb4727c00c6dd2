#include "sysinfo.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.cpu_model = cpu_brand();
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
#ifdef _SC_LEVEL3_CACHE_SIZE
  h.l3_bytes = std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
#endif
  // Both come from the package's CMakeLists.txt.
  h.compiler = PERFBENCH_COMPILER;
  h.cxx_flags = PERFBENCH_CXX_FLAGS;
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
