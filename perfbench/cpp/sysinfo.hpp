// Host description and process counters for stamping results. Everything
// here comes from the CPU and the C library, not from files.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  long l3_bytes = 0;  ///< 0 when the C library cannot tell
  std::string compiler;
  std::string cxx_flags;
};

[[nodiscard]] HostInfo host_info();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
