#include "xcheck/corpus.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "xckpt/snapshot.hpp"
#include "xutil/check.hpp"

namespace xcheck {

namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

}  // namespace

std::string serialize_trial(const TrialCase& t, const std::string& reason) {
  std::string s = "# xcheck reproducer\nversion=1\n";
  s += "seed=" + std::to_string(t.seed) + "\n";
  s += "clusters=" + std::to_string(t.clusters) + "\n";
  s += "modules=" + std::to_string(t.modules) + "\n";
  s += "mms_per_ctrl=" + std::to_string(t.mms_per_ctrl) + "\n";
  s += "butterfly_levels=" + std::to_string(t.butterfly_levels) + "\n";
  s += "fpus=" + std::to_string(t.fpus) + "\n";
  s += "cache_kb=" + std::to_string(t.cache_kb) + "\n";
  s += "nx=" + std::to_string(t.nx) + "\n";
  s += "ny=" + std::to_string(t.ny) + "\n";
  s += "nz=" + std::to_string(t.nz) + "\n";
  s += "radix=" + std::to_string(t.radix) + "\n";
  s += "faults=" + t.faults + "\n";
  s += "phases=";
  for (std::size_t i = 0; i < t.phase_mask.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(t.phase_mask[i]);
  }
  s += "\n";
  if (!reason.empty()) s += "reason=" + reason + "\n";
  return s;
}

TrialCase parse_trial(const std::string& text) {
  TrialCase t;
  t.phase_mask.clear();
  std::istringstream in(text);
  std::string line;
  bool saw_version = false;
  const auto to_u64 = [](const std::string& key, const std::string& v) {
    XU_CHECK_MSG(!v.empty() &&
                     v.find_first_not_of("0123456789") == std::string::npos,
                 "corpus entry: bad integer for '" << key << "': '" << v
                                                   << "'");
    return std::stoull(v);
  };
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    XU_CHECK_MSG(eq != std::string::npos,
                 "corpus entry: line without '=': '" << line << "'");
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    if (key == "version") {
      XU_CHECK_MSG(val == "1", "corpus entry: unsupported version " << val);
      saw_version = true;
    } else if (key == "seed") {
      t.seed = to_u64(key, val);
    } else if (key == "clusters") {
      t.clusters = to_u64(key, val);
    } else if (key == "modules") {
      t.modules = to_u64(key, val);
    } else if (key == "mms_per_ctrl") {
      t.mms_per_ctrl = static_cast<unsigned>(to_u64(key, val));
    } else if (key == "butterfly_levels") {
      t.butterfly_levels = static_cast<unsigned>(to_u64(key, val));
    } else if (key == "fpus") {
      t.fpus = static_cast<unsigned>(to_u64(key, val));
    } else if (key == "cache_kb") {
      t.cache_kb = to_u64(key, val);
    } else if (key == "nx") {
      t.nx = to_u64(key, val);
    } else if (key == "ny") {
      t.ny = to_u64(key, val);
    } else if (key == "nz") {
      t.nz = to_u64(key, val);
    } else if (key == "radix") {
      t.radix = static_cast<unsigned>(to_u64(key, val));
    } else if (key == "faults") {
      t.faults = val;
    } else if (key == "phases") {
      std::size_t pos = 0;
      while (pos < val.size()) {
        const auto comma = val.find(',', pos);
        const auto end = comma == std::string::npos ? val.size() : comma;
        t.phase_mask.push_back(to_u64(key, val.substr(pos, end - pos)));
        pos = end + 1;
      }
    } else if (key == "reason") {
      // informational only
    } else {
      throw xutil::Error("corpus entry: unknown key '" + key + "'");
    }
  }
  XU_CHECK_MSG(saw_version, "corpus entry: missing version line");
  return t;
}

std::string corpus_filename(const TrialCase& tcase) {
  return "xc-" + hex16(fnv1a64(serialize_trial(tcase))) + ".repro";
}

std::string write_corpus_entry(const std::string& dir, const TrialCase& tcase,
                               const std::string& reason) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  XU_CHECK_MSG(!ec, "cannot create corpus directory '" << dir << "': "
                                                       << ec.message());
  const std::string path =
      (fs::path(dir) / corpus_filename(tcase)).string();
  // Crash-safe write: a fuzzer killed mid-write, or a power loss, never
  // leaves a torn .repro that later fails replay. Parallel fuzz workers
  // may save the same content-hashed entry concurrently; each stages its
  // own file, and whichever lands last wins with identical bytes.
  xckpt::write_file_atomic(path, serialize_trial(tcase, reason));
  return path;
}

std::vector<ReplayEntry> replay_corpus(const std::string& dir,
                                       const Envelope& env,
                                       const DifferentialOptions& opt) {
  namespace fs = std::filesystem;
  std::vector<ReplayEntry> entries;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return entries;
  std::vector<std::string> paths;
  for (const auto& de : fs::directory_iterator(dir)) {
    if (de.path().extension() == ".repro") paths.push_back(de.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    ReplayEntry e;
    e.path = path;
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      const TrialCase t = parse_trial(buf.str());
      e.result = run_trial(t, env, opt);
    } catch (const xutil::Error& err) {
      e.parse_error = err.what();
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace xcheck
