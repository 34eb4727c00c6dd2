// Seeded differential fuzzing campaign driver.
//
// Draws `trials` random TrialCases from independent Pcg32 streams of one
// seed, runs each through the cross-fidelity differential check, shrinks
// every failure, and (optionally) writes the minimized reproducers to a
// corpus directory. The whole campaign — trial order, shrink order, report
// text, corpus bytes — is a pure function of (seed, trials, envelope,
// options), which the determinism test in tests/check exploits. Trials run
// on the xpar pool (aggregation stays serial, in trial order), so the
// report is also byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xcheck/differential.hpp"
#include "xcheck/shrink.hpp"

namespace xcheck {

struct FuzzOptions {
  std::uint64_t seed = 1;
  unsigned trials = 200;
  Envelope envelope;
  DifferentialOptions diff;
  /// When nonempty, minimized failures are written here as *.repro files.
  std::string corpus_dir;
};

/// One fuzzing failure: the original drawn case and its shrunk form.
struct FuzzFailure {
  TrialCase original;
  ShrinkOutcome shrunk;
  std::string corpus_path;  ///< "" unless corpus_dir was set
};

struct FuzzSummary {
  FuzzOptions options;
  unsigned trials_run = 0;
  unsigned trials_failed = 0;
  std::vector<FuzzFailure> failures;
  /// Deterministic human-readable campaign report (per-failure mismatch
  /// reports plus a bracket-tightness footer).
  std::string report;

  [[nodiscard]] bool pass() const { return trials_failed == 0; }
};

/// Runs the campaign. Deterministic; does not throw on failing trials
/// (failures are data), only on I/O errors writing the corpus.
[[nodiscard]] FuzzSummary run_fuzz(const FuzzOptions& options);

}  // namespace xcheck
