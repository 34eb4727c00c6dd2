#include "xcheck/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "xcheck/corpus.hpp"
#include "xpar/pool.hpp"

namespace xcheck {

namespace {

std::string fmt2(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

// Everything a trial produces before aggregation. Trials are embarrassingly
// parallel (each draws from its own Pcg32 stream and run_trial/shrink_trial
// are pure), so the expensive phase — including shrinking failures — runs
// on the pool; only report text and corpus I/O stay serial, in trial order.
struct TrialOutcome {
  TrialCase tcase;
  TrialResult result;
  bool failed = false;
  ShrinkOutcome shrunk;  ///< populated only when failed
};

}  // namespace

FuzzSummary run_fuzz(const FuzzOptions& options) {
  FuzzSummary s;
  s.options = options;
  s.report = "xcheck fuzz: seed=" + std::to_string(options.seed) +
             " trials=" + std::to_string(options.trials) + "\n";

  // Bracket-tightness statistics across all passing phases: how much of the
  // [best, worst] window the machine actually uses. A collapsing range would
  // mean the envelope could be tightened; a range hugging the margins means
  // it cannot.
  double min_vs_best = std::numeric_limits<double>::infinity();
  double max_vs_worst = 0.0;
  std::uint64_t phases_checked = 0;

  // Phase 1 (parallel): run every trial — and shrink its failure, if any —
  // into a slot indexed by trial number. Stream split makes each trial a
  // pure function of (seed, i): inserting a new draw in draw_trial never
  // perturbs later trials, and neither does the pool's chunking.
  std::vector<TrialOutcome> outcomes(options.trials);
  xpar::parallel_for(
      0, static_cast<std::int64_t>(options.trials), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t t = lo; t < hi; ++t) {
          const auto i = static_cast<unsigned>(t);
          TrialOutcome& out = outcomes[i];
          xutil::Pcg32 rng(options.seed, /*stream=*/i);
          out.tcase = draw_trial(rng, options.seed + i);
          out.result = run_trial(out.tcase, options.envelope, options.diff);
          if (!out.result.pass()) {
            out.failed = true;
            out.shrunk =
                shrink_trial(out.tcase, options.envelope, options.diff);
          }
        }
      });

  // Phase 2 (serial, trial order): aggregate statistics, emit report text
  // and corpus files. Min/max merges are order-independent and the text is
  // appended in trial order, so the summary is byte-identical to a serial
  // campaign at any thread count.
  for (unsigned i = 0; i < options.trials; ++i) {
    TrialOutcome& out = outcomes[i];
    ++s.trials_run;
    for (const auto& p : out.result.phases) {
      ++phases_checked;
      if (p.best_cycles > 0.0) {
        min_vs_best = std::min(min_vs_best, p.machine_cycles / p.best_cycles);
      }
      if (p.worst_cycles > 0.0) {
        max_vs_worst =
            std::max(max_vs_worst, p.machine_cycles / p.worst_cycles);
      }
    }
    if (!out.failed) continue;

    ++s.trials_failed;
    FuzzFailure f;
    f.original = out.tcase;
    f.shrunk = std::move(out.shrunk);
    if (!options.corpus_dir.empty()) {
      f.corpus_path =
          write_corpus_entry(options.corpus_dir, f.shrunk.minimized,
                             f.shrunk.result.first_reason());
    }
    s.report += "FAIL trial " + std::to_string(i) + ": " +
                out.tcase.describe() + "\n";
    s.report += "  shrunk (" + std::to_string(f.shrunk.moves_accepted) + "/" +
                std::to_string(f.shrunk.moves_tried) + " moves) to:\n";
    s.report += render_trial(f.shrunk.result);
    if (!f.corpus_path.empty()) {
      // Filename only: the report must be byte-identical across runs no
      // matter where the corpus directory lives.
      s.report +=
          "  reproducer: " + corpus_filename(f.shrunk.minimized) + "\n";
    }
    s.failures.push_back(std::move(f));
  }

  s.report += "checked " + std::to_string(phases_checked) + " phases across " +
              std::to_string(s.trials_run) + " trials, " +
              std::to_string(s.trials_failed) + " failed\n";
  if (phases_checked > 0) {
    s.report += "bracket use: machine/best >= " + fmt2(min_vs_best) +
                ", machine/worst <= " + fmt2(max_vs_worst) + "\n";
  }
  s.report += s.pass() ? "=> PASS\n" : "=> FAIL\n";
  return s;
}

}  // namespace xcheck
