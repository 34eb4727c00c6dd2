// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (the libraries carry no spans of their own yet). Each
// span has a name, start, end, parent and run id; they stay in memory and
// are written out once, when the run ends. A layer's self time is its span
// minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the tracer was created
    std::int64_t end_ns = -1;   ///< -1 while open
    int parent = -1;            ///< index of the enclosing span, -1 for roots
    int run = 0;
  };

  Tracer();

  /// Spans opened after this call carry `run` as their run id.
  void set_run(int run) { run_ = run; }

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string_view name);
  /// Closes span `id`, which must be the innermost open one.
  void end(int id);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Summed duration of the closed spans called `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Summed self time (duration minus direct children) of spans `name`.
  [[nodiscard]] double self_s(std::string_view name) const;

  /// The spans as a JSON array.
  [[nodiscard]] std::string to_json() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// Scoped span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& t, std::string_view name) : t_(t), id_(t.begin(name)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
