#include "trace.hpp"

#include <stdexcept>

#include "json.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int Tracer::begin(std::string_view name) {
  const auto now = std::chrono::steady_clock::now() - origin_;
  SpanRecord s;
  s.name = std::string(name);
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  const auto now = std::chrono::steady_clock::now() - origin_;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

double Tracer::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_ns >= 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_s(std::string_view name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.name == name && s.end_ns >= 0) {
      ns += s.end_ns - s.start_ns - child_ns[i];
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

std::string Tracer::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i > 0) out += ",\n ";
    out += JsonObject()
               .add("id", static_cast<std::int64_t>(i))
               .add("name", s.name)
               .add("start_ns", s.start_ns)
               .add("end_ns", s.end_ns)
               .add("parent", static_cast<std::int64_t>(s.parent))
               .add("run", static_cast<std::int64_t>(s.run))
               .str();
  }
  return out + "]";
}

}  // namespace perfbench
