// Self-test of the benchmark's own code: order statistics against values
// Python's statistics module gives, JSON emission round-trips, and seeded
// input generation. Build with the package and run:
//
//   .bench_build/perfbench/perfbench_selftest    (or: run.py --selftest)
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "json.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

/// Parses the flat objects JsonObject emits: string keys mapped to numbers,
/// strings, booleans or null (nested objects are returned as raw text).
std::map<std::string, std::string> parse_flat(const std::string& s) {
  std::map<std::string, std::string> out;
  std::size_t i = 1;
  auto read_string = [&]() {
    std::string v;
    ++i;  // opening quote
    while (s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        const char e = s[i];
        if (e == 'n') v += '\n';
        else if (e == 't') v += '\t';
        else if (e == 'r') v += '\r';
        else if (e == 'u') {
          v += static_cast<char>(std::strtol(s.substr(i + 1, 4).c_str(),
                                             nullptr, 16));
          i += 4;
        } else v += e;
      } else {
        v += s[i];
      }
      ++i;
    }
    ++i;
    return v;
  };
  while (i < s.size() && s[i] != '}') {
    while (s[i] == ' ' || s[i] == ',') ++i;
    const std::string key = read_string();
    i += 2;  // ": "
    std::size_t end = i;
    if (s[i] == '"') {
      out[key] = read_string();
      continue;
    }
    if (s[i] == '{') {
      int depth = 0;
      do {
        depth += s[end] == '{' ? 1 : s[end] == '}' ? -1 : 0;
        ++end;
      } while (depth > 0);
    } else {
      while (s[end] != ',' && s[end] != '}') ++end;
    }
    out[key] = s.substr(i, end - i);
    i = end;
  }
  return out;
}

void test_stats() {
  using perfbench::median;
  using perfbench::percentile;
  using perfbench::quartiles;
  // Expected values from Python 3: statistics.median / quantiles(v, n=4).
  const std::vector<double> ten = {7, 1, 9, 3, 5, 10, 2, 8, 4, 6};
  expect_near(median(ten), 5.5, "median of 1..10");
  const auto q = quartiles(ten);  // [2.75, 5.5, 8.25]
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  expect_near(median({3.0}), 3.0, "median of one sample");
  expect(std::isnan(median({})), "median of nothing is NaN");
  // quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]: Python extrapolates.
  const auto q2 = quartiles({2.0, 1.0});
  expect_near(q2.q1, 0.75, "q1 of two samples");
  expect_near(q2.q3, 2.25, "q3 of two samples");
  // quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
  const auto q5 = quartiles({16, 1, 8, 2, 4});
  expect_near(q5.q1, 1.5, "q1 of five samples");
  expect_near(q5.q3, 12.0, "q3 of five samples");
  // quantiles(range(1, 101), n=100)[89] -> 90.9
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_near(percentile(hundred, 90.0), 90.9, "p90 of 1..100");

  // Tail percentile: the highest with at least ten samples beyond it.
  expect(perfbench::tail_percentile_rank(19) == 0.0, "n=19 has no tail");
  expect(perfbench::tail_percentile_rank(20) == 50.0, "n=20 -> p50");
  expect(perfbench::tail_percentile_rank(100) == 90.0, "n=100 -> p90");
  expect(perfbench::tail_percentile_rank(1000) == 99.0, "n=1000 -> p99");
  expect(perfbench::tail_percentile_rank(10000) == 99.9, "n=10000 -> p99.9");
  const auto s = perfbench::summarize(hundred);
  expect(s.n == 100 && s.tail_rank == 90.0, "summary keeps n and tail rank");
  expect_near(s.tail, 90.9, "summary tail value");
  const auto small = perfbench::summarize({4.0, 1.0, 3.0});
  expect(small.tail_rank == 0.0 && small.tail == 4.0,
         "too few samples: tail is the max");
}

void test_json() {
  const double values[] = {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, -2.5,
                           123456789.0};
  perfbench::JsonObject o;
  auto key = [](std::size_t i) { return std::string("v") += std::to_string(i); };
  for (std::size_t i = 0; i < std::size(values); ++i) o.add(key(i), values[i]);
  o.add("text", "quote\" back\\ nl\n tab\t ctl\x01");
  o.add("count", static_cast<std::int64_t>(-42));
  o.add("ok", true);
  o.add("nan", std::nan(""));
  o.add("inner", perfbench::JsonObject().add("unit", "ms"));
  const auto parsed = parse_flat(o.str());
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const double back = std::strtod(parsed.at(key(i)).c_str(), nullptr);
    expect(std::memcmp(&back, &values[i], sizeof(double)) == 0,
           "number " + std::to_string(i) + " round-trips exactly");
  }
  expect(parsed.at("text") == "quote\" back\\ nl\n tab\t ctl\x01",
         "string escapes round-trip");
  expect(parsed.at("count") == "-42", "integer member");
  expect(parsed.at("ok") == "true", "boolean member");
  expect(parsed.at("nan") == "null", "non-finite numbers become null");
  expect(parsed.at("inner") == "{\"unit\": \"ms\"}", "nested object");
}

void test_inputs() {
  using Buf = std::vector<std::complex<float>>;
  Buf a(4096), b(4096), c(4096), d(4096);
  perfbench::fill_signal(42, 0, a);
  perfbench::fill_signal(42, 0, b);
  perfbench::fill_signal(43, 0, c);
  perfbench::fill_signal(42, 1, d);
  expect(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0,
         "same seed and stream give byte-identical inputs");
  expect(std::memcmp(a.data(), c.data(), a.size() * sizeof(a[0])) != 0,
         "a different seed gives different inputs");
  expect(std::memcmp(a.data(), d.data(), a.size() * sizeof(a[0])) != 0,
         "a different stream gives different inputs");
  bool in_range = true;
  for (const auto& v : a) {
    in_range = in_range && v.real() >= -1.0f && v.real() < 1.0f &&
               v.imag() >= -1.0f && v.imag() < 1.0f;
  }
  expect(in_range, "samples lie in [-1, 1)");

  perfbench::InputRng r1(7, 7), r2(7, 7), r3(8, 7);
  const auto b1 = perfbench::mix_batch(r1);
  const auto b2 = perfbench::mix_batch(r2);
  const auto b3 = perfbench::mix_batch(r3);
  auto same = [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].n != y[i].n || x[i].inverse != y[i].inverse ||
          x[i].input != y[i].input) {
        return false;
      }
    }
    return true;
  };
  expect(same(b1, b2), "same seed gives the same request stream");
  expect(!same(b1, b3), "a different seed gives a different stream");
  std::map<std::size_t, unsigned> count;
  for (const auto& item : b1) ++count[item.n];
  bool multiset = b1.size() == 2 * (16 + 4 + 1 + 21 + 16);
  for (std::size_t s = 0; s < std::size(perfbench::kMixSizes); ++s) {
    multiset = multiset &&
               count[perfbench::kMixSizes[s]] == 2 * perfbench::kMixPerBatch[s];
  }
  expect(multiset, "every batch holds the same multiset of requests");
}

void test_trace() {
  perfbench::Tracer t;
  const int outer = t.begin("outer");
  const int inner = t.begin("inner");
  t.end(inner);
  t.end(outer);
  const auto& spans = t.spans();
  expect(spans.size() == 2 && spans[1].parent == 0 && spans[0].parent == -1,
         "spans record their parent");
  expect(t.self_s("outer") <= t.total_s("outer") &&
             std::abs(t.self_s("outer") + t.total_s("inner") -
                      t.total_s("outer")) < 1e-12,
         "self time is the span minus its children");
  bool threw = false;
  const int a = t.begin("a");
  t.begin("b");
  try {
    t.end(a);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing a span out of order throws");
}

}  // namespace

int main() {
  test_stats();
  test_json();
  test_inputs();
  test_trace();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
