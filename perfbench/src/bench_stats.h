// Sample summaries and the one-line JSON result the benchmark prints.
//
// Timings are reported as a median plus the highest percentile that still
// has at least ten samples beyond it (p99 needs 1000 samples, p99.9 needs
// 10000), always with the sample count. A refused or failed operation is
// recorded at the latency ceiling, so it misses every latency limit.
#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of an ascending vector; 0 when
/// empty.
double Percentile(const std::vector<double>& sorted, double p);

/// The highest of {99.9, 99, 90, 50} with at least ten samples beyond it
/// among `n` samples; 50 when even the median has fewer (n < 20).
double TailPercentileFor(size_t n);

struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;       // Nearest-rank p99 regardless of sample count.
  double tail_pct = 50;  // TailPercentileFor(count).
  double tail = 0;       // Value at tail_pct.
};

/// Sorts `samples` in place and summarizes them.
Summary Summarize(std::vector<double>* samples);

/// A flat JSON object built in insertion order. Numbers keep all their
/// digits (%.17g); non-finite numbers are written as null.
class JsonObject {
 public:
  void Number(const std::string& key, double v);
  void Int(const std::string& key, int64_t v);
  void Bool(const std::string& key, bool v);
  void String(const std::string& key, const std::string& v);
  void Object(const std::string& key, const JsonObject& v);
  /// `{"value": v, "unit": unit}`, the result line's metric shape.
  void Metric(const std::string& key, double v, const std::string& unit);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& s);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const JsonObject& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
