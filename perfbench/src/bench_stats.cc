#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Nearest rank of percentile p among n samples (1-based; 0 for p = 0). The
// epsilon keeps 99.9% of 10000 at rank 9990 despite rounding in p / 100.
double Rank(double p, size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  // Nearest rank: the smallest value with at least p% of samples <= it.
  double rank = Rank(p, sorted.size());
  size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

double TailPercentileFor(size_t n) {
  for (double p : {99.9, 99.0, 90.0}) {
    // Samples strictly beyond the nearest-rank position of p.
    double beyond = static_cast<double>(n) - Rank(p, n);
    if (beyond >= 10) return p;
  }
  return 50;
}

Summary Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  Summary s;
  s.count = samples->size();
  if (s.count == 0) return s;
  s.p50 = Percentile(*samples, 50);
  s.p99 = Percentile(*samples, 99);
  s.tail_pct = TailPercentileFor(s.count);
  s.tail = Percentile(*samples, s.tail_pct);
  return s;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out += "\"";
  return out;
}

void JsonObject::Number(const std::string& key, double v) {
  if (!std::isfinite(v)) {
    fields_.emplace_back(key, "null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  fields_.emplace_back(key, buf);
}

void JsonObject::Int(const std::string& key, int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void JsonObject::Bool(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
}

void JsonObject::String(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, JsonQuote(v));
}

void JsonObject::Object(const std::string& key, const JsonObject& v) {
  fields_.emplace_back(key, v.Dump());
}

void JsonObject::Metric(const std::string& key, double v,
                        const std::string& unit) {
  JsonObject m;
  m.Number("value", v);
  m.String("unit", unit);
  Object(key, m);
}

std::string JsonObject::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); i++) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const JsonObject& metrics) {
  JsonObject o;
  o.Bool("correct", correct);
  o.Int("attempted", static_cast<int64_t>(attempted));
  o.Int("failed", static_cast<int64_t>(failed));
  o.Object("metrics", metrics);
  return o.Dump();
}

}  // namespace perfbench
