// Sample statistics and the result record the benchmark prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p` in [0, 100].
inline double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Highest whole percentile (>= 50) that still has at least ten samples
/// beyond it; 50 when the sample is too small for any higher one.
inline int tail_percentile(std::size_t n) {
  int best = 50;
  for (int p = 50; p < 100; ++p) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) best = p;
  }
  return best;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
inline std::string result_json(bool correct, int attempted, int failed,
                               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted) +
       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Non-finite values are not JSON; a metric that could not be measured
    // is reported as -1 and the run is already marked incorrect.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

}  // namespace perfbench
