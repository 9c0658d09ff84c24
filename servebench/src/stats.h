// Sample statistics and the metric report of the serving benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

// Linear-interpolation percentile (p in [0, 100]) of a non-empty sample.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);
// Samples strictly above the p-th percentile: a percentile is reported only
// when at least ten samples lie beyond it.
int64_t beyond(const std::vector<double>& v, double p);

// Maximum resident set size of this process so far, in MB (getrusage).
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// An ordered list of named metrics: printed as an aligned table for people
// and as the final JSON line for tools.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  void print_table(const char* title) const;
  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  void print_json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace servebench
