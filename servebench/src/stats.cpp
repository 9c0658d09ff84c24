#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace servebench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  const double frac = pos - double(i);
  return v[i] + frac * (v[i + 1] - v[i]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / double(v.size());
}

int64_t beyond(const std::vector<double>& v, double p) {
  const double cut = percentile(v, p);
  return std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; });
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void Report::print_table(const char* title) const {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics_)
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void Report::print_json(bool correct, int64_t attempted,
                        int64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace servebench
