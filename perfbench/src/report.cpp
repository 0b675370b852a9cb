#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace qb {

void Report::add(std::string name, double value, std::string unit, std::size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

bool Report::all_finite() const {
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

void Report::print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %16.6f %-8s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // All digits; a non-finite value (already failing `correct`) must not
    // break the JSON.
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_pass(const char* label, const PassStats& s) {
  std::printf("%s: %llu runs in %.3f s wall (%.1f runs/s), %llu failed, %llu refused, "
              "%llu invalid (%llu start before submit), virtual span %.1f s\n",
              label, static_cast<unsigned long long>(s.completed), s.wall_s, s.runs_per_s(),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.refused),
              static_cast<unsigned long long>(s.invalid),
              static_cast<unsigned long long>(s.starts_before_submit), s.virtual_span());
  std::printf("  group wall ms: p10 %.2f p50 %.2f p90 %.2f max %.2f (n=%zu)\n",
              s.group_s.quantile(0.1) * 1e3, s.group_s.median() * 1e3,
              s.group_s.quantile(0.9) * 1e3, s.group_s.max() * 1e3, s.group_s.count());
  if (!s.first_failure.empty()) std::printf("  first failure: %s\n", s.first_failure.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace qb
