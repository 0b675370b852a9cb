#pragma once
// Small measurement helpers shared by the benchmark's files: a sample
// vector with quantiles, a steady wall clock, and an interval set whose
// covered length is the union of its intervals.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

namespace qb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Raw samples of one quantity; quantiles by linear interpolation.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// 0 when empty, so a layer that did no work reads 0, not NaN.
  double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
  double median() const { return quantile(0.5); }
  double sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }
  double mean() const { return values_.empty() ? 0.0 : sum() / static_cast<double>(count()); }
  double max() const {
    return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  }

 private:
  std::vector<double> values_;
};

/// Closed intervals on one time axis. covered() is the length of their
/// union, so overlapping work on several threads is counted once.
class IntervalSet {
 public:
  void add(double start, double end) {
    if (end > start) spans_.emplace_back(start, end);
  }
  void append(const IntervalSet& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  double total() const {
    double t = 0.0;
    for (const auto& [s, e] : spans_) t += e - s;
    return t;
  }
  /// Length of the union, clipped to [lo, hi].
  double covered(double lo, double hi) const {
    std::vector<std::pair<double, double>> sorted = spans_;
    std::sort(sorted.begin(), sorted.end());
    double out = 0.0;
    double cur_s = 0.0;
    double cur_e = -1.0;
    bool open = false;
    for (auto [s, e] : sorted) {
      s = std::max(s, lo);
      e = std::min(e, hi);
      if (e <= s) continue;
      if (open && s <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) out += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
    if (open) out += cur_e - cur_s;
    return out;
  }

 private:
  std::vector<std::pair<double, double>> spans_;
};

}  // namespace qb
