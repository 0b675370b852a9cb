#pragma once
// The benchmark's output: every metric printed by name with its unit and
// sample count, then one JSON line with the keys correct, attempted,
// failed and metrics.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "session.hpp"

namespace qb {

/// What the command line asks for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples);
  bool all_finite() const;
  /// The human-readable lines, then the JSON result as the last line.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
};

/// One line of run counts for a pass, plus its group wall-time spread.
void print_pass(const char* label, const PassStats& stats);

/// Peak resident set size of this process so far.
double peak_rss_mb();

/// The two modes of a run: end-to-end metrics with tracing off, and the
/// per-layer breakdown.
int run_end_to_end(const WorkloadSpec& spec, const Options& opt);
int run_per_layer(const WorkloadSpec& spec, const Options& opt);

}  // namespace qb
