// The orchestrator benchmark.
//
//   qon_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics (end_to_end.cpp), --trace 1 the
// per-layer breakdown (per_layer.cpp). Every metric is printed by name with
// its unit and sample count; the last line of stdout is one JSON object
// with the keys correct, attempted, failed and metrics. Exits non-zero,
// without that line, on bad arguments or when a run cannot proceed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

#ifndef QB_COMPILER
#define QB_COMPILER "unknown"
#endif
#ifndef QB_BUILD_TYPE
#define QB_BUILD_TYPE "unknown"
#endif

namespace {

bool parse(int argc, char** argv, qb::Options& opt) {
  if (argc % 2 == 0) return false;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  qb::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const qb::WorkloadSpec* spec = qb::find_workload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", opt.workload.c_str());
    for (const std::string& name : qb::workload_names()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("machine: nproc=%u compiler=%s build=%s\n", std::thread::hardware_concurrency(),
              QB_COMPILER, QB_BUILD_TYPE);
  std::printf("workload %s seed %llu seconds %.1f trace %d\n", spec->name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  try {
    return opt.trace ? qb::run_per_layer(*spec, opt) : qb::run_end_to_end(*spec, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
