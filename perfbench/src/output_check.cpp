#include "output_check.hpp"

#include <cstring>

namespace qb {

CheckVerdict check_run(const qon::api::RunInfo& info,
                       const qon::api::WorkflowResult& result,
                       const Expectation& expect, const ResourceIndex& resources) {
  CheckVerdict verdict;
  const auto fail = [&](const std::string& why) {
    if (verdict.valid) verdict.first_failure = why;
    verdict.valid = false;
    verdict.broken = true;
  };

  if (result.tasks.size() != expect.tasks) fail("task count differs from the image");
  if (result.min_fidelity < 0.0 || result.min_fidelity > 1.0) {
    fail("min_fidelity outside [0, 1]");
  }
  for (std::size_t i = 0; i < result.tasks.size(); ++i) {
    const qon::api::TaskResult& task = result.tasks[i];
    if (resources.find(task.resource) == resources.end()) {
      fail("unknown resource '" + task.resource + "'");
    }
    if (task.kind == qon::workflow::TaskKind::kQuantum) {
      if (task.fidelity < 0.0 || task.fidelity > 1.0) fail("fidelity outside [0, 1]");
      if (expect.counts && task.counts.empty()) fail("trajectory counts missing");
      if (!task.counts.empty()) {
        std::uint64_t total = 0;
        for (const auto& [outcome, count] : task.counts) total += count;
        if (total != static_cast<std::uint64_t>(expect.shots)) {
          fail("counts sum to " + std::to_string(total) + ", not the shot count");
        }
      }
    }
    if (task.end < task.start) fail("task ends before it starts");
    if (i > 0 && task.start < result.tasks[i - 1].end) {
      fail("task '" + task.name + "' starts before its predecessor ends");
    }
    if (task.start < info.submitted_at) {
      if (verdict.valid) {
        verdict.first_failure = "task '" + task.name + "' starts before the run was submitted";
      }
      verdict.valid = false;
      verdict.starts_before_submit = true;
    }
  }
  return verdict;
}

void Digest::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(std::uint64_t run, int qpu, double finished_at, double fidelity) {
  std::uint64_t bits = 0;
  mix(run);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(qpu)));
  std::memcpy(&bits, &finished_at, sizeof bits);
  mix(bits);
  std::memcpy(&bits, &fidelity, sizeof bits);
  mix(bits);
}

}  // namespace qb
