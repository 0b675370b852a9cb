#pragma once
// The benchmark's check of one completed run's output, and the digest the
// determinism self-check compares.

#include <cstdint>
#include <map>
#include <string>

#include "api/types.hpp"

namespace qb {

/// What a completed run's report is checked against.
struct Expectation {
  int shots = 0;         ///< of the run's quantum task
  bool counts = false;   ///< the task must carry trajectory counts
  std::size_t tasks = 0; ///< nodes of the image's chain
};

/// Outcome of the four checks on one run:
///   1. every fidelity lies in [0, 1];
///   2. trajectory counts sum to the shot count;
///   3. every TaskResult.resource names a fleet QPU or a classical node;
///   4. every task starts at or after the run's submitted_at, and the tasks
///      of the chain follow DAG order.
/// `starts_before_submit` is the first half of check 4 on its own. It is a
/// known defect: classical and immediate-mode quantum tasks are stamped
/// from virtual t=0 instead of from the run's submission.
struct CheckVerdict {
  bool valid = true;                 ///< all four checks pass
  bool starts_before_submit = false;
  bool broken = false;               ///< a check other than that half failed
  std::string first_failure;         ///< empty when valid
};

/// Names of every resource a task may run on, mapped to the QPU index
/// (-1 for classical nodes).
using ResourceIndex = std::map<std::string, int>;

CheckVerdict check_run(const qon::api::RunInfo& info,
                       const qon::api::WorkflowResult& result,
                       const Expectation& expect, const ResourceIndex& resources);

/// FNV-1a over (run id, QPU index, finished_at, fidelity) of each run, in
/// the order the runs are folded in.
class Digest {
 public:
  void add(std::uint64_t run, int qpu, double finished_at, double fidelity);
  std::uint64_t value() const { return hash_; }

 private:
  void mix(std::uint64_t word);
  std::uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace qb
