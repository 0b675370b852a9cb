#pragma once
// The scheduling optimization problem of Eq. 1: decision variable x_i is
// the QPU assigned to job i; objectives are mean JCT and mean error
// (1 - mean fidelity), both minimized, subject to q_i <= s_{x_i}.

#include "moo/problem.hpp"
#include "sched/job.hpp"

namespace qon::sched {

/// Eq. 1 as a moo::IntegerProblem. Pre-computes each job's feasible QPU set
/// (size + online filters); repair() snaps infeasible genes to the nearest
/// feasible QPU. Jobs with no feasible QPU must be filtered out before
/// construction (see preprocess_jobs).
class SchedulingProblem : public moo::IntegerProblem {
 public:
  explicit SchedulingProblem(const SchedulingInput& input);

  std::size_t num_variables() const override;
  int lower_bound(std::size_t i) const override;
  int upper_bound(std::size_t i) const override;
  std::size_t num_objectives() const override { return 2; }

  /// objectives[0] = mean JCT (Eq. 1 f1), objectives[1] = mean error (f2).
  void evaluate(const std::vector<int>& genome,
                std::vector<double>& objectives) const override;

  void repair(std::vector<int>& genome) const override;

  /// Mean execution time of the assignment (Fig. 10a's metric).
  double mean_execution_time(const std::vector<int>& genome) const;

  const SchedulingInput& input() const { return *input_; }

  /// QPU indices job `job` can run on, ascending.
  const std::vector<int>& feasible_qpus(std::size_t job) const { return feasible_[job]; }

 private:
  bool feasible_on(std::size_t job, int qpu) const;

  const SchedulingInput* input_;
  std::vector<std::vector<int>> feasible_;  ///< per-job feasible QPU indices
};

}  // namespace qon::sched
