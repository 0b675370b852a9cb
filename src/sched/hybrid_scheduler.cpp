#include "sched/hybrid_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "sched/baselines.hpp"

namespace qon::sched {

PreprocessResult preprocess_jobs(const SchedulingInput& input) {
  PreprocessResult result;
  result.compact.qpus = input.qpus;
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    const auto& job = input.jobs[j];
    bool feasible = false;
    for (std::size_t q = 0; q < input.qpus.size(); ++q) {
      if (input.qpus[q].online && job.qubits <= input.qpus[q].size &&
          q < job.est_exec_seconds.size() && std::isfinite(job.est_exec_seconds[q])) {
        feasible = true;
        break;
      }
    }
    if (feasible) {
      result.compact.jobs.push_back(job);
      result.kept_indices.push_back(j);
    } else {
      result.filtered_indices.push_back(j);
    }
  }
  return result;
}

ScheduleDecision schedule_cycle(const SchedulingInput& input, const SchedulerConfig& config) {
  if (config.fidelity_weight < 0.0 || config.fidelity_weight > 1.0) {
    throw std::invalid_argument("schedule_cycle: fidelity_weight must be in [0, 1]");
  }
  for (const auto& job : input.jobs) {
    // Negated form so NaN is rejected too.
    if (job.fidelity_weight &&
        !(*job.fidelity_weight >= 0.0 && *job.fidelity_weight <= 1.0)) {
      throw std::invalid_argument("schedule_cycle: job " + std::to_string(job.id) +
                                  " fidelity_weight must be in [0, 1]");
    }
  }
  ScheduleDecision decision;
  decision.assignment.assign(input.jobs.size(), -1);

  // ---- stage (a): job pre-processing --------------------------------------
  Stopwatch sw;
  const PreprocessResult pre = preprocess_jobs(input);
  decision.filtered_jobs = pre.filtered_indices;
  decision.preprocess_seconds = sw.seconds();
  if (pre.compact.jobs.empty()) return decision;

  // ---- stage (b): multi-objective optimization ----------------------------
  sw.reset();
  const SchedulingProblem problem(pre.compact);
  moo::Nsga2Result result;
  if (pre.compact.jobs.size() == 1) {
    // One job is one variable over the QPUs: enumerate every feasible
    // placement and keep the exact front, sorted like NSGA-II's.
    std::vector<moo::Solution> all;
    std::vector<std::vector<double>> objectives;
    for (const int q : problem.feasible_qpus(0)) {
      all.push_back({{q}, {}});
      problem.evaluate(all.back().genome, all.back().objectives);
      objectives.push_back(all.back().objectives);
    }
    for (const std::size_t i : moo::non_dominated_indices(objectives)) {
      result.front.push_back(std::move(all[i]));
    }
    std::stable_sort(result.front.begin(), result.front.end(),
                     [](const moo::Solution& a, const moo::Solution& b) {
                       return a.objectives[0] < b.objectives[0];
                     });
    result.evaluations = all.size();
  } else {
    // Seed NSGA-II with the heuristic extremes so the front always covers
    // the best-fidelity and least-busy corners of the objective space.
    auto nsga2_config = config.nsga2;
    nsga2_config.initial_genomes.push_back(assign_best_fidelity_fcfs(pre.compact));
    nsga2_config.initial_genomes.push_back(assign_least_busy(pre.compact));
    result = moo::nsga2(problem, nsga2_config);
  }
  decision.optimize_seconds = sw.seconds();
  decision.nsga2_generations = result.generations;
  decision.nsga2_evaluations = result.evaluations;
  if (result.front.empty()) {
    throw std::logic_error("schedule_cycle: the optimizer returned an empty front");
  }

  // ---- stage (c): MCDM selection -------------------------------------------
  sw.reset();
  // Preference vectors over (JCT, error): a job's fidelity_weight applies
  // to the error objective, the rest to JCT. Jobs without their own weight
  // use the cycle-wide default.
  std::vector<double> job_weights;
  job_weights.reserve(pre.compact.jobs.size());
  bool uniform = true;
  for (const auto& job : pre.compact.jobs) {
    job_weights.push_back(job.fidelity_weight.value_or(config.fidelity_weight));
    if (job_weights.back() != job_weights.front()) uniform = false;
  }

  std::vector<int> chosen_genome(pre.compact.jobs.size(), 0);
  if (uniform) {
    // One preference for the whole batch: pick a single Pareto-optimal
    // schedule (the pre-QoS behavior when every job uses the default).
    const std::vector<double> preference = {1.0 - job_weights.front(),
                                            job_weights.front()};
    const std::size_t pick = moo::select_by_pseudo_weight(result.front, preference);
    chosen_genome = result.front[pick].genome;
    decision.chosen.mean_jct = result.front[pick].objectives[0];
    decision.chosen.mean_error = result.front[pick].objectives[1];
  } else {
    // Heterogeneous preferences: each job takes its placement from the
    // front schedule whose pseudo-weights sit closest to its own
    // preference, so tenants in one cycle land on different Pareto points.
    std::vector<std::vector<double>> objs;
    objs.reserve(result.front.size());
    for (const auto& sol : result.front) objs.push_back(sol.objectives);
    std::vector<std::vector<double>> preferences;
    preferences.reserve(job_weights.size());
    for (const double w : job_weights) preferences.push_back({1.0 - w, w});
    const auto picks = moo::select_each_by_pseudo_weight(objs, preferences);
    for (std::size_t c = 0; c < chosen_genome.size(); ++c) {
      chosen_genome[c] = result.front[picks[c]].genome[c];
    }
    // The composite is feasible per job (every front genome is) but need
    // not coincide with a front member — evaluate it for the report.
    std::vector<double> chosen_objectives;
    problem.evaluate(chosen_genome, chosen_objectives);
    decision.chosen.mean_jct = chosen_objectives[0];
    decision.chosen.mean_error = chosen_objectives[1];
  }
  decision.select_seconds = sw.seconds();
  decision.chosen_mean_exec_seconds = problem.mean_execution_time(chosen_genome);

  double min_exec = std::numeric_limits<double>::infinity();
  double max_exec = 0.0;
  for (const auto& sol : result.front) {
    decision.pareto_front.push_back({sol.objectives[0], sol.objectives[1]});
    const double exec = problem.mean_execution_time(sol.genome);
    min_exec = std::min(min_exec, exec);
    max_exec = std::max(max_exec, exec);
  }
  decision.min_front_exec_seconds = min_exec;
  decision.max_front_exec_seconds = max_exec;

  // Scatter the compact assignment back to original job positions.
  for (std::size_t c = 0; c < chosen_genome.size(); ++c) {
    decision.assignment[pre.kept_indices[c]] = chosen_genome[c];
  }
  return decision;
}

}  // namespace qon::sched
