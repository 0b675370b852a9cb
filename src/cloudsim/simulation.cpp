#include "cloudsim/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "cloudsim/qpu_worker.hpp"
#include "estimator/execution_model.hpp"
#include "estimator/features.hpp"
#include "sched/baselines.hpp"
#include "sched/triggers.hpp"
#include "transpiler/transpiler.hpp"

namespace qon::cloudsim {

const char* policy_name(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kQonductor: return "qonductor";
    case SchedulingPolicy::kBestFidelityFcfs: return "fcfs-best-fidelity";
    case SchedulingPolicy::kLeastBusy: return "least-busy";
  }
  return "?";
}

double SimulationResult::mean_fidelity() const {
  if (apps.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& a : apps) acc += a.measured_fidelity;
  return acc / static_cast<double>(apps.size());
}

double SimulationResult::mean_jct() const {
  if (apps.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& a : apps) acc += a.jct();
  return acc / static_cast<double>(apps.size());
}

double SimulationResult::mean_utilization() const {
  if (qpu_busy_seconds.empty() || horizon_seconds <= 0.0) return 0.0;
  double acc = 0.0;
  for (double b : qpu_busy_seconds) acc += std::min(b / horizon_seconds, 1.0);
  return acc / static_cast<double>(qpu_busy_seconds.size());
}

namespace {

/// An application with everything precomputed that does not depend on the
/// (drifting) calibration: transpilation, mitigation signature and
/// per-backend execution times (gate durations do not drift).
struct PreparedApp {
  HybridApp app;
  transpiler::TranspileResult transpiled;
  mitigation::MitigationSignature signature;
  std::vector<double> exec_seconds;  ///< per backend, incl. multipliers
  AppRecord record;
  bool scheduled = false;
};

}  // namespace

SimulationResult run_cloud_simulation(const CloudSimConfig& config) {
  if (config.num_qpus == 0) throw std::invalid_argument("run_cloud_simulation: no QPUs");
  Rng rng(config.seed);
  const sim::HiddenNoise hidden(config.seed ^ 0xfeedULL, config.hidden_sigma);

  auto fleet = qpu::make_ibm_like_fleet(config.num_qpus, config.seed ^ 0xf1ee7ULL,
                                        config.fleet_best_quality, config.fleet_worst_quality);
  const auto templates = fleet.template_backends();
  const auto& tmpl = templates.front();

  // ---- generate + prepare the workload ------------------------------------
  const auto workload = generate_workload(config.workload);
  std::vector<PreparedApp> prepared;
  prepared.reserve(workload.size());
  std::size_t unscheduled = 0;
  for (const auto& app : workload) {
    if (app.logical.num_qubits() > tmpl.num_qubits()) {
      ++unscheduled;  // cannot fit any QPU: filtered at pre-processing
      continue;
    }
    PreparedApp p;
    p.app = app;
    p.transpiled = transpiler::transpile(app.logical, tmpl);
    p.signature = mitigation::compute_signature(
        app.spec, static_cast<std::size_t>(app.logical.num_qubits()),
        static_cast<std::size_t>(p.transpiled.circuit.depth()),
        p.transpiled.circuit.two_qubit_gate_count(),
        static_cast<std::size_t>(p.transpiled.circuit.num_clbits()),
        tmpl.calibration().mean_gate_error_2q(), app.accelerator);
    p.exec_seconds.reserve(fleet.backends.size());
    for (const auto& backend : fleet.backends) {
      const auto sched = transpiler::asap_schedule(p.transpiled.circuit, *backend);
      p.exec_seconds.push_back(transpiler::job_quantum_runtime(sched, app.shots, *backend) *
                               p.signature.quantum_runtime_multiplier);
    }
    p.record.id = app.id;
    p.record.arrival = app.arrival_time;
    p.record.width = app.logical.num_qubits();
    p.record.shots = app.shots;
    p.record.mitigated = !app.spec.stack.empty();
    p.record.classical_seconds =
        p.signature.classical_preprocess_seconds + p.signature.classical_postprocess_seconds;
    prepared.push_back(std::move(p));
  }

  // ---- simulation state ----------------------------------------------------
  EventQueue events;
  SimulationResult result;
  result.generated_apps = workload.size();
  result.unscheduled_apps = unscheduled;

  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < prepared.size(); ++i) by_id[prepared[i].app.id] = i;

  std::vector<std::unique_ptr<QpuWorker>> workers;
  for (std::size_t q = 0; q < fleet.backends.size(); ++q) {
    result.qpu_names.push_back(fleet.backends[q]->name());
    workers.push_back(std::make_unique<QpuWorker>(
        fleet.backends[q]->name(), &events,
        [&, q](const QpuJob& job, double start, double end) {
          auto& p = prepared[by_id.at(job.app_id)];
          p.record.start = start;
          p.record.quantum_done = end;
          p.record.quantum_exec_seconds = job.exec_seconds;
          // Read through the fleet: recalibration swaps in new backends.
          p.record.measured_fidelity = estimator::executed_fidelity(
              p.transpiled.circuit, *fleet.backends[q], p.signature, hidden,
              config.crosstalk_factor, p.app.shots, rng);
          // Classical post-processing completes the application; the node
          // pool has effectively unlimited capacity (paper: classical waits
          // are ~0), so it adds processing time only.
          const double done = end + p.record.classical_seconds;
          events.schedule_at(done, [&, done] {
            p.record.completion = done;
            result.apps.push_back(p.record);
          });
        }));
  }

  std::vector<std::size_t> pending;  // indices into `prepared`

  // Builds the scheduler-facing estimates for the pending set under the
  // current calibrations and queue waits.
  auto build_input = [&](double now) {
    sched::SchedulingInput input;
    for (std::size_t q = 0; q < fleet.backends.size(); ++q) {
      sched::QpuState state;
      state.name = fleet.backends[q]->name();
      state.size = fleet.backends[q]->num_qubits();
      state.queue_wait_seconds = workers[q]->queue_wait(now);
      input.qpus.push_back(state);
    }
    for (std::size_t idx : pending) {
      auto& p = prepared[idx];
      sched::QuantumJob job;
      job.id = p.app.id;
      job.qubits = p.app.logical.num_qubits();
      job.shots = p.app.shots;
      job.arrival_time = p.app.arrival_time;
      job.est_exec_seconds = p.exec_seconds;
      job.est_fidelity.reserve(fleet.backends.size());
      for (std::size_t q = 0; q < fleet.backends.size(); ++q) {
        if (config.fidelity_model != nullptr && config.fidelity_model->trained()) {
          const auto features = estimator::extract_features(p.transpiled, p.app.shots,
                                                            p.app.spec, *fleet.backends[q]);
          job.est_fidelity.push_back(config.fidelity_model->estimate(features));
        } else {
          job.est_fidelity.push_back(estimator::predicted_fidelity(
              p.transpiled.circuit, *fleet.backends[q], p.signature));
        }
      }
      input.jobs.push_back(std::move(job));
    }
    return input;
  };

  auto dispatch = [&](std::size_t prepared_idx, int qpu, double now, double est_fidelity) {
    auto& p = prepared[prepared_idx];
    p.scheduled = true;
    p.record.scheduled_at = now;
    p.record.qpu = qpu;
    p.record.qpu_name = fleet.backends[static_cast<std::size_t>(qpu)]->name();
    p.record.est_fidelity = est_fidelity;
    workers[static_cast<std::size_t>(qpu)]->submit(
        {p.app.id, p.exec_seconds[static_cast<std::size_t>(qpu)]});
  };

  // One Qonductor scheduling cycle over the pending set.
  auto run_cycle = [&] {
    if (pending.empty()) return;
    const double now = events.now();
    const auto input = build_input(now);
    auto scheduler_config = config.scheduler;
    scheduler_config.nsga2.seed = rng();
    const auto decision = sched::schedule_cycle(input, scheduler_config);

    CycleRecord cycle;
    cycle.time = now;
    cycle.chosen = decision.chosen;
    cycle.preprocess_seconds = decision.preprocess_seconds;
    cycle.optimize_seconds = decision.optimize_seconds;
    cycle.select_seconds = decision.select_seconds;
    cycle.chosen_exec_seconds = decision.chosen_mean_exec_seconds;
    cycle.min_front_exec_seconds = decision.min_front_exec_seconds;
    cycle.max_front_exec_seconds = decision.max_front_exec_seconds;
    if (!decision.pareto_front.empty()) {
      cycle.min_front_jct = decision.pareto_front.front().mean_jct;
      cycle.max_front_jct = decision.pareto_front.front().mean_jct;
      cycle.min_front_fidelity = decision.pareto_front.front().mean_fidelity();
      cycle.max_front_fidelity = decision.pareto_front.front().mean_fidelity();
      for (const auto& pt : decision.pareto_front) {
        cycle.min_front_jct = std::min(cycle.min_front_jct, pt.mean_jct);
        cycle.max_front_jct = std::max(cycle.max_front_jct, pt.mean_jct);
        cycle.min_front_fidelity = std::min(cycle.min_front_fidelity, pt.mean_fidelity());
        cycle.max_front_fidelity = std::max(cycle.max_front_fidelity, pt.mean_fidelity());
      }
    }

    std::vector<std::size_t> still_pending;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const int qpu = decision.assignment[j];
      if (qpu < 0) {
        // No QPU can ever host this job: drop it (counted unscheduled).
        ++result.unscheduled_apps;
        continue;
      }
      dispatch(pending[j], qpu, now,
               input.jobs[j].est_fidelity[static_cast<std::size_t>(qpu)]);
      ++cycle.jobs_scheduled;
    }
    pending = std::move(still_pending);
    result.cycles.push_back(cycle);
  };

  // Per-arrival baseline assignment (FCFS / least-busy policies).
  auto assign_single = [&](std::size_t prepared_idx) {
    pending.assign(1, prepared_idx);
    const auto input = build_input(events.now());
    const auto assignment = config.policy == SchedulingPolicy::kBestFidelityFcfs
                                ? sched::assign_best_fidelity_fcfs(input)
                                : sched::assign_least_busy(input);
    if (assignment[0] < 0) {
      ++result.unscheduled_apps;
    } else {
      dispatch(prepared_idx, assignment[0], events.now(),
               input.jobs[0].est_fidelity[static_cast<std::size_t>(assignment[0])]);
    }
    pending.clear();
  };

  // ---- event wiring ---------------------------------------------------------
  sched::ScheduleTrigger trigger(config.queue_trigger, config.timer_trigger_seconds);
  const double arrival_horizon = config.workload.duration_hours * 3600.0;

  for (std::size_t i = 0; i < prepared.size(); ++i) {
    events.schedule_at(prepared[i].app.arrival_time, [&, i] {
      if (config.policy == SchedulingPolicy::kQonductor) {
        pending.push_back(i);
        if (trigger.should_fire(events.now(), pending.size())) {
          run_cycle();
          trigger.notify_fired(events.now());
        }
      } else {
        assign_single(i);
      }
    });
  }

  // Timer trigger: periodic cycles while arrivals continue (plus one drain
  // pass afterwards).
  if (config.policy == SchedulingPolicy::kQonductor) {
    const double interval = config.timer_trigger_seconds;
    for (double t = interval; t <= arrival_horizon + interval; t += interval) {
      events.schedule_at(t, [&] {
        if (trigger.should_fire(events.now(), pending.size())) {
          run_cycle();
          trigger.notify_fired(events.now());
        }
      });
    }
  }

  // Calibration cycles.
  const double cal_interval = config.calibration_interval_hours * 3600.0;
  for (double t = cal_interval; t <= arrival_horizon; t += cal_interval) {
    events.schedule_at(t, [&] {
      fleet = fleet.recalibrated(rng, events.now());
      if (config.policy == SchedulingPolicy::kQonductor && config.calibration_crossover) {
        // Partition every queue at the calibration boundary: unstarted jobs
        // are re-estimated and re-scheduled under the fresh calibration.
        for (auto& worker : workers) {
          for (const auto& job : worker->drain_unstarted()) {
            pending.push_back(by_id.at(job.app_id));
          }
        }
        if (!pending.empty()) {
          run_cycle();
          trigger.notify_fired(events.now());
        }
      }
    });
  }

  // Queue sampling.
  for (double t = 0.0; t <= arrival_horizon; t += config.queue_sample_interval_seconds) {
    events.schedule_at(t, [&] {
      QueueSample sample;
      sample.time = events.now();
      for (const auto& worker : workers) {
        sample.qpu_queue_lengths.push_back(worker->queue_length() + (worker->busy() ? 1 : 0));
      }
      sample.scheduler_pending = pending.size();
      result.queue_samples.push_back(std::move(sample));
    });
  }

  // ---- run -------------------------------------------------------------------
  const double hard_cap = arrival_horizon * 50.0;
  events.run_until(arrival_horizon);
  // Flush any leftover pending jobs, then drain the queues.
  if (config.policy == SchedulingPolicy::kQonductor && !pending.empty()) run_cycle();
  events.run_until(hard_cap);

  result.horizon_seconds = arrival_horizon;
  for (const auto& worker : workers) result.qpu_busy_seconds.push_back(worker->total_busy_seconds());
  std::sort(result.apps.begin(), result.apps.end(),
            [](const AppRecord& a, const AppRecord& b) { return a.completion < b.completion; });
  return result;
}

}  // namespace qon::cloudsim
