// Cross-module integration tests: the full pipeline from trained estimators
// through the cloud simulation, plan-driven workflow execution, and the
// replicated system monitor under the orchestrator.

#include <gtest/gtest.h>

#include "circuit/library.hpp"
#include "cloudsim/simulation.hpp"
#include "core/orchestrator.hpp"
#include "estimator/dataset.hpp"
#include "estimator/models.hpp"
#include "estimator/plans.hpp"
#include "qpu/fleet.hpp"

namespace qon {
namespace {

TEST(Integration, TrainedEstimatorsDriveTheCloudSimulation) {
  // Train estimators on one fleet archive, then run the simulation with the
  // regression models in the scheduling loop (the full §6 + §7 pipeline).
  auto fleet = qpu::make_ibm_like_fleet(4, 4242);
  estimator::ArchiveConfig archive_config;
  archive_config.num_runs = 500;
  archive_config.seed = 17;
  const auto archive = estimator::generate_run_archive(fleet, archive_config);

  estimator::FidelityEstimator fidelity_model;
  estimator::RuntimeEstimator runtime_model;
  ASSERT_GT(fidelity_model.train(archive).cv_r2, 0.5);
  ASSERT_GT(runtime_model.train(archive).cv_r2, 0.9);

  cloudsim::CloudSimConfig config;
  config.num_qpus = 4;
  config.seed = 4242;
  config.workload.jobs_per_hour = 300.0;
  config.workload.duration_hours = 0.1;
  config.workload.seed = 4242;
  config.queue_trigger = 15;
  config.fidelity_model = &fidelity_model;
  config.runtime_model = &runtime_model;
  const auto result = cloudsim::run_cloud_simulation(config);
  EXPECT_GT(result.apps.size(), 0u);
  for (const auto& app : result.apps) {
    EXPECT_GT(app.est_fidelity, 0.0);
    EXPECT_LE(app.est_fidelity, 1.0);
  }
}

TEST(Integration, ModelDrivenPlansAgreeWithFallbackDirection) {
  auto fleet = qpu::make_ibm_like_fleet(3, 99);
  estimator::ArchiveConfig archive_config;
  archive_config.num_runs = 500;
  archive_config.seed = 23;
  const auto archive = estimator::generate_run_archive(fleet, archive_config);
  estimator::FidelityEstimator fidelity_model;
  estimator::RuntimeEstimator runtime_model;
  fidelity_model.train(archive);
  runtime_model.train(archive);

  const auto templates = fleet.template_backends();
  const auto circ = circuit::qaoa_maxcut(10, 1, 3);
  const auto model_plans = estimator::generate_resource_plans(circ, templates, {},
                                                              &fidelity_model, &runtime_model);
  const auto fallback_plans = estimator::generate_resource_plans(circ, templates, {});
  ASSERT_FALSE(model_plans.pareto.empty());
  ASSERT_FALSE(fallback_plans.pareto.empty());
  // Both agree that mitigation raises fidelity relative to none (direction).
  auto fidelity_of = [](const estimator::PlanSet& plans, const std::string& name) {
    for (const auto& p : plans.all) {
      if (p.spec.to_string() == name && p.accelerator == mitigation::Accelerator::kCpu) {
        return p.est_fidelity;
      }
    }
    return -1.0;
  };
  EXPECT_GT(fidelity_of(model_plans, "zne"), fidelity_of(model_plans, "none"));
  EXPECT_GT(fidelity_of(fallback_plans, "zne"), fidelity_of(fallback_plans, "none"));
}

TEST(Integration, OrchestratorWithReplicatedMonitor) {
  core::QonductorConfig config;
  config.num_qpus = 3;
  config.seed = 77;
  config.replicated_monitor = true;  // system monitor backed by Raft (§4.1)
  core::Qonductor qonductor(config);
  EXPECT_TRUE(qonductor.monitor().replicated());

  api::CreateWorkflowRequest create;
  create.name = "replicated-run";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 1000));
  const auto created = qonductor.createWorkflow(std::move(create));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  api::DeployRequest deploy_request;
  deploy_request.image = created->image;
  ASSERT_TRUE(qonductor.deploy(deploy_request).ok());

  api::InvokeRequest invoke_request;
  invoke_request.image = created->image;
  const auto handle = qonductor.invoke(invoke_request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  EXPECT_EQ(handle->wait(), core::WorkflowStatus::kCompleted);
  api::GetRunRequest get_request;
  get_request.run = handle->id();
  const auto run_info = qonductor.getRun(get_request);
  ASSERT_TRUE(run_info.ok()) << run_info.status().to_string();
  EXPECT_EQ(run_info->info.status, core::WorkflowStatus::kCompleted);
  // Fleet state is readable back from the replicated monitor.
  const auto info = qonductor.monitor().qpu(qonductor.fleet().backends[0]->name());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->qubits, 27);
}

TEST(Integration, ReservationsRemoveQpusFromScheduling) {
  // §7 "Priority access": reserved QPUs are treated as offline.
  sched::SchedulingInput input;
  input.qpus = {{"reserved", 27, 0.0, false}, {"open", 27, 500.0, true}};
  for (int j = 0; j < 10; ++j) {
    sched::QuantumJob job;
    job.id = static_cast<std::uint64_t>(j);
    job.qubits = 5;
    job.est_fidelity = {0.99, 0.6};  // reserved QPU would be far better
    job.est_exec_seconds = {1.0, 5.0};
    input.jobs.push_back(job);
  }
  const auto decision = sched::schedule_cycle(input, {});
  for (int a : decision.assignment) EXPECT_EQ(a, 1);  // only the open QPU
}

}  // namespace
}  // namespace qon
