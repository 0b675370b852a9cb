// Tests for the core orchestrator: the system monitor (local and
// Raft-replicated), and the Table-2 API surface end to end — create,
// deploy, invoke, status, results, resource estimation and scheduling —
// exercised directly on core::Qonductor through the typed request/response
// surface (the former synchronous shims are gone). The client facade and
// the async lifecycle corners are covered by tests/test_api.cpp; the run
// table's retention policy by tests/test_run_table.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "circuit/library.hpp"
#include "core/orchestrator.hpp"
#include "core/system_monitor.hpp"

namespace qon::core {
namespace {

TEST(SystemMonitor, LocalPutGetErase) {
  SystemMonitor monitor(false);
  EXPECT_TRUE(monitor.put("k", "v"));
  EXPECT_EQ(monitor.get("k").value_or(""), "v");
  EXPECT_TRUE(monitor.erase("k"));
  EXPECT_FALSE(monitor.get("k").has_value());
  EXPECT_FALSE(monitor.replicated());
}

TEST(SystemMonitor, ReplicatedBackendWorks) {
  SystemMonitor monitor(true);
  EXPECT_TRUE(monitor.replicated());
  EXPECT_TRUE(monitor.put("qpu/x", "state"));
  EXPECT_EQ(monitor.get("qpu/x").value_or(""), "state");
}

TEST(SystemMonitor, QpuRoundTrip) {
  SystemMonitor monitor(false);
  QpuInfo info;
  info.name = "mumbai";
  info.qubits = 27;
  info.queue_length = 12;
  info.queue_wait_seconds = 345.5;
  info.mean_gate_error_2q = 0.011;
  info.calibration_cycle = 7;
  info.online = true;
  monitor.update_qpu(info);
  const auto read = monitor.qpu("mumbai");
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->qubits, 27);
  EXPECT_EQ(read->queue_length, 12u);
  EXPECT_NEAR(read->queue_wait_seconds, 345.5, 1e-9);
  EXPECT_NEAR(read->mean_gate_error_2q, 0.011, 1e-9);
  EXPECT_EQ(read->calibration_cycle, 7u);
  EXPECT_EQ(monitor.qpu_names(), (std::vector<std::string>{"mumbai"}));
  EXPECT_FALSE(monitor.qpu("absent").has_value());
}

TEST(SystemMonitor, AtomicFlagSettersAndDynamicPublishCompose) {
  SystemMonitor monitor(false);
  QpuInfo info;
  info.name = "mumbai";
  info.qubits = 27;
  monitor.update_qpu(info);

  // Field-level setters return the previous value and touch nothing else.
  EXPECT_EQ(monitor.set_qpu_reserved("mumbai", true), std::optional<bool>(false));
  EXPECT_EQ(monitor.set_qpu_reserved("mumbai", true), std::optional<bool>(true));
  EXPECT_EQ(monitor.set_qpu_online("mumbai", false), std::optional<bool>(true));
  EXPECT_FALSE(monitor.set_qpu_online("absent", false).has_value());
  EXPECT_FALSE(monitor.set_qpu_reserved("absent", true).has_value());

  // Republishing dynamic state preserves both flags.
  QpuInfo dynamic = info;
  dynamic.queue_wait_seconds = 99.0;
  monitor.publish_qpu_dynamic(dynamic);
  const auto read = monitor.qpu("mumbai");
  ASSERT_TRUE(read.has_value());
  EXPECT_NEAR(read->queue_wait_seconds, 99.0, 1e-9);
  EXPECT_FALSE(read->online);    // health flip survived the republish
  EXPECT_TRUE(read->reserved);   // reservation survived the republish
}

class OrchestratorFixture : public ::testing::Test {
 protected:
  static QonductorConfig small_config() {
    QonductorConfig config;
    config.num_qpus = 3;
    config.seed = 4242;
    config.trajectory_width_limit = 8;
    return config;
  }

  /// createWorkflow through the typed surface; asserts success.
  static workflow::ImageId create(Qonductor& orchestrator, const std::string& name,
                                  std::vector<workflow::HybridTask> tasks,
                                  const std::string& yaml_config = "") {
    api::CreateWorkflowRequest request;
    request.name = name;
    request.tasks = std::move(tasks);
    request.yaml_config = yaml_config;
    auto created = orchestrator.createWorkflow(std::move(request));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    return created.ok() ? created->image : 0;
  }

  static void deploy(Qonductor& orchestrator, workflow::ImageId image) {
    api::DeployRequest request;
    request.image = image;
    auto deployed = orchestrator.deploy(request);
    ASSERT_TRUE(deployed.ok()) << deployed.status().to_string();
  }

  /// invoke + wait: the blocking convenience the old sync surface offered,
  /// now composed from the async primitives.
  static api::WorkflowResult invoke_and_wait(Qonductor& orchestrator,
                                             workflow::ImageId image) {
    api::InvokeRequest request;
    request.image = image;
    auto handle = orchestrator.invoke(request);
    EXPECT_TRUE(handle.ok()) << handle.status().to_string();
    if (!handle.ok()) return {};
    auto result = handle->result();
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    return result.ok() ? *std::move(result) : api::WorkflowResult{};
  }
};

TEST_F(OrchestratorFixture, PublishesFleetToMonitor) {
  Qonductor orchestrator(small_config());
  EXPECT_EQ(orchestrator.monitor().qpu_names().size(), 3u);
  const auto info = orchestrator.monitor().qpu(orchestrator.fleet().backends[0]->name());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->qubits, 27);
}

TEST_F(OrchestratorFixture, CreateDeployInvokeLifecycle) {
  Qonductor orchestrator(small_config());

  // Listing-2-style hybrid workflow: pre-process, QAOA circuit, post-process.
  std::vector<workflow::HybridTask> tasks;
  tasks.push_back(workflow::HybridTask::classical("zne-prepare", 0.2));
  mitigation::MitigationSpec spec;
  spec.stack = {mitigation::Technique::kRem};
  tasks.push_back(workflow::HybridTask::quantum("qaoa", circuit::qaoa_maxcut(5, 1, 7), 2000, spec));
  tasks.push_back(workflow::HybridTask::classical("zne-inference", 0.4,
                                                  mitigation::Accelerator::kGpu));

  const auto image = create(orchestrator, "qaoa-error-mitigated", std::move(tasks),
                            "resources:\n  limits:\n    qubits: 5\n");
  EXPECT_EQ(orchestrator.listImages(), (std::vector<workflow::ImageId>{image}));
  deploy(orchestrator, image);

  const auto result = invoke_and_wait(orchestrator, image);
  EXPECT_EQ(result.status, WorkflowStatus::kCompleted);
  ASSERT_EQ(result.tasks.size(), 3u);
  EXPECT_EQ(result.tasks[0].kind, workflow::TaskKind::kClassical);
  EXPECT_EQ(result.tasks[1].kind, workflow::TaskKind::kQuantum);
  EXPECT_GT(result.tasks[1].fidelity, 0.2);
  EXPECT_LE(result.tasks[1].fidelity, 1.0);
  EXPECT_FALSE(result.tasks[1].counts.empty());  // small: trajectory-simulated
  EXPECT_FALSE(result.tasks[1].resource.empty());
  EXPECT_GT(result.total_cost_dollars, 0.0);
  EXPECT_GT(result.makespan_seconds, 0.0);
  // Tasks run in dependency order on the virtual clock.
  EXPECT_LE(result.tasks[0].end, result.tasks[1].start + 1e-9);
  EXPECT_LE(result.tasks[1].end, result.tasks[2].start + 1e-9);

  // The run's lifecycle record is queryable and stamped on the fleet clock.
  api::WorkflowStatusRequest status_request;
  status_request.run = result.run;
  auto status = orchestrator.workflowStatus(status_request);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->status, WorkflowStatus::kCompleted);
}

TEST_F(OrchestratorFixture, InvokeRequiresDeploy) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "undeployed",
                            {workflow::HybridTask::classical("only", 0.1)});
  api::InvokeRequest request;
  request.image = image;
  auto handle = orchestrator.invoke(request);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), api::StatusCode::kFailedPrecondition);
}

TEST_F(OrchestratorFixture, DeployRejectsOversizedCircuits) {
  Qonductor orchestrator(small_config());
  circuit::Circuit big(28);
  big.h(0);
  big.measure_all();
  const auto image = create(orchestrator, "too-big",
                            {workflow::HybridTask::quantum("big", big)});
  api::DeployRequest request;
  request.image = image;
  auto deployed = orchestrator.deploy(request);
  ASSERT_FALSE(deployed.ok());
  EXPECT_EQ(deployed.status().code(), api::StatusCode::kResourceExhausted);
}

TEST_F(OrchestratorFixture, CreateWorkflowValidatesInput) {
  Qonductor orchestrator(small_config());
  api::CreateWorkflowRequest request;
  request.name = "empty";
  auto created = orchestrator.createWorkflow(std::move(request));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), api::StatusCode::kInvalidArgument);
}

TEST_F(OrchestratorFixture, LargeCircuitsUseAnalyticModel) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "wide",
                            {workflow::HybridTask::quantum("qft20", circuit::qft(20), 1000)});
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);
  EXPECT_EQ(result.status, WorkflowStatus::kCompleted);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_TRUE(result.tasks[0].counts.empty());  // too wide for trajectories
  // A 20-qubit QFT is deep enough that its ESP can round to zero; only the
  // range invariant holds.
  EXPECT_GE(result.tasks[0].fidelity, 0.0);
  EXPECT_LE(result.tasks[0].fidelity, 1.0);
}

TEST_F(OrchestratorFixture, SequentialQuantumTasksQueueOnFleet) {
  Qonductor orchestrator(small_config());
  std::vector<workflow::HybridTask> tasks;
  tasks.push_back(workflow::HybridTask::quantum("first", circuit::ghz(4), 2000));
  tasks.push_back(workflow::HybridTask::quantum("second", circuit::ghz(4), 2000));
  const auto image = create(orchestrator, "pair", std::move(tasks));
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);
  ASSERT_EQ(result.tasks.size(), 2u);
  EXPECT_GE(result.tasks[1].start, result.tasks[0].end - 1e-9);
}

TEST_F(OrchestratorFixture, EstimateResourcesReturnsPlans) {
  Qonductor orchestrator(small_config());
  const auto plans = orchestrator.estimateResources(circuit::qaoa_maxcut(10, 1, 5));
  EXPECT_FALSE(plans.all.empty());
  EXPECT_FALSE(plans.recommended.empty());
  EXPECT_LE(plans.recommended.size(), 3u);
}

TEST_F(OrchestratorFixture, GenerateScheduleUsesHybridScheduler) {
  Qonductor orchestrator(small_config());
  sched::SchedulingInput input;
  for (const auto& backend : orchestrator.fleet().backends) {
    input.qpus.push_back({backend->name(), backend->num_qubits(), 0.0, true});
  }
  for (int j = 0; j < 10; ++j) {
    sched::QuantumJob job;
    job.id = static_cast<std::uint64_t>(j);
    job.qubits = 5;
    job.est_fidelity.assign(input.qpus.size(), 0.9);
    job.est_exec_seconds.assign(input.qpus.size(), 3.0);
    input.jobs.push_back(job);
  }
  const auto decision = orchestrator.generateSchedule(input);
  for (int a : decision.assignment) EXPECT_GE(a, 0);
}

TEST_F(OrchestratorFixture, UnknownRunIsNotFound) {
  Qonductor orchestrator(small_config());
  api::WorkflowStatusRequest status_request;
  status_request.run = 9999;
  auto status = orchestrator.workflowStatus(status_request);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), api::StatusCode::kNotFound);

  api::GetRunRequest get_request;
  get_request.run = 9999;
  auto info = orchestrator.getRun(get_request);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), api::StatusCode::kNotFound);
}

TEST_F(OrchestratorFixture, RunTableTracksTerminalStatus) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "tracked",
                            {workflow::HybridTask::classical("c", 0.1)});
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);
  api::GetRunRequest request;
  request.run = result.run;
  const auto info = orchestrator.getRun(request);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info->info.status, WorkflowStatus::kCompleted);
}

// Regression: the first task of a run used to start at virtual t = 0, not
// at submission — a run invoked at fleet time 100 ran in the past.
TEST_F(OrchestratorFixture, FirstTaskStartsAtOrAfterSubmission) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "late",
                            {workflow::HybridTask::classical("pre", 2.0),
                             workflow::HybridTask::classical("post", 1.0)});
  deploy(orchestrator, image);
  orchestrator.advanceFleetClock(100.0);
  const auto result = invoke_and_wait(orchestrator, image);
  ASSERT_EQ(result.tasks.size(), 2u);
  EXPECT_GE(result.tasks[0].start, 100.0);
  EXPECT_GE(result.tasks[1].start, result.tasks[0].end - 1e-9);
}

TEST_F(OrchestratorFixture, RunInfoTimestampsFollowTheFleetClock) {
  Qonductor orchestrator(small_config());
  std::vector<workflow::HybridTask> tasks;
  tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(4), 1000));
  tasks.push_back(workflow::HybridTask::classical("post", 0.2));
  const auto image = create(orchestrator, "stamped", std::move(tasks));
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);

  api::GetRunRequest request;
  request.run = result.run;
  auto response = orchestrator.getRun(request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  const api::RunInfo& info = response->info;
  EXPECT_EQ(info.run, result.run);
  EXPECT_EQ(info.image, image);
  EXPECT_EQ(info.status, WorkflowStatus::kCompleted);
  EXPECT_TRUE(info.error.ok());
  // submitted -> started -> finished is monotone on the fleet virtual
  // clock, and the finish stamp has caught up with the executed makespan.
  EXPECT_GE(info.submitted_at, 0.0);
  EXPECT_GE(info.started_at, info.submitted_at);
  EXPECT_GE(info.finished_at, info.started_at);
  EXPECT_GE(info.finished_at, result.makespan_seconds - 1e-9);
  EXPECT_GE(orchestrator.fleetNow(), info.finished_at);
}

TEST_F(OrchestratorFixture, ShutdownIsIdempotentAndKeepsQueriesWorking) {
  Qonductor orchestrator(small_config());
  const auto image = create(orchestrator, "pre-shutdown",
                            {workflow::HybridTask::classical("c", 0.1)});
  deploy(orchestrator, image);
  const auto result = invoke_and_wait(orchestrator, image);

  orchestrator.shutdown();
  orchestrator.shutdown();  // idempotent

  // Queries on existing runs keep answering after shutdown.
  api::GetRunRequest request;
  request.run = result.run;
  auto info = orchestrator.getRun(request);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->info.status, WorkflowStatus::kCompleted);

  // New work is rejected with the typed UNAVAILABLE, not an exception.
  api::InvokeRequest invoke_request;
  invoke_request.image = image;
  auto rejected = orchestrator.invoke(invoke_request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), api::StatusCode::kUnavailable);
}

/// Invokes `runs` runs of a one-task GHZ image as ONE threshold-sized
/// invokeAll group on three engine workers, trajectory-simulated, and
/// returns their results in run order. `during` runs on another thread
/// while the group executes and is told to stop once every run settled.
std::vector<api::WorkflowResult> run_trajectory_group(
    QonductorConfig config, std::size_t runs, std::size_t groups,
    const std::function<void(Qonductor&, const std::atomic<bool>&)>& during = {}) {
  config.executor_threads = 3;
  config.scheduler_service.queue_threshold = runs;
  // Only the threshold fires cycles: a linger-timer cycle on a partly
  // parked group would make batch membership timing-dependent.
  config.scheduler_service.linger = std::chrono::milliseconds(60000);
  Qonductor orchestrator(config);
  api::CreateWorkflowRequest create;
  create.name = "ghz";
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(5), 1000));
  const auto image = orchestrator.createWorkflow(std::move(create));
  EXPECT_TRUE(image.ok());
  api::DeployRequest deploy;
  deploy.image = image->image;
  EXPECT_TRUE(orchestrator.deploy(deploy).ok());

  std::atomic<bool> stop{false};
  std::thread side;
  if (during) side = std::thread([&] { during(orchestrator, stop); });
  std::vector<api::WorkflowResult> results;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<api::InvokeRequest> requests(runs);
    for (auto& request : requests) request.image = image->image;
    auto handles = orchestrator.invokeAll(requests);
    EXPECT_TRUE(handles.ok()) << handles.status().to_string();
    if (!handles.ok()) break;
    for (auto& handle : *handles) {
      auto result = handle.result();
      EXPECT_TRUE(result.ok()) << result.status().to_string();
      if (result.ok()) results.push_back(*std::move(result));
    }
  }
  stop.store(true);
  if (side.joinable()) side.join();
  return results;
}

// Same seed, same submissions, three racing engine workers: every run must
// land on the same QPU and measure the same counts and fidelity. Execution
// draws from a per-task stream, not a shared generator, and a cycle orders
// its batch canonically, so no outcome depends on worker interleaving.
TEST_F(OrchestratorFixture, SameSeedOutcomesDoNotDependOnWorkerInterleaving) {
  constexpr std::size_t kRuns = 24;
  const auto first = run_trajectory_group(small_config(), kRuns, 1);
  const auto second = run_trajectory_group(small_config(), kRuns, 1);
  ASSERT_EQ(first.size(), kRuns);
  ASSERT_EQ(second.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    ASSERT_EQ(first[i].status, WorkflowStatus::kCompleted);
    ASSERT_EQ(first[i].tasks.size(), 1u);
    ASSERT_EQ(second[i].tasks.size(), 1u);
    const TaskResult& a = first[i].tasks[0];
    const TaskResult& b = second[i].tasks[0];
    EXPECT_EQ(first[i].run, second[i].run);
    EXPECT_EQ(a.resource, b.resource) << "run " << first[i].run;
    EXPECT_EQ(a.counts, b.counts) << "run " << first[i].run;
    EXPECT_EQ(a.fidelity, b.fidelity) << "run " << first[i].run;
  }
}

// Recalibration publishes a new calibration generation while executions,
// preps and the health probe read the current one — TSAN-targeted: three
// workers trajectory-simulate while another thread recalibrates in a loop.
TEST_F(OrchestratorFixture, RecalibrationRacesTrajectoryExecution) {
  std::atomic<int> recalibrations{0};
  const auto results = run_trajectory_group(
      small_config(), 12, 4, [&](Qonductor& orchestrator, const std::atomic<bool>& stop) {
        while (!stop.load()) {
          orchestrator.recalibrateFleet();
          ++recalibrations;
          EXPECT_TRUE(orchestrator.getHealth().ok());
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
  ASSERT_EQ(results.size(), 48u);
  for (const auto& result : results) {
    EXPECT_EQ(result.status, WorkflowStatus::kCompleted);
    ASSERT_EQ(result.tasks.size(), 1u);
    EXPECT_GE(result.tasks[0].fidelity, 0.0);
    EXPECT_LE(result.tasks[0].fidelity, 1.0);
  }
  EXPECT_GT(recalibrations.load(), 0);
}

}  // namespace
}  // namespace qon::core
