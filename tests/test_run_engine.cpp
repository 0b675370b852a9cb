// Tests for the event-driven run engine: engine-level unit tests on fake
// step functions (park/resume, fairness reposts, shutdown drain, submit
// rejection), the lifecycle regressions the continuation model introduces
// (cancel while a continuation is parked, shutdown mid-resume, resume-with-
// error ordering), and the scale acceptance scenario — a burst of 2000
// concurrent runs completing on executor_threads = 2 in batch mode, which
// the pre-engine thread-per-run executor could not even batch (two parked
// tasks maximum meant the queue threshold was unreachable).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "circuit/library.hpp"
#include "core/run_engine.hpp"

namespace qon::core {
namespace {

using namespace std::chrono_literals;

// ---- engine on fake step functions -------------------------------------------

TEST(RunEngine, StepsRunsToCompletionAndCountsEvents) {
  constexpr std::size_t kRuns = 16;
  constexpr std::size_t kNodes = 4;
  std::atomic<std::size_t> finished{0};
  RunEngine engine(3, [&finished](const std::shared_ptr<RunContinuation>& cont) {
    if (cont->cursor < kNodes) {
      ++cont->cursor;
      return StepOutcome::kProgress;
    }
    finished.fetch_add(1);
    return StepOutcome::kFinished;
  });
  EXPECT_EQ(engine.workers(), 3u);

  for (std::size_t r = 0; r < kRuns; ++r) {
    ASSERT_TRUE(engine.submit(std::make_shared<RunContinuation>()));
  }
  engine.shutdown();

  EXPECT_EQ(finished.load(), kRuns);
  EXPECT_EQ(engine.live_runs(), 0u);
  // Early submissions may finish while later ones are still arriving, so
  // the peak is only bounded; the park test below pins it exactly.
  EXPECT_GE(engine.peak_live_runs(), 1u);
  EXPECT_LE(engine.peak_live_runs(), kRuns);
  // One submit event + kNodes progress reposts + one finishing step each.
  EXPECT_EQ(engine.events_dispatched(), kRuns * (kNodes + 1));
}

// The decoupling property at the engine level: one worker holds dozens of
// parked runs at once — parking frees the worker instead of blocking it.
TEST(RunEngine, OneWorkerParksManyRunsAndResumesThemAll) {
  constexpr std::size_t kRuns = 64;
  std::mutex mutex;
  std::vector<std::shared_ptr<RunContinuation>> parked;
  std::atomic<std::size_t> finished{0};
  RunEngine engine(1, [&](const std::shared_ptr<RunContinuation>& cont) {
    if (!cont->started) {
      cont->started = true;
      std::lock_guard<std::mutex> lock(mutex);
      parked.push_back(cont);
      return StepOutcome::kParked;
    }
    finished.fetch_add(1);
    return StepOutcome::kFinished;
  });

  for (std::size_t r = 0; r < kRuns; ++r) {
    ASSERT_TRUE(engine.submit(std::make_shared<RunContinuation>()));
  }
  // With a single worker every run must reach its park: wait for that.
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (parked.size() == kRuns) break;
    }
    // Sleep with the mutex released: std::mutex is not fair, and a poller
    // that re-locks right after waking can starve the worker for seconds.
    std::this_thread::sleep_for(1ms);
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(parked.size(), kRuns);  // 64 live runs on one worker
  }
  EXPECT_EQ(engine.live_runs(), kRuns);
  EXPECT_EQ(finished.load(), 0u);

  // External completions (a scheduling cycle, in production) resume them.
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (auto& cont : parked) engine.resume(cont);
  }
  engine.shutdown();
  EXPECT_EQ(finished.load(), kRuns);
  EXPECT_EQ(engine.live_runs(), 0u);
  EXPECT_EQ(engine.peak_live_runs(), kRuns);
}

TEST(RunEngine, ShutdownRejectsNewSubmissionsButDrainsLiveRuns) {
  std::mutex mutex;
  std::shared_ptr<RunContinuation> parked;
  RunEngine engine(2, [&](const std::shared_ptr<RunContinuation>& cont) {
    if (!cont->started) {
      cont->started = true;
      std::lock_guard<std::mutex> lock(mutex);
      parked = cont;
      return StepOutcome::kParked;
    }
    return StepOutcome::kFinished;
  });
  ASSERT_TRUE(engine.submit(std::make_shared<RunContinuation>()));
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex);  // released before the sleep
      if (parked) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_NE(parked, nullptr);

  // Shutdown blocks on the parked run; resume it from another thread —
  // exactly what a scheduler-service flush cycle does during drain.
  std::thread resumer([&] {
    std::this_thread::sleep_for(20ms);
    engine.resume(parked);
  });
  engine.shutdown();
  resumer.join();
  EXPECT_EQ(engine.live_runs(), 0u);

  // Closed for good: new runs are refused, so the caller can fail them
  // UNAVAILABLE instead of leaving waiters stranded.
  EXPECT_FALSE(engine.submit(std::make_shared<RunContinuation>()));
  engine.shutdown();  // idempotent
}

// ---- serving-path fixtures ---------------------------------------------------

workflow::ImageId deploy_image(api::QonductorClient& client, const std::string& name,
                               bool classical_prologue, int shots = 64) {
  api::CreateWorkflowRequest create;
  create.name = name;
  if (classical_prologue) {
    create.tasks.push_back(workflow::HybridTask::classical(name + "-prep", 0.1));
  }
  create.tasks.push_back(workflow::HybridTask::quantum("ghz", circuit::ghz(3), shots));
  auto created = client.createWorkflow(std::move(create));
  EXPECT_TRUE(created.ok()) << created.status().to_string();
  api::DeployRequest deploy;
  deploy.image = created->image;
  auto deployed = client.deploy(deploy);
  EXPECT_TRUE(deployed.ok()) << deployed.status().to_string();
  return created->image;
}

// ---- lifecycle regressions of the continuation model -------------------------

// Cancel while the continuation is parked: the classical prologue already
// ran when cancel() pulls the parked quantum task out of the queue. The
// resume event must collect the cancel verdict, end the run kCancelled and
// keep the prologue's result in the report.
TEST(RunEngineServing, CancelWhileContinuationParkedResumesCancelled) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 101;
  config.executor_threads = 2;
  config.scheduler_service.queue_threshold = 100;  // never reached
  config.scheduler_service.linger = 10s;           // no timer rescue either
  api::QonductorClient client(config);
  const auto image = deploy_image(client, "cancel-parked", /*classical_prologue=*/true);

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  // Wait until the quantum task is parked (classical prologue done).
  for (int i = 0; i < 5000; ++i) {
    auto stats = client.getSchedulerStats();
    ASSERT_TRUE(stats.ok());
    if (stats->stats.queue_depth == 1) break;
    std::this_thread::sleep_for(1ms);
  }

  EXPECT_TRUE(handle->cancel());
  EXPECT_EQ(handle->wait(), api::RunStatus::kCancelled);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->error.code(), api::StatusCode::kCancelled);
  ASSERT_EQ(result->tasks.size(), 1u);  // the prologue ran, the quantum task did not
  EXPECT_EQ(result->tasks[0].kind, workflow::TaskKind::kClassical);
  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.queue_depth, 0u);     // the queue slot was reclaimed
  EXPECT_EQ(stats->stats.jobs_scheduled, 0u);  // no cycle ever dispatched it
}

// Resume-with-error ordering: when a scheduling cycle filters the parked
// task (offline fleet -> RESOURCE_EXHAUSTED), the resume event must fail
// the run with the typed status AFTER booking the prologue's result, and
// the terminal record must be fully stamped.
TEST(RunEngineServing, ResumeWithErrorKeepsPriorTaskResultsAndTypedStatus) {
  QonductorConfig config;
  config.num_qpus = 2;
  config.seed = 103;
  config.executor_threads = 2;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_image(client, "resume-error", /*classical_prologue=*/true);
  auto& monitor = client.backend().monitor();
  for (const auto& name : monitor.qpu_names()) {
    ASSERT_TRUE(monitor.set_qpu_online(name, false).has_value());
  }

  api::InvokeRequest request;
  request.image = image;
  auto handle = client.invoke(request);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  EXPECT_EQ(handle->wait(), api::RunStatus::kFailed);
  auto result = handle->result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->error.code(), api::StatusCode::kResourceExhausted);
  ASSERT_EQ(result->tasks.size(), 1u);  // the classical prologue's record survives
  EXPECT_EQ(result->tasks[0].kind, workflow::TaskKind::kClassical);

  auto info = handle->info();
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->started_at, 0.0);
  EXPECT_GE(info->finished_at, info->started_at);
}

// Shutdown mid-resume: shutdown() begins while parked runs are being
// resumed by in-flight cycles. Every live run must drain to a terminal
// state; none may be stranded parked.
TEST(RunEngineServing, ShutdownMidResumeDrainsEveryLiveRun) {
  constexpr std::size_t kRuns = 32;
  QonductorConfig config;
  config.num_qpus = 3;
  config.seed = 107;
  config.trajectory_width_limit = 0;  // analytic model: fast terminal states
  config.executor_threads = 2;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 8;  // cycles fire mid-burst
  config.scheduler_service.max_batch_size = 8;
  config.scheduler_service.linger = 5ms;
  api::QonductorClient client(config);
  const auto image = deploy_image(client, "shutdown-mid-resume",
                                  /*classical_prologue=*/false);

  std::vector<api::InvokeRequest> requests(kRuns);
  for (auto& request : requests) request.image = image;
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();

  // Shut down immediately: some runs are parked, some are resuming off the
  // first cycles, some are still waiting for their first step.
  client.backend().shutdown();

  for (const auto& handle : *handles) {
    EXPECT_EQ(handle.poll(), api::RunStatus::kCompleted);
  }
  EXPECT_EQ(client.backend().runEngine().live_runs(), 0u);
  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.queue_depth, 0u);
  EXPECT_EQ(stats->stats.jobs_scheduled, kRuns);
}

// ---- the scale acceptance scenario -------------------------------------------

// A burst of 2000 concurrent runs completes on executor_threads = 2 in
// batch mode. Impossible pre-engine: two blocked executor threads meant a
// scheduling cycle could see at most two parked jobs, so the 200-job
// threshold below could never fire. With the engine, two workers park the
// whole burst and the cycles batch it by the hundreds.
TEST(RunEngineServing, TwoThousandConcurrentRunsCompleteOnTwoWorkers) {
  constexpr std::size_t kRuns = 2000;
  QonductorConfig config;
  config.num_qpus = 4;
  config.seed = 109;
  config.trajectory_width_limit = 0;  // analytic model: keep the burst fast
  config.executor_threads = 2;
  config.retention.max_terminal_runs = kRuns + 8;
  config.scheduler_service.queue_threshold = 200;
  config.scheduler_service.max_batch_size = 200;
  config.scheduler_service.linger = 50ms;
  api::QonductorClient client(config);
  const auto image = deploy_image(client, "burst-2000", /*classical_prologue=*/false);

  std::vector<api::InvokeRequest> requests(kRuns);
  for (auto& request : requests) request.image = image;
  auto handles = client.invokeAll(requests);
  ASSERT_TRUE(handles.ok()) << handles.status().to_string();
  ASSERT_EQ(handles->size(), kRuns);

  std::size_t completed = 0;
  for (const auto& handle : *handles) {
    if (handle.wait() == api::RunStatus::kCompleted) ++completed;
  }
  EXPECT_EQ(completed, kRuns);

  const RunEngine& engine = client.backend().runEngine();
  EXPECT_EQ(engine.workers(), 2u);
  // The whole burst was live at once on two workers — the decoupling the
  // engine exists for (pre-engine, live parked runs were capped at 2).
  EXPECT_GE(engine.peak_live_runs(), kRuns / 2);
  // live_runs() lags the terminal record by the worker's bookkeeping beat;
  // after the drain it must be exactly zero.
  client.backend().shutdown();
  EXPECT_EQ(engine.live_runs(), 0u);

  auto stats = client.getSchedulerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.jobs_scheduled, kRuns);
  EXPECT_EQ(stats->stats.jobs_filtered, 0u);
  EXPECT_EQ(stats->stats.queue_depth, 0u);
  // Cycles batched by the hundreds: the threshold actually fired, which
  // two blocked executor threads could never reach.
  EXPECT_GE(stats->stats.max_batch_size_seen, config.scheduler_service.queue_threshold);
  EXPECT_GE(stats->stats.queue_high_watermark, config.scheduler_service.queue_threshold);
}

}  // namespace
}  // namespace qon::core
