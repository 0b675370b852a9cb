#pragma once
// The Qonductor orchestrator: control plane (API server + resource
// estimator + hybrid scheduler + job manager), data plane (workflow manager
// + registry) and worker nodes (QPU fleet + classical node pool) assembled
// into the user-facing API of Table 2:
//
//   createWorkflow  — package hybrid code into a workflow image  (User->CP)
//   deploy          — register the image for execution           (User->CP)
//   invoke          — run a deployed image                       (User->CP)
//   workflowStatus / workflowResults — query execution           (User->CP)
//   listRuns / getRun — query the run table                      (User->CP)
//   listImages      — registry contents                          (CP->DP)
//   estimateResources — resource plans for a circuit             (CP->CP)
//   generateSchedule  — hybrid schedule for a job batch          (CP->CP)
//
// Invocation is asynchronous: invoke() validates the request, submits the
// run to the event-driven run engine (core/run_engine.hpp) and returns an
// api::RunHandle immediately. Each run is a RunContinuation stepped one DAG
// node per event by a small worker pool against the fleet's virtual clock;
// a batch-mode quantum task parks in the scheduler service with a
// completion callback instead of blocking a worker, so thousands of
// in-flight runs ride on executor_threads workers. All error paths on the
// request/response surface return api::Status — no exception crosses the
// API boundary.
//
// Quantum dispatch is batch-scheduled (§7): by default each quantum task
// parks in the scheduler service's pending queue, and a dedicated scheduler
// thread fires scheduling cycles (queue threshold OR timer on the fleet
// virtual clock) that assign whole batches via the hybrid scheduler.
// getSchedulerStats exposes the cycle history; SchedulingMode::kImmediate
// restores the old greedy per-task path. Tasks no online QPU can host fail
// their run with the typed RESOURCE_EXHAUSTED.
//
// Every run carries api::JobPreferences (per-job MCDM fidelity weight, an
// optional fleet-clock deadline, a priority class): batches form in
// priority order, MCDM picks each job's Pareto point per its own weight,
// and a task still parked when a cycle fires past its deadline fails
// DEADLINE_EXCEEDED without consuming a QPU. reserveQpu/releaseQpu expose
// the §7 reservation flag as a typed surface over the system monitor.
//
// Run records live in a bounded RunTable: terminal runs are garbage-
// collected under QonductorConfig::retention (LRU + TTL), so a long-lived
// orchestrator serving sustained traffic holds a bounded amount of run
// state. In-flight runs are never evicted, and an api::RunHandle keeps
// answering after its record ages out of the table.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "common/thread_safety.hpp"
#include "api/run_handle.hpp"
#include "api/types.hpp"
#include "core/run_engine.hpp"
#include "core/run_table.hpp"
#include "core/scheduler_service.hpp"
#include "obs/health.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "core/system_monitor.hpp"
#include "estimator/plans.hpp"
#include "qpu/fleet.hpp"
#include "sched/hybrid_scheduler.hpp"
#include "simulator/noise.hpp"
#include "transpiler/transpiler.hpp"
#include "workflow/registry.hpp"

namespace qon::core {

using RunId = api::RunId;

// The run lifecycle and execution report are part of the public API
// surface (api/types.hpp); core aliases them for backward compatibility.
using WorkflowStatus = api::RunStatus;
using TaskResult = api::TaskResult;
using WorkflowResult = api::WorkflowResult;
using SchedulingMode = api::SchedulingMode;

/// Per-backend transpilation + resource estimates for one quantum task —
/// everything a scheduling cycle needs to know about the job, computed
/// outside the engine lock (the inputs are immutable). Shared between the
/// prep cache and parked continuations (run_engine.hpp forward-declares it).
struct QuantumTaskPrep {
  std::vector<transpiler::TranspileResult> transpiled;
  std::vector<double> est_fidelity;
  std::vector<double> est_exec_seconds;
};

/// Front-door admission control: a live-run bound checked at invoke()/
/// invokeAll() that sheds excess load by priority class with a typed
/// RESOURCE_EXHAUSTED carrying a retry_after_seconds hint, instead of
/// letting a flash crowd pile runs onto the engine until the pending queue
/// convoys. Each class is admitted while live runs stay under its share of
/// the bound — batch sheds first, standard next, interactive last (it may
/// use the full bound).
struct AdmissionConfig {
  /// Hard bound on concurrently live (non-terminal) runs; 0 disables the
  /// gate entirely (the default — existing deployments are unaffected).
  std::size_t max_live_runs = 0;
  /// kBatch is shed once live runs reach this fraction of max_live_runs.
  double shed_batch_at = 0.5;
  /// kStandard is shed once live runs reach this fraction of max_live_runs.
  /// Must be >= shed_batch_at; kInteractive always gets the full bound.
  double shed_standard_at = 0.75;
  /// The back-off hint attached to every shed RESOURCE_EXHAUSTED.
  double retry_after_seconds = 5.0;
};

/// Rejects out-of-range knobs with kInvalidArgument; kOk otherwise.
api::Status validate_admission_config(const AdmissionConfig& config);

/// Live-health knobs (obs/health.hpp + obs/slo.hpp): the engine watchdog
/// budget, per-class SLO targets and burn-rate alert rules feeding
/// getHealth. The scheduler/queue watchdog budgets live in
/// SchedulerServiceConfig — they belong to the service, which also runs
/// standalone in tests.
struct HealthConfig {
  /// Wall seconds of engine-worker heartbeat silence tolerated while the
  /// engine's event queue is non-empty.
  double engine_stall_budget_seconds = 60.0;
  /// Per-class run-latency targets (virtual seconds) feeding the online
  /// SLO monitor; 0 leaves a class untracked. The SLO machinery only
  /// exists when some class is tracked or a rule is configured.
  std::array<double, api::kNumPriorities> slo_seconds{};
  /// Multi-window burn-rate rules, evaluated on the fleet virtual clock at
  /// each getHealth call; transitions are logged at warn level.
  std::vector<obs::SloRule> alert_rules;
  /// TEST ONLY: invoked by the scheduler's QPU-snapshot hook at cycle
  /// start, before the engine lock is taken — the wedge-injection point of
  /// the watchdog death test. Leave unset in production configs.
  std::function<void()> scheduler_fault_injection;
};

struct QonductorConfig {
  std::size_t num_qpus = 4;
  std::uint64_t seed = 2025;
  /// Deployment-default MCDM preference; a run's
  /// api::JobPreferences::fidelity_weight overrides it per job.
  double fidelity_weight = 0.5;
  estimator::PlanConfig plan_config;
  bool replicated_monitor = false;    ///< Raft-backed system monitor
  std::size_t classical_standard_nodes = 8;
  std::size_t classical_highend_nodes = 2;
  std::size_t classical_fpga_nodes = 1;
  double hidden_sigma = 0.25;         ///< ground-truth perturbation
  /// Trajectory-simulate quantum tasks whose active width fits (exact
  /// counts + Hellinger fidelity); larger tasks use the analytic model.
  int trajectory_width_limit = 12;
  /// Run-engine worker count: how many run state machines advance at any
  /// instant. Unlike the pre-engine executor pool, this does NOT bound the
  /// number of in-flight runs — a parked quantum task frees its worker, so
  /// thousands of runs can wait on a scheduling cycle over two workers.
  std::size_t executor_threads = 2;
  /// The batch-scheduling job manager (mode, trigger thresholds, queue
  /// bound — see core::SchedulerServiceConfig). Invalid knobs surface as
  /// INVALID_ARGUMENT from invoke(), never as an exception.
  SchedulerServiceConfig scheduler_service;
  /// Front-door overload shedding (see core::AdmissionConfig). Disabled by
  /// default; invalid knobs surface as INVALID_ARGUMENT from invoke().
  AdmissionConfig admission;
  /// Garbage collection of terminal run records (see core::RunTable).
  RunRetentionPolicy retention;
  /// Telemetry knobs (see obs::TelemetryConfig): run-lifecycle tracing,
  /// histogram observations, trace retention, export sink. Counters backing
  /// getSchedulerStats/getAdmissionStats/prepCacheHits are always on.
  obs::TelemetryConfig telemetry;
  /// Live-health knobs: engine watchdog budget, SLO targets, burn-rate
  /// alert rules (see core::HealthConfig). Watchdogs are always armed;
  /// the SLO monitor only materializes when targets/rules are configured.
  HealthConfig health;
  /// Observer called by the executor right before each task runs (tracing,
  /// test instrumentation). Must be thread-safe; called outside all locks.
  std::function<void(RunId, const std::string&)> on_task_start;
};

/// The orchestrator facade. invoke() is asynchronous: the workflow DAG is
/// executed on the executor pool, scheduling each task on the fleet / node
/// pool and advancing the shared virtual clock under the engine lock.
/// Concurrent clients are safe: registry, run table, monitor and fleet
/// clock are each synchronized.
class Qonductor {
 public:
  explicit Qonductor(QonductorConfig config = {});
  ~Qonductor();

  // -- Table 2: user-facing API (v1, typed statuses, async invoke) -------------
  /// Taken by value: pass an rvalue to hand the task circuits over without
  /// a deep copy.
  api::Result<api::CreateWorkflowResponse> createWorkflow(api::CreateWorkflowRequest request);
  api::Result<api::DeployResponse> deploy(const api::DeployRequest& request);
  /// Returns as soon as the run is queued; execution proceeds off-thread.
  /// kUnavailable once shutdown() has begun. Deadline-aware admission: a
  /// preferences.deadline_seconds at/before the fleet-clock frontier is
  /// rejected kDeadlineExceeded at submit time — the run is never parked
  /// just so a scheduling cycle can discover the miss.
  api::Result<api::RunHandle> invoke(const api::InvokeRequest& request);
  /// Atomic batch: validates every request first, then queues all runs;
  /// on any validation error nothing is started.
  api::Result<std::vector<api::RunHandle>> invokeAll(const std::vector<api::InvokeRequest>& requests);
  api::Result<api::WorkflowStatusResponse> workflowStatus(const api::WorkflowStatusRequest& request) const;
  api::Result<api::WorkflowResultsResponse> workflowResults(const api::WorkflowResultsRequest& request) const;
  /// Lifecycle record of one run: state, virtual-clock timestamps, error.
  /// kNotFound for unknown ids — including runs evicted under `retention`.
  api::Result<api::GetRunResponse> getRun(const api::GetRunRequest& request) const;
  /// Pages over the run table in run-id order with optional state/image
  /// filters; see api::ListRunsRequest.
  api::Result<api::ListRunsResponse> listRuns(const api::ListRunsRequest& request) const;
  /// The scheduler service's effective config and cycle/queue statistics
  /// (cycle count, batch sizes, queue depth, Fig. 9c stage timings). In
  /// kImmediate mode the stats are all-zero.
  api::Result<api::GetSchedulerStatsResponse> getSchedulerStats(
      const api::GetSchedulerStatsRequest& request) const;
  /// The admission gate's counters (accepted/shed per priority class, live
  /// runs against the configured bound) plus the pending queue's capacity-
  /// waitlist statistics. All-zero waitlist fields in kImmediate mode.
  api::Result<api::GetAdmissionStatsResponse> getAdmissionStats(
      const api::GetAdmissionStatsRequest& request) const;
  /// The retained lifecycle trace of one run: the ordered span set
  /// submit -> settle, each span stamped with the fleet virtual clock AND
  /// wall µs. kNotFound for unknown or retention-evicted run ids;
  /// kFailedPrecondition when tracing is disabled in the config.
  api::Result<api::GetRunTraceResponse> getRunTrace(
      const api::GetRunTraceRequest& request) const;
  /// One coherent pass over every registered instrument (counters, gauges,
  /// histograms), stamped with both clocks. Feed it to
  /// obs::render_prometheus / obs::render_json for export.
  api::Result<api::GetMetricsResponse> getMetrics(
      const api::GetMetricsRequest& request) const;
  /// Aggregated live health: per-component watchdog/probe verdicts
  /// (engine, scheduler, queue, admission, fleet) and the SLO burn-rate
  /// alert states, rolled up into a worst-severity overall status (raised
  /// to at least kDegraded while any alert fires). Always available —
  /// liveness is structural, not gated on the telemetry knobs — and safe
  /// to call even while a component is wedged: verdicts derive from
  /// heartbeat AGE, so this never blocks on a stuck thread.
  api::Result<api::GetHealthResponse> getHealth(
      const api::GetHealthRequest& request = {}) const;
  /// Takes a QPU out of scheduling rotation (§7 reservations) via the
  /// monitor's reservation flag — separate from the `online` health flag,
  /// so reservations and device-manager faults compose. Scheduling
  /// snapshots honor both, so jobs already parked in the pending queue
  /// avoid the QPU from the very next cycle. An optional duration_seconds
  /// opens a time window: the reservation auto-releases once a scheduling
  /// cycle fires at/after fleetNow() + duration on the virtual clock.
  /// kNotFound for unknown names; kAlreadyExists when already reserved.
  api::Result<api::ReserveQpuResponse> reserveQpu(const api::ReserveQpuRequest& request);
  /// Returns a reserved QPU to rotation (an unhealthy QPU stays out).
  /// kFailedPrecondition when the QPU was not reserved.
  api::Result<api::ReleaseQpuResponse> releaseQpu(const api::ReleaseQpuRequest& request);
  /// Handle for an already-started run (e.g. a run id received over the
  /// wire); kNotFound for unknown ids.
  api::Result<api::RunHandle> runHandle(RunId run) const;

  /// Stops accepting new runs (subsequent invoke() returns kUnavailable),
  /// drains every live run through the engine — parked quantum tasks
  /// resume as the still-live scheduler service fires cycles, including
  /// one final flush that empties the pending queue — and joins the
  /// engine workers and the scheduler thread. Idempotent; queries keep
  /// working after shutdown.
  void shutdown();

  // -- Table 2: control/data-plane operations ----------------------------------
  std::vector<workflow::ImageId> listImages() const;
  estimator::PlanSet estimateResources(const circuit::Circuit& circ) const;
  sched::ScheduleDecision generateSchedule(const sched::SchedulingInput& input) const;

  // -- introspection -------------------------------------------------------------
  /// A copy of the current calibration generation. It shares that
  /// generation's immutable backends, so it stays valid and consistent
  /// across later recalibrateFleet() calls, which publish a new generation.
  qpu::Fleet fleet() const { return *current_fleet(); }
  SystemMonitor& monitor() { return monitor_; }
  const std::vector<sched::ClassicalNode>& nodes() const { return nodes_; }
  /// The run table backing getRun/listRuns (eviction counters, sweep()).
  /// Non-const like monitor(): mutating it is an owner-level operation.
  RunTable& runTable() { return run_table_; }
  /// The event-driven run engine (live/peak run counts, event counter) —
  /// the decoupling statistics bench_burst reports.
  const RunEngine& runEngine() const { return *engine_; }
  /// Current frontier of the fleet's virtual clock, in seconds: the latest
  /// task-completion time any resource has reached.
  double fleetNow() const { return fleet_clock_.load(std::memory_order_acquire); }
  /// Advances the fleet virtual clock to at least `up_to` seconds
  /// (monotonic max — a smaller value is a no-op). The campaign driver
  /// uses this to pace profile arrival instants onto the same clock the
  /// scheduler stamps submissions and deadlines against.
  void advanceFleetClock(double up_to) EXCLUDES(engine_mutex_);
  /// Re-draws calibration for the whole fleet at the current virtual
  /// instant, publishes it as a new immutable generation and republishes
  /// QPU state — the campaign `recalibrate` churn event. Tasks already
  /// executing keep the generation their slot was reserved on; the prep
  /// cache invalidates itself on the next run.
  void recalibrateFleet() EXCLUDES(engine_mutex_);
  /// The batch-scheduling job manager, null in kImmediate mode. Non-const
  /// like monitor(): owner-level access (tests use it to force shutdown
  /// interleavings against in-flight runs).
  SchedulerService* schedulerService() { return scheduler_service_.get(); }
  /// The telemetry bundle (registry + tracer) every component records into.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }
  /// Transpile/estimate cache effectiveness (see prepare_quantum_task):
  /// hits are runs that re-used a burst sibling's per-backend prep. Views
  /// over the registry counters — for a hit RATIO coherent across both,
  /// read qon_prep_cache_{hits,misses}_total from one getMetrics snapshot
  /// instead of calling these back to back.
  std::uint64_t prepCacheHits() const { return prep_cache_hits_->value(); }
  std::uint64_t prepCacheMisses() const { return prep_cache_misses_->value(); }

 private:
  api::Status validate_invoke(const api::InvokeRequest& request,
                              const workflow::WorkflowImage** image_out) const;
  /// The request's preferences with fidelity_weight resolved against the
  /// deployment default — what the run record stores and RunInfo echoes.
  api::JobPreferences effective_preferences(const api::JobPreferences& requested) const;
  /// The live-run budget `priority` may fill before it is shed (its
  /// configured fraction of max_live_runs, at least 1; kInteractive gets
  /// the full bound). Only meaningful while the gate is enabled.
  std::size_t admission_limit(api::Priority priority) const;
  /// The front-door gate: admits while live runs (plus `already_admitted`
  /// earlier entries of the same invokeAll batch) stay under the class
  /// limit, otherwise sheds with RESOURCE_EXHAUSTED + retry-after and bumps
  /// the per-class shed counter. Always Ok when the gate is disabled.
  api::Status admit_run(api::Priority priority, std::size_t already_admitted);
  api::Result<api::RunHandle> start_run(const workflow::WorkflowImage* image,
                                        api::JobPreferences preferences);

  // -- run-engine state machine (one call = one event) --------------------------
  /// Tracing wrapper around step_run_impl: records one "engine_step" span
  /// per event (outcome in the detail). Captures the trace context BEFORE
  /// stepping — after a parking step registers its settlement callback the
  /// continuation may already be resuming on another worker and must not be
  /// touched; the span ring itself locks internally.
  StepOutcome step_run(const std::shared_ptr<RunContinuation>& cont);
  /// Advances a run by one DAG node: first event transitions kPending ->
  /// kRunning, a resume event collects the parked quantum task's verdict
  /// and executes on the assigned QPU, otherwise the cursor node runs
  /// (classical / immediate quantum inline; batch quantum parks). Never
  /// throws — task failures settle the run kFailed.
  StepOutcome step_run_impl(const std::shared_ptr<RunContinuation>& cont);
  /// Writes the continuation's accumulated result into the run record,
  /// stamps finished_at, publishes the terminal status to the monitor
  /// (before mark_terminal, so a concurrent eviction can erase it) and
  /// makes the run GC-eligible. Always returns kFinished.
  StepOutcome settle_run(const std::shared_ptr<RunContinuation>& cont);
  /// Routes a task's failure verdict into the run's terminal result and
  /// settles it: kCancelled ends the run kCancelled (the task was pulled
  /// out by cancel(), not a failure); anything else ends it kFailed with
  /// the typed code and the task name prefixed onto the message.
  StepOutcome settle_task_failure(const std::shared_ptr<RunContinuation>& cont,
                                  const std::string& task_name,
                                  const api::Status& status);
  /// Hands the quantum task at the continuation's cursor to the scheduler
  /// service with a settlement callback that posts the resume event.
  /// Nothing may touch `cont` after the callback is registered — another
  /// worker may already be resuming it.
  StepOutcome park_quantum_task(const std::shared_ptr<RunContinuation>& cont,
                                const workflow::HybridTask& task, double ready_at);
  /// Books the finished node into the continuation and advances the cursor.
  void record_task_result(RunContinuation& cont, workflow::TaskId node, TaskResult tr);
  /// The kImmediate fallback: exact single-job placement inline.
  api::Result<TaskResult> run_quantum_immediate(const std::shared_ptr<api::RunState>& state,
                                                const workflow::HybridTask& task,
                                                workflow::TaskId node, double ready_at);
  api::Result<TaskResult> run_classical_task(const workflow::HybridTask& task,
                                             double ready_at);
  std::shared_ptr<const QuantumTaskPrep> prepare_quantum_task(
      const workflow::HybridTask& task) const;
  /// A QPU window reserved under the engine lock + the calibration
  /// generation the task executes against.
  struct QpuSlot {
    std::size_t index = 0;
    double start = 0.0;
    double end = 0.0;
    std::shared_ptr<const qpu::Fleet> fleet;
  };
  /// Books backend `q`'s timeline for the prepared task, advances the
  /// fleet clock and republishes that one QPU. `not_before` floors the
  /// start time at the dispatching cycle's fire time (0 in immediate mode).
  QpuSlot reserve_slot_locked(const QuantumTaskPrep& prep, std::size_t q, double ready_at,
                              double not_before) REQUIRES(engine_mutex_);
  /// Executes the prepared task in its slot, outside every lock, drawing
  /// only from `rng` (the task's own stream): the outcome depends on the
  /// task and its QPU, never on which worker got there first.
  TaskResult execute_on_slot(const workflow::HybridTask& task, const QuantumTaskPrep& prep,
                             const QpuSlot& slot, Rng rng) const;
  /// QPU states for a scheduling input (queue waits relative to
  /// `reference`, online flags from the monitor).
  std::vector<sched::QpuState> snapshot_qpu_states_locked(double reference) const
      REQUIRES(engine_mutex_);
  /// Releases every windowed reservation whose deadline lies at/before
  /// `now` on the fleet virtual clock. Called right before a scheduling
  /// snapshot (batch cycle or immediate dispatch), so the snapshotting
  /// cycle already schedules onto the released QPUs. Acquires
  /// reservations_mutex_ (inside engine_mutex_ in the hierarchy).
  void expire_reservations(double now) EXCLUDES(reservations_mutex_);
  /// Installs `fleet` as the current calibration generation and
  /// republishes every QPU from it.
  void publish_fleet_locked(std::shared_ptr<const qpu::Fleet> fleet) REQUIRES(engine_mutex_);
  void publish_qpu_locked(std::size_t q, const qpu::Fleet& fleet) REQUIRES(engine_mutex_);
  std::shared_ptr<const qpu::Fleet> current_fleet() const EXCLUDES(fleet_mutex_);
  void advance_fleet_clock(double up_to) REQUIRES(engine_mutex_);

  QonductorConfig config_;
  /// Draws recalibrateFleet()'s calibration drift. Task execution never
  /// touches it: each task draws from Rng::stream(seed, run, node).
  Rng rng_ GUARDED_BY(engine_mutex_);
  /// Immutable after construction (factor() is a pure function of its
  /// arguments), so executions read it concurrently without a lock.
  const sim::HiddenNoise hidden_;
  /// The current calibration generation: recalibrateFleet() swaps in a new
  /// fleet of fresh backends; a published one is never mutated.
  mutable Mutex fleet_mutex_{LockRank::kFleetGeneration, "Qonductor::fleet_mutex_"};
  std::shared_ptr<const qpu::Fleet> fleet_gen_ GUARDED_BY(fleet_mutex_);
  std::vector<qpu::Backend> templates_;
  std::vector<sched::ClassicalNode> nodes_;
  workflow::WorkflowRegistry registry_ GUARDED_BY(registry_mutex_);
  std::map<workflow::ImageId, bool> deployed_ GUARDED_BY(registry_mutex_);
  SystemMonitor monitor_;
  /// Owns the run records; mutable because lookups refresh LRU recency.
  /// Declared before executor_ so in-flight runs can use it during drain.
  mutable RunTable run_table_;
  std::vector<double> qpu_available_at_ GUARDED_BY(engine_mutex_);
  /// Monotone frontier of the virtual clock, advanced by the executor under
  /// engine_mutex_ and read lock-free when stamping run lifecycle times.
  std::atomic<double> fleet_clock_{0.0};

  /// Guards registry_ + deployed_. The registry is append-only, so image
  /// pointers obtained under this lock stay valid for the orchestrator's
  /// lifetime.
  mutable Mutex registry_mutex_{LockRank::kRegistry, "Qonductor::registry_mutex_"};
  /// Guards the QPU timelines (qpu_available_at_), fleet-clock advance,
  /// reservation expiry and scheduling snapshots. Outermost lock of the
  /// hierarchy: those take the reservation, monitor and fleet-generation
  /// locks inside it. Simulation runs after it is released.
  Mutex engine_mutex_{LockRank::kEngine, "Qonductor::engine_mutex_"};

  /// The telemetry bundle (registry + tracer). Declared before the
  /// scheduler service and the engine: runs draining through either during
  /// destruction still record spans and bump counters, so the bundle must
  /// be destroyed after both.
  obs::Telemetry telemetry_;

  /// Live-health aggregation: watchdog + probe registrations. Declared
  /// right after the telemetry bundle and before the scheduler service and
  /// the engine — both register watchdogs over heartbeats they own during
  /// construction, and their destructors run first, so no check() can
  /// outlive a registered heartbeat.
  obs::HealthMonitor health_;
  /// Beaten by every engine worker once per dispatched event (wired into
  /// the engine's on_event hook).
  obs::Heartbeat engine_beat_;
  /// Online SLO burn tracking, fed from settle_run on the virtual clock;
  /// null when no class target and no alert rule is configured.
  std::unique_ptr<obs::SloMonitor> slo_;

  /// Verdict of construction-time config validation; a non-OK value is
  /// returned by invoke()/invokeAll() so bad scheduler knobs surface as a
  /// typed status instead of an exception crossing the API boundary.
  api::Status init_status_;
  /// The batch-scheduling job manager (null in kImmediate mode or when the
  /// config failed validation). Declared before engine_: runs draining
  /// through the engine during destruction still park tasks here — and
  /// resume through its cycles — so the service must outlive the engine.
  /// Shared so a parked run's cancel hook can hold a weak reference that
  /// outlives the orchestrator safely.
  std::shared_ptr<SchedulerService> scheduler_service_;

  /// Cache of per-backend transpilation + estimates keyed by task identity
  /// (registry task addresses are stable — the registry is append-only)
  /// and invalidated wholesale when a new calibration generation is
  /// published. A burst of runs of one image transpiles its circuits once.
  /// Bounded: at most kPrepCacheCapacity tasks, oldest-inserted evicted
  /// first — the registry is unbounded, so the cache must not mirror it.
  static constexpr std::size_t kPrepCacheCapacity = 512;
  mutable Mutex prep_cache_mutex_{LockRank::kPrepCache, "Qonductor::prep_cache_mutex_"};
  mutable std::map<const workflow::HybridTask*, std::shared_ptr<const QuantumTaskPrep>>
      prep_cache_ GUARDED_BY(prep_cache_mutex_);
  /// FIFO eviction order.
  mutable std::deque<const workflow::HybridTask*> prep_cache_order_
      GUARDED_BY(prep_cache_mutex_);
  /// The generation the cached preps were computed against.
  mutable std::shared_ptr<const qpu::Fleet> prep_cache_fleet_ GUARDED_BY(prep_cache_mutex_);
  /// Registry counters (qon_prep_cache_{hits,misses}_total): lock-free
  /// relaxed increments on the prepare path, read coherently by snapshot().
  obs::Counter* prep_cache_hits_ = nullptr;
  obs::Counter* prep_cache_misses_ = nullptr;

  /// Admission-gate counters, indexed by api::Priority — registry-backed
  /// (qon_admission_{accepted,shed}_total{priority=...}): the gate sits on
  /// the invoke() hot path, so increments stay single relaxed atomics.
  std::array<obs::Counter*, api::kNumPriorities> admission_accepted_{};
  std::array<obs::Counter*, api::kNumPriorities> admission_shed_{};

  /// Run end-to-end virtual latency (submit -> settle) per priority class,
  /// observed at settle when metrics are enabled.
  std::array<obs::Histogram*, api::kNumPriorities> run_latency_seconds_{};
  /// Settled runs per terminal status, indexed by api::RunStatus.
  std::array<obs::Counter*, 5> runs_finished_total_{};

  /// Reservation time windows (§7): QPU name -> fleet-clock instant the
  /// reservation auto-releases. Open-ended reservations have no entry.
  Mutex reservations_mutex_{LockRank::kReservations, "Qonductor::reservations_mutex_"};
  std::map<std::string, double> reservation_release_at_ GUARDED_BY(reservations_mutex_);

  /// Declared last so it is destroyed first: the destructor drains every
  /// live run while all other members — notably the scheduler service the
  /// parked continuations resume through — are still alive.
  std::unique_ptr<RunEngine> engine_;
};

}  // namespace qon::core
