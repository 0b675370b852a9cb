#include "session.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace qb {

namespace {

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

double PassStats::qpu_util() const {
  const double span = virtual_span();
  if (qpu_busy_s.empty() || span <= 0.0) return 0.0;
  double busy = 0.0;
  for (const double b : qpu_busy_s) busy += b;
  return busy / (static_cast<double>(qpu_busy_s.size()) * span);
}

double PassStats::qpu_util_min() const {
  const double span = virtual_span();
  if (qpu_busy_s.empty() || span <= 0.0) return 0.0;
  return *std::min_element(qpu_busy_s.begin(), qpu_busy_s.end()) / span;
}

double PassStats::qpu_util_max() const {
  const double span = virtual_span();
  if (qpu_busy_s.empty() || span <= 0.0) return 0.0;
  return *std::max_element(qpu_busy_s.begin(), qpu_busy_s.end()) / span;
}

void PassStats::merge(const PassStats& other) {
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
  refused += other.refused;
  invalid += other.invalid;
  broken += other.broken;
  starts_before_submit += other.starts_before_submit;
  if (first_failure.empty()) first_failure = other.first_failure;
  for (auto [mine, theirs] : {std::pair{&invoke_us, &other.invoke_us},
                              {&run_wall_ms, &other.run_wall_ms},
                              {&create_us, &other.create_us},
                              {&deploy_us, &other.deploy_us},
                              {&jct_s, &other.jct_s},
                              {&fidelity, &other.fidelity},
                              {&group_s, &other.group_s},
                              {&group_wall_p50_ms, &other.group_wall_p50_ms},
                              {&group_wall_p99_ms, &other.group_wall_p99_ms}}) {
    mine->append(*theirs);
  }
  if (qpu_busy_s.size() < other.qpu_busy_s.size()) qpu_busy_s.resize(other.qpu_busy_s.size());
  for (std::size_t q = 0; q < other.qpu_busy_s.size(); ++q) qpu_busy_s[q] += other.qpu_busy_s[q];
  first_submit = std::min(first_submit, other.first_submit);
  last_finish = std::max(last_finish, other.last_finish);
  api_calls.append(other.api_calls);
  wall_s += other.wall_s;
}

Session::Session(const WorkloadSpec& spec, std::uint64_t seed, std::size_t workers,
                 TraceAggregator* traces, PassStats& setup)
    : spec_(spec), stream_(spec, seed), tracing_(traces != nullptr) {
  client_ = std::make_unique<qon::api::QonductorClient>(
      make_config(spec, workers, traces ? traces->sink() : qon::obs::TraceSink{}));
  qon::core::Qonductor& backend = client_->backend();

  // Offset between the steady clock and the tracer's epoch, read at one
  // instant, so bench timers and program spans share one axis.
  const Clock::time_point before = Clock::now();
  const double tracer_now = backend.telemetry().tracer().wall_now_us();
  const Clock::time_point after = Clock::now();
  tracer_offset_us_ =
      tracer_now - std::chrono::duration<double, std::micro>(
                       (before + (after - before) / 2).time_since_epoch())
                       .count();

  const qon::qpu::Fleet& fleet = backend.fleet();
  for (std::size_t q = 0; q < fleet.backends.size(); ++q) {
    resources_[fleet.backends[q]->name()] = static_cast<int>(q);
  }
  for (const auto& node : backend.nodes()) resources_[node.name] = -1;

  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const Tenant& tenant = spec.tenants[i];
    circuits_.push_back(tenant_circuit(tenant, i));
    std::vector<qon::workflow::HybridTask> tasks;
    tasks.push_back(qon::workflow::HybridTask::quantum(tenant.name, circuits_.back(),
                                                       tenant.shots));
    images_.push_back(create_and_deploy(std::move(tasks), tenant.name, setup));
  }
}

Session::~Session() { shutdown(); }

void Session::shutdown() {
  if (client_) client_->backend().shutdown();
}

double Session::tracer_us(Clock::time_point at) const {
  return std::chrono::duration<double, std::micro>(at.time_since_epoch()).count() +
         tracer_offset_us_;
}

qon::workflow::ImageId Session::create_and_deploy(std::vector<qon::workflow::HybridTask> tasks,
                                                  const std::string& name,
                                                  PassStats& stats) {
  qon::api::CreateWorkflowRequest create;
  create.name = name;
  create.tasks = std::move(tasks);
  const Clock::time_point t0 = Clock::now();
  auto created = client_->createWorkflow(std::move(create));
  const Clock::time_point t1 = Clock::now();
  if (!created.ok()) throw std::runtime_error("createWorkflow: " + created.status().to_string());
  qon::api::DeployRequest deploy;
  deploy.image = created->image;
  auto deployed = client_->deploy(deploy);
  const Clock::time_point t2 = Clock::now();
  if (!deployed.ok()) throw std::runtime_error("deploy: " + deployed.status().to_string());
  stats.create_us.add(micros(t0, t1));
  stats.deploy_us.add(micros(t1, t2));
  if (tracing_) stats.api_calls.add(tracer_us(t0), tracer_us(t2));
  return created->image;
}

void Session::run_group(PassStats& stats) {
  struct Member {
    qon::api::RunHandle handle;
    Clock::time_point invoked;
    Expectation expect;
    bool done = false;
    double wall_ms = 0.0;
  };
  const std::size_t group_size = spec_.queue_threshold;
  std::vector<Member> group;
  group.reserve(group_size);
  qon::core::Qonductor& backend = client_->backend();

  const Clock::time_point group_start = Clock::now();
  std::uint64_t refused_here = 0;
  while (group.size() < group_size) {
    const Request request = stream_.next();
    backend.advanceFleetClock(request.at);
    ++stats.attempted;

    qon::api::InvokeRequest invoke;
    Expectation expect;
    if (spec_.fresh) {
      invoke.image = create_and_deploy(fresh_tasks(*spec_.fresh, request),
                                       "fresh-" + std::to_string(fresh_count_++), stats);
      expect.shots = spec_.fresh->shots;
      // Routing can touch more device qubits than the circuit's width, so
      // counts are required only where the width leaves room for that.
      expect.counts = spec_.trajectory_width_limit >= 2 * request.width;
      expect.tasks = 3;
    } else {
      const Tenant& tenant = spec_.tenants[request.tenant];
      invoke.image = images_[request.tenant];
      invoke.preferences.priority = tenant.priority;
      invoke.preferences.fidelity_weight = tenant.fidelity_weight;
      expect.shots = tenant.shots;
      expect.counts = spec_.trajectory_width_limit >= 2 * tenant.width;
      expect.tasks = 1;
    }

    const Clock::time_point t0 = Clock::now();
    qon::api::Result<qon::api::RunHandle> handle = client_->invoke(invoke);
    const Clock::time_point t1 = Clock::now();
    stats.invoke_us.add(micros(t0, t1));
    if (tracing_) stats.api_calls.add(tracer_us(t0), tracer_us(t1));
    if (!handle.ok()) {
      // A refused run leaves the group short of the threshold; replace it
      // with the next arrival, but never loop forever on a closed door.
      ++stats.refused;
      if (stats.first_failure.empty()) stats.first_failure = handle.status().to_string();
      if (++refused_here > group_size) {
        throw std::runtime_error("invoke refused every request: " +
                                 handle.status().to_string());
      }
      continue;
    }
    group.push_back({std::move(*handle), t0, expect});
  }

  // Stamp each run's terminal instant as it happens, whatever the order
  // the engine settles them in.
  std::size_t remaining = group.size();
  while (remaining > 0) {
    bool progressed = false;
    for (Member& member : group) {
      if (member.done || !qon::api::run_status_terminal(member.handle.poll())) continue;
      member.done = true;
      member.wall_ms = micros(member.invoked, Clock::now()) / 1e3;
      --remaining;
      progressed = true;
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  stats.group_s.add(seconds_between(group_start, Clock::now()));

  if (stats.qpu_busy_s.empty()) stats.qpu_busy_s.assign(spec_.num_qpus, 0.0);
  Samples group_wall_ms;
  for (Member& member : group) {
    const qon::api::Result<qon::api::RunInfo> info = member.handle.info();
    const qon::api::Result<qon::api::WorkflowResult> result = member.handle.result();
    if (!info.ok() || !result.ok() || info->status != qon::api::RunStatus::kCompleted) {
      ++stats.failed;
      if (stats.first_failure.empty()) {
        stats.first_failure = result.ok() ? result->error.to_string() : "no result";
      }
      continue;
    }
    ++stats.completed;
    stats.run_wall_ms.add(member.wall_ms);
    group_wall_ms.add(member.wall_ms);
    stats.jct_s.add(info->finished_at - info->submitted_at);
    stats.fidelity.add(result->min_fidelity);
    stats.first_submit = std::min(stats.first_submit, info->submitted_at);
    stats.last_finish = std::max(stats.last_finish, info->finished_at);

    int qpu = -1;
    for (const qon::api::TaskResult& task : result->tasks) {
      if (task.kind != qon::workflow::TaskKind::kQuantum) continue;
      const auto it = resources_.find(task.resource);
      if (it != resources_.end() && it->second >= 0) {
        qpu = it->second;
        stats.qpu_busy_s[static_cast<std::size_t>(qpu)] += task.end - task.start;
      }
    }
    stats.digest.add(info->run, qpu, info->finished_at, result->min_fidelity);

    const CheckVerdict verdict = check_run(*info, *result, member.expect, resources_);
    if (!verdict.valid) {
      ++stats.invalid;
      if (verdict.broken) ++stats.broken;
      if (verdict.starts_before_submit) ++stats.starts_before_submit;
      if (stats.first_failure.empty()) {
        stats.first_failure = "run " + std::to_string(info->run) + ": " + verdict.first_failure;
      }
    }
  }
  if (!group_wall_ms.empty()) {
    stats.group_wall_p50_ms.add(group_wall_ms.quantile(0.50));
    stats.group_wall_p99_ms.add(group_wall_ms.quantile(0.99));
  }
}

void Session::run_for(double seconds, PassStats& stats,
                      const std::function<void()>& after_group) {
  const Clock::time_point start = Clock::now();
  do {
    run_group(stats);
    if (after_group) after_group();
  } while (seconds_between(start, Clock::now()) < seconds);
  stats.wall_s = seconds_between(start, Clock::now());
}

double set_up(std::unique_ptr<Session>& session, const WorkloadSpec& spec,
              std::uint64_t seed, std::size_t workers, TraceAggregator* traces,
              PassStats& setup, PassStats& warm) {
  session.reset();  // tearing down the previous session is not set-up
  const Clock::time_point start = Clock::now();
  session = std::make_unique<Session>(spec, seed, workers, traces, setup);
  session->run_group(warm);
  return seconds_between(start, Clock::now());
}

}  // namespace qb
