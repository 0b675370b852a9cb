#include "workloads.hpp"

#include <chrono>
#include <cmath>

namespace qb {

namespace {

using qon::api::Priority;
using qon::circuit::BenchmarkFamily;

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  // The paper's cloud tenant mix on the analytic execution model: the
  // scheduling cycles and the engine path dominate, the prep cache hits.
  WorkloadSpec analytic;
  analytic.name = "batch_analytic";
  analytic.num_qpus = 6;
  analytic.executor_threads = 1;
  analytic.queue_threshold = 250;
  analytic.trajectory_width_limit = 0;
  analytic.rate_per_hour = 1500.0;
  analytic.tenants = {
      {"standard-ghz", BenchmarkFamily::kGhz, 5, 1024, Priority::kStandard, std::nullopt, 0.5},
      {"batch-random", BenchmarkFamily::kRandom, 7, 4000, Priority::kBatch, std::nullopt, 0.35},
      {"interactive-qft", BenchmarkFamily::kQft, 4, 512, Priority::kInteractive, 0.7, 0.15},
  };
  specs.push_back(analytic);

  // Every task trajectory-simulated: QPU execution under the engine lock
  // dominates.
  WorkloadSpec trajectory;
  trajectory.name = "batch_trajectory";
  trajectory.num_qpus = 4;
  trajectory.executor_threads = 3;
  trajectory.queue_threshold = 64;
  trajectory.trajectory_width_limit = 12;
  trajectory.rate_per_hour = 600.0;
  trajectory.tenants = {
      {"ghz", BenchmarkFamily::kGhz, 5, 1024, Priority::kStandard, std::nullopt, 1.0},
      {"qaoa", BenchmarkFamily::kQaoa, 6, 1024, Priority::kStandard, std::nullopt, 1.0},
      {"qft", BenchmarkFamily::kQft, 4, 512, Priority::kStandard, std::nullopt, 1.0},
      {"vqe", BenchmarkFamily::kVqe, 6, 1024, Priority::kStandard, std::nullopt, 1.0},
  };
  specs.push_back(trajectory);

  // A new hybrid image per request: the prep cache never hits, the control
  // plane is written on every request, classical tasks run.
  WorkloadSpec fresh;
  fresh.name = "fresh_hybrid";
  fresh.num_qpus = 6;
  fresh.executor_threads = 2;
  fresh.queue_threshold = 64;
  fresh.trajectory_width_limit = 0;
  fresh.rate_per_hour = 1500.0;
  fresh.fresh = FreshImage{};
  specs.push_back(fresh);

  return specs;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> kSpecs = make_specs();
  return kSpecs;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : specs()) names.push_back(spec.name);
  return names;
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double InputRng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

std::size_t InputRng::weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (pick < weights[i]) return i;
    pick -= weights[i];
  }
  return weights.size() - 1;
}

int InputRng::uniform_int(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec),
      arrivals_(seed ^ 0xa1a1a1a1a1a1a1a1ULL),
      mix_(seed ^ 0x5b5b5b5b5b5b5b5bULL) {
  for (const Tenant& tenant : spec.tenants) weights_.push_back(tenant.weight);
}

Request RequestStream::next() {
  Request request;
  t_ += arrivals_.exponential(spec_.rate_per_hour / 3600.0);
  request.at = t_;
  if (spec_.fresh) {
    const auto& families = qon::circuit::all_benchmark_families();
    request.family = families[static_cast<std::size_t>(
        mix_.uniform_int(0, static_cast<int>(families.size()) - 1))];
    request.width = mix_.uniform_int(spec_.fresh->min_width, spec_.fresh->max_width);
    request.circuit_seed = mix_.next();
  } else {
    request.tenant = weights_.size() == 1 ? 0 : mix_.weighted(weights_);
  }
  return request;
}

qon::circuit::Circuit tenant_circuit(const Tenant& tenant, std::size_t index) {
  return qon::circuit::make_benchmark(tenant.family, tenant.width, 0x7e1aULL + index);
}

std::vector<qon::workflow::HybridTask> fresh_tasks(const FreshImage& fresh,
                                                   const Request& request) {
  using qon::workflow::HybridTask;
  std::vector<HybridTask> tasks;
  tasks.push_back(HybridTask::classical("pre", fresh.pre_seconds));
  tasks.push_back(HybridTask::quantum(
      "q", qon::circuit::make_benchmark(request.family, request.width, request.circuit_seed),
      fresh.shots));
  tasks.push_back(HybridTask::classical("post", fresh.post_seconds));
  return tasks;
}

qon::core::QonductorConfig make_config(const WorkloadSpec& spec, std::size_t workers,
                                       qon::obs::TraceSink sink) {
  qon::core::QonductorConfig config;
  config.num_qpus = spec.num_qpus;
  config.executor_threads = workers;
  config.trajectory_width_limit = spec.trajectory_width_limit;
  config.scheduler_service.queue_threshold = spec.queue_threshold;
  // Every group is exactly one threshold's worth of runs, so no cycle may
  // fire on the real-time linger: it would split a group at a wall-clock-
  // dependent point.
  config.scheduler_service.linger = std::chrono::milliseconds(30000);
  config.scheduler_service.stats_cycle_history = 4096;
  config.telemetry.tracing = static_cast<bool>(sink);
  config.telemetry.trace_sink = std::move(sink);
  return config;
}

}  // namespace qb
