#pragma once
// The benchmark's three workloads and their input generator. Inputs are a
// pure function of (workload, seed): arrival instants on the fleet virtual
// clock, the tenant drawn per request and, for fresh_hybrid, the circuit
// family, width and circuit seed of each new image. The orchestrator only
// ever sees the generated requests.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/types.hpp"
#include "circuit/circuit.hpp"
#include "circuit/library.hpp"
#include "core/orchestrator.hpp"
#include "obs/trace.hpp"
#include "workflow/task.hpp"

namespace qb {

/// One image of a batch workload and its share of the traffic.
struct Tenant {
  std::string name;
  qon::circuit::BenchmarkFamily family = qon::circuit::BenchmarkFamily::kGhz;
  int width = 5;
  int shots = 1024;
  qon::api::Priority priority = qon::api::Priority::kStandard;
  std::optional<double> fidelity_weight;
  double weight = 1.0;
};

/// A fresh_hybrid request: a new pre -> quantum -> post chain image.
struct FreshImage {
  int shots = 2000;
  int min_width = 5;
  int max_width = 15;
  double pre_seconds = 2.0;
  double post_seconds = 5.0;
};

struct WorkloadSpec {
  std::string name;
  std::size_t num_qpus = 4;
  std::size_t executor_threads = 1;
  std::size_t queue_threshold = 64;
  int trajectory_width_limit = 0;
  double rate_per_hour = 600.0;
  /// Batch workloads: one image per tenant, deployed during set-up.
  std::vector<Tenant> tenants;
  /// Set for fresh_hybrid: every request creates and deploys a new image.
  std::optional<FreshImage> fresh;
};

/// The workload named `name`, or null.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// SplitMix64: a fixed, portable stream for the benchmark's own inputs,
/// independent of any generator inside the program.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double exponential(double rate);
  std::size_t weighted(const std::vector<double>& weights);
  int uniform_int(int lo, int hi);  ///< inclusive

 private:
  std::uint64_t state_;
};

/// One generated arrival.
struct Request {
  double at = 0.0;          ///< arrival instant on the fleet virtual clock
  std::size_t tenant = 0;   ///< batch workloads: index into spec.tenants
  /// fresh_hybrid: the new image's quantum circuit.
  qon::circuit::BenchmarkFamily family = qon::circuit::BenchmarkFamily::kGhz;
  int width = 0;
  std::uint64_t circuit_seed = 0;
};

/// Poisson arrivals plus the per-request draws, from independent streams
/// split off one seed (arrival instants never perturb the mix).
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed);
  Request next();

 private:
  const WorkloadSpec& spec_;
  InputRng arrivals_;
  InputRng mix_;
  std::vector<double> weights_;
  double t_ = 0.0;
};

/// The circuit of a batch tenant's image. Fixed per tenant, so the cost of
/// a run does not change with the seed; the seed drives arrivals and mix.
qon::circuit::Circuit tenant_circuit(const Tenant& tenant, std::size_t index);

/// The task chain of a fresh_hybrid image for `request`.
std::vector<qon::workflow::HybridTask> fresh_tasks(const FreshImage& fresh,
                                                   const Request& request);

/// Orchestrator config for one session. A null `sink` turns tracing off.
qon::core::QonductorConfig make_config(const WorkloadSpec& spec, std::size_t workers,
                                       qon::obs::TraceSink sink);

}  // namespace qb
