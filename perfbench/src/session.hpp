#pragma once
// One orchestrator behind the public api::QonductorClient, driven from a
// single client thread as a closed loop in groups of exactly
// queue_threshold runs. run_group() stamps each arrival on the virtual
// clock with advanceFleetClock, invokes it, waits until every run of the
// group is terminal and only then returns, so every scheduling cycle is a
// threshold cycle and batch contents do not depend on wall-clock timing.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "output_check.hpp"
#include "stats.hpp"
#include "trace_agg.hpp"
#include "workloads.hpp"

namespace qb {

/// Everything measured over a sequence of groups.
struct PassStats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;    ///< terminal but not kCompleted
  std::uint64_t refused = 0;   ///< invoke() returned an error
  std::uint64_t invalid = 0;   ///< completed, but the output check failed
  std::uint64_t broken = 0;    ///< failed a check other than the submit floor
  std::uint64_t starts_before_submit = 0;
  std::string first_failure;
  Samples invoke_us;       ///< wall time of the invoke() call
  Samples run_wall_ms;     ///< wall time from invoke() to the terminal state
  Samples create_us;       ///< createWorkflow() calls
  Samples deploy_us;       ///< deploy() calls
  Samples jct_s;           ///< virtual finished_at - submitted_at
  Samples fidelity;        ///< min_fidelity of completed runs
  Samples group_s;         ///< wall time of each group, invoke to last settle
  Samples group_wall_p50_ms;  ///< p50 of run_wall_ms within each group
  Samples group_wall_p99_ms;  ///< p99 of run_wall_ms within each group
  std::vector<double> qpu_busy_s;  ///< virtual busy seconds per QPU
  double first_submit = std::numeric_limits<double>::infinity();
  double last_finish = -std::numeric_limits<double>::infinity();
  /// Client-side calls on the tracer's µs axis (tracing sessions only).
  IntervalSet api_calls;
  Digest digest;
  double wall_s = 0.0;

  /// Folds `other` in: counts and samples add up, the virtual span widens.
  /// The digest is not merged; it is order-dependent.
  void merge(const PassStats& other);
  /// Something completed and no run broke a check other than the known
  /// submit-floor defect (see output_check.hpp).
  bool outputs_ok() const { return completed > 0 && broken == 0; }
  double runs_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
  double virtual_span() const { return last_finish - first_submit; }
  /// Σ busy ÷ (QPUs × virtual span).
  double qpu_util() const;
  /// Busy share of the least and the most used QPU.
  double qpu_util_min() const;
  double qpu_util_max() const;
};

class Session {
 public:
  /// Stands up the client and deploys the batch workload's images (their
  /// createWorkflow/deploy calls are timed into `setup`). `traces`, when
  /// set, turns tracing on and receives every finished run's trace; it
  /// must outlive the session.
  Session(const WorkloadSpec& spec, std::uint64_t seed, std::size_t workers,
          TraceAggregator* traces, PassStats& setup);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Invokes one group of queue_threshold runs and waits for all of them.
  void run_group(PassStats& stats);

  /// Runs groups until `seconds` of wall time have passed; sets wall_s.
  /// `after_group`, when set, is called after each group.
  void run_for(double seconds, PassStats& stats,
               const std::function<void()>& after_group = {});

  /// Qonductor::shutdown(): drains live runs, joins the workers.
  void shutdown();

  qon::api::QonductorClient& client() { return *client_; }
  /// The circuits of the deployed images (batch workloads).
  const std::vector<qon::circuit::Circuit>& image_circuits() const { return circuits_; }
  /// A steady-clock instant on the tracer's µs axis.
  double tracer_us(Clock::time_point at) const;

 private:
  qon::workflow::ImageId create_and_deploy(std::vector<qon::workflow::HybridTask> tasks,
                                           const std::string& name, PassStats& stats);

  const WorkloadSpec& spec_;
  RequestStream stream_;
  std::unique_ptr<qon::api::QonductorClient> client_;
  std::vector<qon::workflow::ImageId> images_;
  std::vector<qon::circuit::Circuit> circuits_;
  ResourceIndex resources_;
  bool tracing_ = false;
  double tracer_offset_us_ = 0.0;
  std::uint64_t fresh_count_ = 0;
};

/// Replaces `session` with a new one and runs its warm-up group, which
/// counts as set-up; returns the wall seconds that took.
double set_up(std::unique_ptr<Session>& session, const WorkloadSpec& spec,
              std::uint64_t seed, std::size_t workers, TraceAggregator* traces,
              PassStats& setup, PassStats& warm);

}  // namespace qb
