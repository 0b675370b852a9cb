#pragma once
// In-memory aggregation of the program's run-lifecycle spans, fed through
// telemetry.trace_sink. Each finished run's trace is folded in once, at
// settle time; nothing is written until the benchmark reads the totals at
// the end of the traced pass.
//
// Self time is computed by interval containment within one run's spans: an
// engine_step span's self time is its wall duration minus the qpu_exec and
// task_classical spans that lie inside it. The cycle_* stage spans are
// recorded once per batch member, so they are deduplicated by their
// "cycle=N" detail before they are counted.

#include <cstdint>
#include <map>
#include <mutex>

#include "api/types.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace qb {

/// Wall time of each layer seen in the traces, on the tracer's µs axis.
struct TraceTotals {
  std::uint64_t runs = 0;
  std::uint64_t dropped_spans = 0;
  Samples engine_self_us;   ///< non-parking engine steps, minus contained tasks
  Samples park_step_us;     ///< engine steps that parked (prep + queue hand-off)
  Samples qpu_exec_ms;      ///< includes the wait for the engine lock
  Samples classical_us;
  Samples queue_wait_ms;    ///< wall time a parked task waited for its cycle
  IntervalSet engine_self;
  IntervalSet park_steps;
  IntervalSet qpu_exec;
  IntervalSet classical;
  /// cycle index -> wall µs at which its selection stage ended
  std::map<std::uint64_t, double> cycle_end_us;
};

class TraceAggregator {
 public:
  /// The sink to install as telemetry.trace_sink. Thread-safe; `this`
  /// must outlive the orchestrator it is installed in.
  qon::obs::TraceSink sink();

  void consume(const qon::api::RunTrace& trace);

  /// Drops everything folded in so far (e.g. the warm-up's runs).
  void clear();

  TraceTotals totals() const;

 private:
  mutable std::mutex mutex_;
  TraceTotals totals_;
};

}  // namespace qb
