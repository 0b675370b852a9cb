// --trace 1: the per-layer breakdown. Three passes of --seconds/3 each:
//   1. untraced: the reference throughput and the client-side timers;
//   2. traced: the program's lifecycle spans folded in memory by the
//      TraceAggregator, plus the scheduler/admission/engine counters;
//   3. one engine worker, untraced: the worker scaling.
// After the traced pass, transpiler::transpile and sim::run_noisy are
// replayed in isolation on the workload's own circuits.

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "report.hpp"
#include "simulator/noise.hpp"
#include "transpiler/transpiler.hpp"

namespace qb {

namespace {

/// The engine trajectory-simulates tasks up to this width by default; the
/// simulator replay covers the workload's circuits that fit it.
constexpr int kReplayWidthLimit = 12;
/// fresh_hybrid's replays use the circuits of this many generated requests.
constexpr int kFreshReplayCircuits = 16;
constexpr int kSnapshotCalls = 20;

struct Counters {
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t prep_hits = 0;
  std::uint64_t prep_misses = 0;
};

Counters read_counters(Session& session) {
  Counters c;
  const auto stats = session.client().getSchedulerStats();
  if (stats.ok()) c.cycles = stats->stats.cycles;
  const qon::core::Qonductor& backend = session.client().backend();
  c.events = backend.runEngine().events_dispatched();
  c.prep_hits = backend.prepCacheHits();
  c.prep_misses = backend.prepCacheMisses();
  return c;
}

/// Everything the traced pass yields.
struct TracedPass {
  PassStats stats;
  TraceTotals traces;
  Counters before;
  Counters after;
  qon::api::SchedulerStats sched;
  qon::api::AdmissionStats admission;
  std::size_t peak_live_runs = 0;
  Samples snapshot_us;  ///< getMetrics() calls
  double lo_us = 0.0;   ///< the timed window on the tracer's axis
  double hi_us = 0.0;
  Samples transpile_us;
  Samples run_noisy_ms;
};

/// The circuits (and their shot counts) the workload executes.
void workload_circuits(const WorkloadSpec& spec, const Session& session, std::uint64_t seed,
                       std::vector<qon::circuit::Circuit>& circuits, std::vector<int>& shots) {
  circuits = session.image_circuits();
  for (const Tenant& t : spec.tenants) shots.push_back(t.shots);
  if (!spec.fresh) return;
  RequestStream stream(spec, seed);
  for (int i = 0; i < kFreshReplayCircuits; ++i) {
    const Request r = stream.next();
    circuits.push_back(qon::circuit::make_benchmark(r.family, r.width, r.circuit_seed));
    shots.push_back(spec.fresh->shots);
  }
}

/// Transpiles every circuit for every backend of the session's fleet, and
/// trajectory-simulates the first backend's compilation of each circuit
/// narrow enough for the engine to simulate.
void replay_layers(Session& session, const WorkloadSpec& spec, std::uint64_t seed,
                   Samples& transpile_us, Samples& run_noisy_ms) {
  std::vector<qon::circuit::Circuit> circuits;
  std::vector<int> shots;
  workload_circuits(spec, session, seed, circuits, shots);
  const qon::qpu::Fleet& fleet = session.client().backend().fleet();
  qon::Rng rng(seed);
  const qon::sim::HiddenNoise hidden(seed);
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (std::size_t q = 0; q < fleet.backends.size(); ++q) {
      const Clock::time_point t0 = Clock::now();
      const qon::transpiler::TranspileResult t =
          qon::transpiler::transpile(circuits[c], *fleet.backends[q]);
      transpile_us.add(seconds_between(t0, Clock::now()) * 1e6);
      if (q != 0 || circuits[c].num_qubits() > kReplayWidthLimit) continue;
      const Clock::time_point t1 = Clock::now();
      const qon::sim::Counts counts =
          qon::sim::run_noisy(t.circuit, *fleet.backends[q], shots[c], rng, hidden);
      run_noisy_ms.add(seconds_between(t1, Clock::now()) * 1e3);
      if (counts.empty()) throw std::runtime_error("run_noisy returned no counts");
    }
  }
}

TracedPass run_traced(const WorkloadSpec& spec, const Options& opt, double seconds) {
  TracedPass out;
  TraceAggregator traces;
  std::unique_ptr<Session> session;
  PassStats setup;
  PassStats warm;
  set_up(session, spec, opt.seed, spec.executor_threads, &traces, setup, warm);
  traces.clear();
  out.before = read_counters(*session);
  const Clock::time_point start = Clock::now();
  session->run_for(seconds, out.stats);
  const Clock::time_point end = Clock::now();
  out.after = read_counters(*session);
  out.lo_us = session->tracer_us(start);
  out.hi_us = session->tracer_us(end);

  qon::api::QonductorClient& client = session->client();
  if (auto sched = client.getSchedulerStats(); sched.ok()) out.sched = sched->stats;
  if (auto admission = client.getAdmissionStats(); admission.ok()) {
    out.admission = admission->stats;
  }
  out.peak_live_runs = client.backend().runEngine().peak_live_runs();
  for (int i = 0; i < kSnapshotCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto metrics = client.getMetrics();
    if (!metrics.ok()) throw std::runtime_error("getMetrics: " + metrics.status().to_string());
    out.snapshot_us.add(seconds_between(t0, Clock::now()) * 1e6);
  }

  session->shutdown();  // joins the workers: every trace is in the aggregator
  out.traces = traces.totals();
  replay_layers(*session, spec, opt.seed, out.transpile_us, out.run_noisy_ms);
  return out;
}

PassStats run_untraced(const WorkloadSpec& spec, const Options& opt, std::size_t workers,
                       double seconds, PassStats& setup) {
  std::unique_ptr<Session> session;
  PassStats warm;
  set_up(session, spec, opt.seed, workers, nullptr, setup, warm);
  PassStats stats;
  session->run_for(seconds, stats);
  return stats;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int run_per_layer(const WorkloadSpec& spec, const Options& opt) {
  const double pass_seconds = opt.seconds / 3.0;
  PassStats setup_calls;
  const PassStats plain =
      run_untraced(spec, opt, spec.executor_threads, pass_seconds, setup_calls);
  print_pass("untraced", plain);
  const TracedPass traced = run_traced(spec, opt, pass_seconds);
  print_pass("traced", traced.stats);
  PassStats single_setup;
  const PassStats single = run_untraced(spec, opt, 1, pass_seconds, single_setup);
  print_pass("one worker", single);

  const TraceTotals& tt = traced.traces;
  const double lo = traced.lo_us;
  const double hi = traced.hi_us;
  const auto share = [&](const IntervalSet& set) { return set.covered(lo, hi) / (hi - lo); };

  // The traced pass's cycles. Each cycle's wall window ends where its
  // selection stage ended and spans its whole recorded latency.
  Samples preprocess_ms, optimize_ms, select_ms, cycle_ms, batch_size;
  double dispatched = 0.0;
  IntervalSet cycles;
  for (const qon::api::SchedulerCycleInfo& c : traced.sched.recent_cycles) {
    if (c.cycle <= traced.before.cycles) continue;
    preprocess_ms.add(c.preprocess_seconds * 1e3);
    optimize_ms.add(c.optimize_seconds * 1e3);
    select_ms.add(c.select_seconds * 1e3);
    cycle_ms.add(c.cycle_latency_seconds * 1e3);
    batch_size.add(static_cast<double>(c.batch_size));
    dispatched += static_cast<double>(c.scheduled);
    const auto end = tt.cycle_end_us.find(c.cycle);
    if (end != tt.cycle_end_us.end()) {
      cycles.add(end->second - c.cycle_latency_seconds * 1e6, end->second);
    }
  }
  IntervalSet all;
  for (const IntervalSet* set : std::initializer_list<const IntervalSet*>{
           &traced.stats.api_calls, &tt.engine_self, &tt.park_steps, &tt.qpu_exec,
           &tt.classical, &cycles}) {
    all.append(*set);
  }
  const auto prep_hits = static_cast<double>(traced.after.prep_hits - traced.before.prep_hits);
  const double prep_lookups =
      prep_hits + static_cast<double>(traced.after.prep_misses - traced.before.prep_misses);
  const double exec_total = tt.qpu_exec.total();
  Samples create_us = setup_calls.create_us;
  create_us.append(plain.create_us);
  Samples deploy_us = setup_calls.deploy_us;
  deploy_us.append(plain.deploy_us);

  Report r;
  r.add("api.invoke_us_p99", plain.invoke_us.quantile(0.99), "us", plain.invoke_us.count());
  r.add("api.create_workflow_us_p50", create_us.median(), "us", create_us.count());
  r.add("api.deploy_us_p50", deploy_us.median(), "us", deploy_us.count());
  r.add("api.refused", static_cast<double>(plain.refused), "count", plain.attempted);
  r.add("api.call_share", share(traced.stats.api_calls), "1", traced.stats.invoke_us.count());
  r.add("engine.events_per_run",
        ratio(static_cast<double>(traced.after.events - traced.before.events),
              static_cast<double>(traced.stats.completed)),
        "count", traced.stats.completed);
  r.add("engine.peak_live_runs", static_cast<double>(traced.peak_live_runs), "count", 1);
  r.add("engine.step_self_us_p50", tt.engine_self_us.median(), "us", tt.engine_self_us.count());
  r.add("engine.step_self_share", share(tt.engine_self), "1", tt.engine_self_us.count());
  r.add("queue.wait_wall_ms_p50", tt.queue_wait_ms.quantile(0.50), "ms", tt.queue_wait_ms.count());
  r.add("queue.wait_wall_ms_p99", tt.queue_wait_ms.quantile(0.99), "ms", tt.queue_wait_ms.count());
  r.add("queue.high_watermark", static_cast<double>(traced.sched.queue_high_watermark), "count", 1);
  r.add("queue.waitlist_parks", static_cast<double>(traced.admission.waitlist_parks), "count", 1);
  r.add("sched.cycles", static_cast<double>(cycle_ms.count()), "count", cycle_ms.count());
  r.add("sched.batch_mean", batch_size.mean(), "count", batch_size.count());
  r.add("sched.dispatched_frac", ratio(dispatched, batch_size.sum()), "1",
        static_cast<std::size_t>(batch_size.sum()));
  r.add("sched.preprocess_ms_p50", preprocess_ms.median(), "ms", preprocess_ms.count());
  r.add("sched.optimize_ms_p50", optimize_ms.median(), "ms", optimize_ms.count());
  r.add("sched.optimize_ms_p99", optimize_ms.quantile(0.99), "ms", optimize_ms.count());
  r.add("sched.select_ms_p50", select_ms.median(), "ms", select_ms.count());
  r.add("sched.cycle_ms_p99", cycle_ms.quantile(0.99), "ms", cycle_ms.count());
  r.add("sched.cycle_wall_share", share(cycles), "1", cycle_ms.count());
  r.add("prep.hit_ratio", ratio(prep_hits, prep_lookups), "1",
        static_cast<std::size_t>(prep_lookups));
  r.add("prep.park_step_us_p50", tt.park_step_us.median(), "us", tt.park_step_us.count());
  r.add("prep.park_step_share", share(tt.park_steps), "1", tt.park_step_us.count());
  r.add("prep.transpile_us_p50", traced.transpile_us.median(), "us", traced.transpile_us.count());
  r.add("exec.qpu_exec_ms_p50", tt.qpu_exec_ms.quantile(0.50), "ms", tt.qpu_exec_ms.count());
  r.add("exec.qpu_exec_ms_p99", tt.qpu_exec_ms.quantile(0.99), "ms", tt.qpu_exec_ms.count());
  r.add("exec.qpu_exec_share", share(tt.qpu_exec), "1", tt.qpu_exec_ms.count());
  r.add("exec.run_noisy_ms_p50", traced.run_noisy_ms.median(), "ms", traced.run_noisy_ms.count());
  // Spans of different runs overlap only while one waits for the engine
  // lock the other holds: the overlap is the lock wait.
  r.add("exec.lock_wait_share",
        exec_total > 0.0 ? 1.0 - tt.qpu_exec.covered(-HUGE_VAL, HUGE_VAL) / exec_total : 0.0,
        "1", tt.qpu_exec_ms.count());
  r.add("exec.workers_speedup", ratio(plain.runs_per_s(), single.runs_per_s()), "1", 2);
  r.add("classical.task_us_p50", tt.classical_us.median(), "us", tt.classical_us.count());
  r.add("classical.task_share", share(tt.classical), "1", tt.classical_us.count());
  r.add("qpu.util_min", plain.qpu_util_min(), "1", plain.qpu_busy_s.size());
  r.add("qpu.util_max", plain.qpu_util_max(), "1", plain.qpu_busy_s.size());
  r.add("obs.trace_overhead_frac",
        plain.runs_per_s() > 0.0 ? 1.0 - traced.stats.runs_per_s() / plain.runs_per_s() : 0.0,
        "1", 2);
  r.add("obs.snapshot_us", traced.snapshot_us.median(), "us", traced.snapshot_us.count());
  r.add("wall.unaccounted_share", 1.0 - share(all), "1", tt.runs);
  r.add("error_rate",
        ratio(static_cast<double>(plain.failed + plain.refused),
              static_cast<double>(plain.attempted)),
        "1", plain.attempted);
  r.add("invalid_frac",
        ratio(static_cast<double>(plain.invalid), static_cast<double>(plain.completed)), "1",
        plain.completed);

  const bool correct = plain.outputs_ok() && traced.stats.outputs_ok() && single.outputs_ok() &&
                       tt.dropped_spans == 0 && r.all_finite();
  const std::uint64_t attempted =
      plain.attempted + traced.stats.attempted + single.attempted;
  const std::uint64_t failed = plain.failed + plain.refused + traced.stats.failed +
                               traced.stats.refused + single.failed + single.refused;
  r.print(correct, attempted, failed);
  return 0;
}

}  // namespace qb
