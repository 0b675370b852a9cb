// Tests for the campaign harness: the seeded arrival-process generators
// (determinism and empirical-rate sanity), the yamlite profile parser
// (happy path plus the malformed-profile INVALID_ARGUMENT surface), the
// streaming latency accumulator, the batched stats sink, the snapshot
// delta arithmetic, the bounded-ring drop counters (satellite of the
// no-silent-caps rule), and a small end-to-end campaign run twice to
// assert the lockstep determinism contract byte for byte.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/arrivals.hpp"
#include "campaign/driver.hpp"
#include "campaign/profile.hpp"
#include "campaign/report.hpp"
#include "campaign/sink.hpp"
#include "cloudsim/workload.hpp"
#include "common/rng.hpp"
#include "core/scheduler_service.hpp"
#include "obs/delta.hpp"
#include "obs/telemetry.hpp"

namespace qon::campaign {
namespace {

using namespace std::chrono_literals;

constexpr double kHour = 3600.0;

std::vector<double> arrivals_until(const ArrivalProcess& process, double horizon,
                                   Rng& rng) {
  std::vector<double> times;
  double t = 0.0;
  while ((t = process.next(t, horizon, rng)) < horizon) times.push_back(t);
  return times;
}

std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- Arrival processes -------------------------------------------------------

TEST(CampaignArrivals, SeededStreamsReproduceBitForBit) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kDiurnal, ArrivalKind::kPareto,
        ArrivalKind::kFlashCrowd}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_per_hour = 900.0;
    spec.pareto_alpha = 1.6;
    const ArrivalProcess process(spec);
    Rng a(1234), b(1234), c(99);
    const auto first = arrivals_until(process, 6 * kHour, a);
    const auto second = arrivals_until(process, 6 * kHour, b);
    const auto other = arrivals_until(process, 6 * kHour, c);
    ASSERT_FALSE(first.empty()) << arrival_kind_name(kind);
    EXPECT_EQ(first, second) << arrival_kind_name(kind);
    EXPECT_NE(first, other) << arrival_kind_name(kind);
  }
}

TEST(CampaignArrivals, PoissonEmpiricalRateMatches) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_hour = 1500.0;
  const ArrivalProcess process(spec);
  Rng rng(7);
  const double hours = 24.0;
  const auto times = arrivals_until(process, hours * kHour, rng);
  const double expected = spec.rate_per_hour * hours;  // 36000
  // ~5 sigma of a Poisson(36000) count is under 1000.
  EXPECT_NEAR(static_cast<double>(times.size()), expected, 1000.0);
}

TEST(CampaignArrivals, DiurnalRateStaysInsideTheMeasuredBand) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_per_hour = 1500.0;  // defaults give the 1100..2050 jobs/h band
  const ArrivalProcess process(spec);
  double lowest = 1e18;
  double highest = -1e18;
  for (double t = 0.0; t < 48 * kHour; t += 600.0) {
    const double rate = process.rate_at(t);
    lowest = std::min(lowest, rate);
    highest = std::max(highest, rate);
  }
  EXPECT_GE(lowest, 1100.0 - 1e-6);
  EXPECT_LE(highest, 2050.0 + 1e-6);
  EXPECT_NEAR(lowest, 1100.0, 5.0);   // the sinusoid reaches both ends
  EXPECT_NEAR(highest, 2050.0, 5.0);
  EXPECT_DOUBLE_EQ(process.max_rate_per_hour(), highest);
}

TEST(CampaignArrivals, DiurnalEmpiricalMeanTracksTheBandCenter) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_per_hour = 1500.0;
  const ArrivalProcess process(spec);
  Rng rng(11);
  const double hours = 48.0;  // whole periods, so the mean is the band center
  const auto times = arrivals_until(process, hours * kHour, rng);
  const double expected = (1100.0 + 2050.0) / 2.0 * hours;
  EXPECT_NEAR(static_cast<double>(times.size()), expected, 0.05 * expected);
}

TEST(CampaignArrivals, CloudsimDiurnalRateDelegatesHere) {
  // Satellite contract: cloudsim::diurnal_rate and the campaign generator
  // are one implementation, so seeded cloudsim traces cannot drift.
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_per_hour = 1500.0;
  const ArrivalProcess process(spec);
  for (double t = 0.0; t < 36 * kHour; t += 1234.5) {
    EXPECT_DOUBLE_EQ(cloudsim::diurnal_rate(t, 1500.0), process.rate_at(t));
  }
}

TEST(CampaignArrivals, ParetoMeanRateMatchesWhenVarianceIsFinite) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPareto;
  spec.rate_per_hour = 1200.0;
  spec.pareto_alpha = 2.5;  // finite variance, so the empirical mean settles
  const ArrivalProcess process(spec);
  Rng rng(21);
  const double hours = 100.0;
  const auto times = arrivals_until(process, hours * kHour, rng);
  const double expected = spec.rate_per_hour * hours;
  EXPECT_NEAR(static_cast<double>(times.size()), expected, 0.05 * expected);
}

TEST(CampaignArrivals, ParetoGapsAreHeavyTailed) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPareto;
  spec.rate_per_hour = 1200.0;
  spec.pareto_alpha = 1.6;
  const ArrivalProcess process(spec);
  Rng rng(31);
  const auto times = arrivals_until(process, 50 * kHour, rng);
  ASSERT_GT(times.size(), 1000u);
  const double mean_gap = kHour / spec.rate_per_hour;  // 3 s
  double max_gap = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    max_gap = std::max(max_gap, times[i] - times[i - 1]);
  }
  // An exponential process of the same mean essentially never produces a
  // 15x-mean gap in 60k draws without the heavy tail.
  EXPECT_GT(max_gap, 15.0 * mean_gap);
}

TEST(CampaignArrivals, FlashCrowdSpikesInsideTheWindow) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kFlashCrowd;
  spec.rate_per_hour = 1000.0;
  spec.spike_start_hours = 1.0;
  spec.spike_duration_hours = 0.5;
  spec.spike_multiplier = 8.0;
  const ArrivalProcess process(spec);
  EXPECT_DOUBLE_EQ(process.rate_at(0.5 * kHour), 1000.0);
  EXPECT_DOUBLE_EQ(process.rate_at(1.25 * kHour), 8000.0);
  EXPECT_DOUBLE_EQ(process.rate_at(1.75 * kHour), 1000.0);
  EXPECT_DOUBLE_EQ(process.max_rate_per_hour(), 8000.0);

  Rng rng(41);
  const auto times = arrivals_until(process, 3 * kHour, rng);
  std::size_t inside = 0;
  for (const double t : times) {
    if (t >= 1.0 * kHour && t < 1.5 * kHour) ++inside;
  }
  const std::size_t outside = times.size() - inside;
  // Density ratio: 0.5 h of spike vs 2.5 h of baseline; expected
  // inside/outside counts 4000 vs 2500. Require a clear multiplier.
  const double inside_rate = static_cast<double>(inside) / 0.5;
  const double outside_rate = static_cast<double>(outside) / 2.5;
  EXPECT_GT(inside_rate, 4.0 * outside_rate);
}

TEST(CampaignArrivals, OutOfRangeSpecsThrow) {
  ArrivalSpec bad_rate;
  bad_rate.rate_per_hour = 0.0;
  EXPECT_THROW(ArrivalProcess{bad_rate}, std::invalid_argument);

  ArrivalSpec bad_alpha;
  bad_alpha.kind = ArrivalKind::kPareto;
  bad_alpha.pareto_alpha = 1.0;  // infinite mean gap
  EXPECT_THROW(ArrivalProcess{bad_alpha}, std::invalid_argument);

  ArrivalSpec bad_band;
  bad_band.kind = ArrivalKind::kDiurnal;
  bad_band.diurnal_low_ratio = 1.5;
  bad_band.diurnal_high_ratio = 0.5;
  EXPECT_THROW(ArrivalProcess{bad_band}, std::invalid_argument);

  ArrivalSpec bad_spike;
  bad_spike.kind = ArrivalKind::kFlashCrowd;
  bad_spike.spike_multiplier = 0.5;
  EXPECT_THROW(ArrivalProcess{bad_spike}, std::invalid_argument);
}

// ---- Profile parsing ---------------------------------------------------------

constexpr const char* kFullProfile = R"(
campaign:
  name: parse-full
  seed: 77
  duration_hours: 2.5
  target_runs: 5000
  stats_interval_seconds: 600
  pacing: lockstep
arrivals:
  process: pareto
  rate_per_hour: 1800
  pareto_alpha: 1.7
fleet:
  num_qpus: 8
  executor_threads: 1
  trajectory_width_limit: 6
  max_terminal_runs: 512
scheduler:
  queue_threshold: 64
  interval_seconds: 90
  queue_capacity: 2048
admission:
  max_live_runs: 256
  shed_batch_at: 0.5
  shed_standard_at: 0.8
tenants:
  - name: fast
    weight: 0.25
    priority: interactive
    circuit: qft
    width: 5
    shots: 256
    fidelity_weight: 0.9
    deadline_offset_seconds: 120
    deadline_offset_max_seconds: 480
  - name: bulk
    weight: 0.75
    priority: batch
    circuit: qaoa
    width: 10
    shots: 4096
slo:
  interactive_seconds: 300
  batch_seconds: 7200
churn:
  - at_hours: 2.0
    action: recalibrate
  - at_hours: 0.5
    action: qpu_offline
    qpu: lagos
)";

TEST(CampaignProfile, ParsesEverySection) {
  const auto parsed = parse_profile(kFullProfile);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const CampaignProfile& profile = *parsed;
  EXPECT_EQ(profile.name, "parse-full");
  EXPECT_EQ(profile.seed, 77u);
  EXPECT_DOUBLE_EQ(profile.duration_hours, 2.5);
  EXPECT_EQ(profile.target_runs, 5000u);
  EXPECT_DOUBLE_EQ(profile.stats_interval_seconds, 600.0);
  EXPECT_EQ(profile.pacing, PacingMode::kLockstep);

  EXPECT_EQ(profile.arrivals.kind, ArrivalKind::kPareto);
  EXPECT_DOUBLE_EQ(profile.arrivals.rate_per_hour, 1800.0);
  EXPECT_DOUBLE_EQ(profile.arrivals.pareto_alpha, 1.7);

  EXPECT_EQ(profile.num_qpus, 8u);
  EXPECT_EQ(profile.executor_threads, 1u);
  EXPECT_EQ(profile.trajectory_width_limit, 6);
  EXPECT_EQ(profile.max_terminal_runs, 512u);
  EXPECT_EQ(profile.scheduler.queue_threshold, 64u);
  EXPECT_EQ(profile.scheduler.queue_capacity, 2048u);
  EXPECT_EQ(profile.admission.max_live_runs, 256u);

  ASSERT_EQ(profile.tenants.size(), 2u);
  EXPECT_EQ(profile.tenants[0].name, "fast");
  EXPECT_EQ(profile.tenants[0].priority, api::Priority::kInteractive);
  EXPECT_EQ(profile.tenants[0].family, circuit::BenchmarkFamily::kQft);
  EXPECT_EQ(profile.tenants[0].width, 5);
  EXPECT_EQ(profile.tenants[0].shots, 256);
  ASSERT_TRUE(profile.tenants[0].fidelity_weight.has_value());
  EXPECT_DOUBLE_EQ(*profile.tenants[0].fidelity_weight, 0.9);
  EXPECT_DOUBLE_EQ(profile.tenants[0].deadline_offset_min_seconds, 120.0);
  EXPECT_DOUBLE_EQ(profile.tenants[0].deadline_offset_max_seconds, 480.0);
  EXPECT_FALSE(profile.tenants[1].fidelity_weight.has_value());

  EXPECT_DOUBLE_EQ(
      profile.slo_seconds[static_cast<std::size_t>(api::Priority::kInteractive)],
      300.0);
  EXPECT_DOUBLE_EQ(
      profile.slo_seconds[static_cast<std::size_t>(api::Priority::kBatch)], 7200.0);
  EXPECT_DOUBLE_EQ(
      profile.slo_seconds[static_cast<std::size_t>(api::Priority::kStandard)], 0.0);

  // Churn is sorted by virtual instant regardless of file order.
  ASSERT_EQ(profile.churn.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.churn[0].at_seconds, 0.5 * kHour);
  EXPECT_EQ(profile.churn[0].action, ChurnAction::kQpuOffline);
  EXPECT_EQ(profile.churn[0].qpu, "lagos");
  EXPECT_DOUBLE_EQ(profile.churn[1].at_seconds, 2.0 * kHour);
  EXPECT_EQ(profile.churn[1].action, ChurnAction::kRecalibrate);
}

TEST(CampaignProfile, MinimalProfileGetsDefaults) {
  const auto parsed = parse_profile(R"(
tenants:
  - name: only
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->name, "campaign");
  EXPECT_EQ(parsed->pacing, PacingMode::kLockstep);
  EXPECT_EQ(parsed->arrivals.kind, ArrivalKind::kPoisson);
  EXPECT_EQ(parsed->num_qpus, 4u);
  EXPECT_EQ(parsed->tenants.size(), 1u);
  EXPECT_EQ(parsed->tenants[0].priority, api::Priority::kStandard);
}

void expect_invalid(const std::string& text, const std::string& needle) {
  const auto parsed = parse_profile(text);
  ASSERT_FALSE(parsed.ok()) << "expected failure mentioning '" << needle << "'";
  EXPECT_EQ(parsed.status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
      << parsed.status().to_string();
}

TEST(CampaignProfile, MalformedProfilesSurfaceInvalidArgument) {
  // yamlite parse error (bad indentation inside a mapping).
  expect_invalid("campaign:\n  name: x\n bad: 1\n", "campaign profile");
  // Unknown keys at every level are rejected, not ignored.
  expect_invalid("tenants:\n  - name: t\nyolo: 1\n", "unknown key 'yolo'");
  expect_invalid("campaign:\n  velocity: 9\ntenants:\n  - name: t\n",
                 "unknown key 'velocity'");
  // Unknown enum values name the offender.
  expect_invalid("arrivals:\n  process: bursty\ntenants:\n  - name: t\n",
                 "unknown process 'bursty'");
  expect_invalid("tenants:\n  - name: t\n    priority: urgent\n",
                 "unknown priority 'urgent'");
  expect_invalid(
      "tenants:\n  - name: t\nchurn:\n  - at_hours: 1\n    action: explode\n",
      "unknown action 'explode'");
  // Structural and range violations.
  expect_invalid("campaign:\n  name: x\n", "tenants");
  expect_invalid("tenants:\n  - name: t\n    weight: 0\n", "weight");
  expect_invalid("tenants:\n  - name: t\n    width: 1\n", "width");
  expect_invalid("tenants:\n  - name: t\n    width: 28\n", "width");
  expect_invalid("campaign:\n  name: bad name!\ntenants:\n  - name: t\n", "name");
  expect_invalid(
      "campaign:\n  duration_hours: 0\ntenants:\n  - name: t\n", "duration");
  expect_invalid(
      "churn:\n  - at_hours: 1\n    action: qpu_offline\ntenants:\n  - name: t\n",
      "qpu");
  // The lockstep determinism contract is enforced structurally.
  expect_invalid(
      "fleet:\n  executor_threads: 2\ntenants:\n  - name: t\n", "lockstep");
  expect_invalid(
      "scheduler:\n  queue_threshold: 100\nadmission:\n  max_live_runs: 50\n"
      "tenants:\n  - name: t\n",
      "lockstep");
}

TEST(CampaignProfile, WindowedPacingLiftsTheLockstepConstraints) {
  const auto parsed = parse_profile(R"(
campaign:
  pacing: windowed
fleet:
  executor_threads: 4
tenants:
  - name: t
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->pacing, PacingMode::kWindowed);
  EXPECT_EQ(parsed->executor_threads, 4u);
}

TEST(CampaignProfile, AlertsSectionParsesRulesWithDefaults) {
  const auto parsed = parse_profile(R"(
tenants:
  - name: t
slo:
  interactive_seconds: 600
  standard_seconds: 1800
alerts:
  - name: interactive-burn
    priority: interactive
    attainment_target: 0.95
    fast_window_seconds: 600
    slow_window_seconds: 1800
    burn_threshold: 3.0
    clear_threshold: 0.5
    min_samples: 20
  - name: standard-burn
    priority: standard
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->alerts.size(), 2u);
  const obs::SloRule& tuned = parsed->alerts[0];
  EXPECT_EQ(tuned.name, "interactive-burn");
  EXPECT_EQ(tuned.priority, api::Priority::kInteractive);
  EXPECT_DOUBLE_EQ(tuned.attainment_target, 0.95);
  EXPECT_DOUBLE_EQ(tuned.fast_window_seconds, 600.0);
  EXPECT_DOUBLE_EQ(tuned.slow_window_seconds, 1800.0);
  EXPECT_DOUBLE_EQ(tuned.burn_threshold, 3.0);
  EXPECT_DOUBLE_EQ(tuned.clear_threshold, 0.5);
  EXPECT_EQ(tuned.min_samples, 20u);
  // Only name/priority given: the SloRule defaults fill the rest.
  const obs::SloRule& bare = parsed->alerts[1];
  EXPECT_EQ(bare.priority, api::Priority::kStandard);
  EXPECT_DOUBLE_EQ(bare.attainment_target, 0.99);
  EXPECT_EQ(bare.min_samples, 10u);
}

TEST(CampaignProfile, AlertValidationRejectsBrokenRules) {
  const std::string base = "tenants:\n  - name: t\nslo:\n  standard_seconds: 1800\n";
  // A rule over a class with no SLO target cannot define a burn rate.
  expect_invalid(base + "alerts:\n  - name: a\n    priority: batch\n",
                 "slo.batch_seconds");
  // Baseline sanity: the same rule on the SLO-carrying class parses fine.
  const auto ok = parse_profile(base + "alerts:\n  - name: a\n");
  EXPECT_TRUE(ok.ok()) << ok.status().to_string();
  // Range violations name the rule.
  expect_invalid(
      base + "alerts:\n  - name: a\n    attainment_target: 1.0\n", "attainment");
  expect_invalid(
      base + "alerts:\n  - name: a\n    fast_window_seconds: 900\n"
             "    slow_window_seconds: 600\n",
      "window");
  expect_invalid(
      base + "alerts:\n  - name: a\n    burn_threshold: 1.0\n"
             "    clear_threshold: 2.0\n",
      "clear_threshold");
  expect_invalid(base + "alerts:\n  - name: a\n    typo_knob: 1\n",
                 "unknown key 'typo_knob'");
  expect_invalid(base + "alerts:\n  - priority: standard\n", "name");
}

TEST(CampaignProfile, LoadProfileFileReportsNotFound) {
  const auto loaded = load_profile_file("/nonexistent/profile.yaml");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), api::StatusCode::kNotFound);
}

TEST(CampaignProfile, MakeOrchestratorConfigHardCodes) {
  const auto parsed = parse_profile(kFullProfile);
  ASSERT_TRUE(parsed.ok());
  const core::QonductorConfig config = make_orchestrator_config(*parsed);
  EXPECT_EQ(config.num_qpus, 8u);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_FALSE(config.telemetry.tracing);  // bounded-memory contract
  EXPECT_TRUE(config.telemetry.metrics);
  EXPECT_EQ(config.retention.max_terminal_runs, 512u);
}

// ---- Latency accumulator -----------------------------------------------------

TEST(CampaignReport, LatencyAccumulatorQuantilesAndSloFraction) {
  LatencyAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(acc.fraction_below(1.0), 1.0);  // vacuous SLO holds

  for (int i = 1; i <= 1000; ++i) acc.observe(static_cast<double>(i));
  EXPECT_EQ(acc.count(), 1000u);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 1000.0);
  EXPECT_NEAR(acc.mean(), 500.5, 1e-9);
  // Bucket resolution is ~7.5%; allow 10%.
  EXPECT_NEAR(acc.quantile(0.5), 500.0, 50.0);
  EXPECT_NEAR(acc.quantile(0.9), 900.0, 90.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 1000.0);
  EXPECT_NEAR(acc.fraction_below(250.0), 0.25, 0.05);
  EXPECT_DOUBLE_EQ(acc.fraction_below(2000.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.fraction_below(0.0001), 0.0);
}

// ---- Stats sink --------------------------------------------------------------

TEST(CampaignSink, JsonlRowsBatchAndFlushOnDestruction) {
  const std::string path = temp_path("stats.jsonl");
  {
    StatsSink sink(path, StatsFormat::kJsonl, {"a", "b"}, /*batch_rows=*/3);
    sink.append({"1", "2.5"});
    sink.append({"2", "3.5"});
    EXPECT_EQ(slurp(path), "");  // still buffered below the batch size
    sink.append({"3", "4.5"});   // third row completes the batch
    EXPECT_EQ(slurp(path),
              "{\"a\":1,\"b\":2.5}\n{\"a\":2,\"b\":3.5}\n{\"a\":3,\"b\":4.5}\n");
    sink.append({"4", "5.5"});
    EXPECT_EQ(sink.rows_written(), 4u);
  }  // destructor flushes the partial batch
  EXPECT_EQ(slurp(path),
            "{\"a\":1,\"b\":2.5}\n{\"a\":2,\"b\":3.5}\n{\"a\":3,\"b\":4.5}\n"
            "{\"a\":4,\"b\":5.5}\n");
  std::remove(path.c_str());
}

TEST(CampaignSink, CsvWritesHeaderAndRejectsArityMismatch) {
  const std::string path = temp_path("stats.csv");
  StatsSink sink(path, StatsFormat::kCsv, {"x", "y"}, 1);
  sink.append({"10", "20"});
  EXPECT_EQ(slurp(path), "x,y\n10,20\n");
  EXPECT_THROW(sink.append({"only-one"}), std::runtime_error);
  std::remove(path.c_str());
}

// ---- Snapshot deltas ---------------------------------------------------------

TEST(ObsDelta, CountersSubtractGaugesPassThrough) {
  api::MetricsSnapshot prev;
  api::MetricsSnapshot cur;
  api::MetricValue counter;
  counter.name = "t_total";
  counter.kind = api::MetricKind::kCounter;
  counter.value = 10.0;
  prev.metrics.push_back(counter);
  counter.value = 25.0;
  cur.metrics.push_back(counter);

  api::MetricValue gauge;
  gauge.name = "t_depth";
  gauge.kind = api::MetricKind::kGauge;
  gauge.value = 3.0;
  prev.metrics.push_back(gauge);
  gauge.value = 7.0;
  cur.metrics.push_back(gauge);

  api::MetricValue hist;
  hist.name = "t_seconds";
  hist.kind = api::MetricKind::kHistogram;
  hist.bucket_bounds = {1.0, 2.0};
  hist.bucket_counts = {2, 1};
  hist.inf_count = 1;
  hist.sum = 5.0;
  hist.count = 4;
  prev.metrics.push_back(hist);
  hist.bucket_counts = {5, 2};
  hist.inf_count = 2;
  hist.sum = 12.0;
  hist.count = 9;
  cur.metrics.push_back(hist);

  // Registered mid-interval: full current value survives.
  api::MetricValue fresh;
  fresh.name = "t_new_total";
  fresh.kind = api::MetricKind::kCounter;
  fresh.value = 4.0;
  cur.metrics.push_back(fresh);

  const api::MetricsSnapshot delta = obs::snapshot_delta(prev, cur);
  const api::MetricValue* d_counter = obs::find_metric(delta, "t_total");
  ASSERT_NE(d_counter, nullptr);
  EXPECT_DOUBLE_EQ(d_counter->value, 15.0);
  const api::MetricValue* d_gauge = obs::find_metric(delta, "t_depth");
  ASSERT_NE(d_gauge, nullptr);
  EXPECT_DOUBLE_EQ(d_gauge->value, 7.0);
  const api::MetricValue* d_hist = obs::find_metric(delta, "t_seconds");
  ASSERT_NE(d_hist, nullptr);
  EXPECT_EQ(d_hist->bucket_counts, (std::vector<std::uint64_t>{3, 1}));
  EXPECT_EQ(d_hist->inf_count, 1u);
  EXPECT_DOUBLE_EQ(d_hist->sum, 7.0);
  EXPECT_EQ(d_hist->count, 5u);
  const api::MetricValue* d_fresh = obs::find_metric(delta, "t_new_total");
  ASSERT_NE(d_fresh, nullptr);
  EXPECT_DOUBLE_EQ(d_fresh->value, 4.0);
  EXPECT_DOUBLE_EQ(obs::sum_metric_family(delta, "t_total"), 15.0);
}

// ---- Bounded-ring drop counters (no silent caps) -----------------------------

TEST(CampaignDropCounters, TraceSpanRingOverflowIsCounted) {
  obs::TelemetryConfig config;
  config.trace_spans_per_run = 1;
  obs::Telemetry telemetry(config);
  const obs::TraceContext trace = telemetry.tracer().start(1);
  for (int i = 0; i < 3; ++i) {
    trace->record(telemetry.tracer().point("p", static_cast<double>(i)));
  }
  const api::MetricsSnapshot snapshot = telemetry.snapshot(0.0);
  const api::MetricValue* dropped =
      obs::find_metric(snapshot, "qon_trace_spans_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_DOUBLE_EQ(dropped->value, 2.0);
}

TEST(CampaignDropCounters, CycleHistoryEvictionIsCounted) {
  // One-slot cycle history: every cycle past the first evicts one record.
  std::atomic<double> clock{0.0};
  core::SchedulerServiceHooks hooks;
  hooks.now = [&clock] { return clock.load(); };
  hooks.snapshot_qpus = [&clock](double advance_to) {
    double seen = clock.load();
    while (advance_to > seen && !clock.compare_exchange_weak(seen, advance_to)) {
    }
    return std::vector<sched::QpuState>{{"fake0", 27, 0.0, true}};
  };
  core::SchedulerServiceConfig config;
  config.queue_threshold = 1;
  config.linger = 10s;
  config.stats_cycle_history = 1;
  obs::Telemetry telemetry;
  core::SchedulerService service(config, 7, {}, hooks, &telemetry);
  for (api::RunId run = 1; run <= 3; ++run) {
    auto task = std::make_shared<core::PendingQuantumTask>();
    task->run = run;
    task->task_name = "t";
    task->qubits = 4;
    task->shots = 100;
    task->est_fidelity.assign(1, 0.9);
    task->est_exec_seconds.assign(1, 2.0);
    ASSERT_TRUE(service.enqueue(task));
    task->await();
    ASSERT_TRUE(task->error.ok()) << task->error.to_string();
  }
  EXPECT_EQ(service.stats().recent_cycles.size(), 1u);
  // find_metric points into the snapshot: keep it alive past the lookup.
  const api::MetricsSnapshot snapshot = telemetry.snapshot(0.0);
  const api::MetricValue* dropped =
      obs::find_metric(snapshot, "qon_sched_stats_cycles_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_DOUBLE_EQ(dropped->value, 2.0);
}

// ---- End-to-end determinism --------------------------------------------------

TEST(CampaignDriver, LockstepCampaignIsBytePerfectlyReproducible) {
  const auto parsed = parse_profile(R"(
campaign:
  name: e2e-tiny
  seed: 5
  duration_hours: 0.1
  stats_interval_seconds: 60
arrivals:
  process: poisson
  rate_per_hour: 1200
fleet:
  num_qpus: 2
scheduler:
  queue_threshold: 20
tenants:
  - name: mix-a
    weight: 0.6
    priority: standard
    circuit: ghz
    width: 4
    shots: 512
  - name: mix-b
    weight: 0.4
    priority: interactive
    circuit: qft
    width: 3
    shots: 256
slo:
  interactive_seconds: 600
  standard_seconds: 1800
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();

  const std::string first_path = temp_path("first.jsonl");
  const std::string second_path = temp_path("second.jsonl");
  CampaignOptions options;
  options.stats_path = first_path;
  const auto first = run_campaign(*parsed, options);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  options.stats_path = second_path;
  const auto second = run_campaign(*parsed, options);
  ASSERT_TRUE(second.ok()) << second.status().to_string();

  // The whole campaign is a pure function of the profile: the streamed
  // stats match byte for byte and the virtual-domain report fields agree.
  const std::string first_stream = slurp(first_path);
  EXPECT_FALSE(first_stream.empty());
  EXPECT_EQ(first_stream, slurp(second_path));
  EXPECT_GT(first->arrivals, 0u);
  EXPECT_EQ(first->arrivals, first->admitted);
  EXPECT_EQ(first->completed + first->failed + first->cancelled, first->admitted);
  EXPECT_EQ(first->arrivals, second->arrivals);
  EXPECT_EQ(first->completed, second->completed);
  EXPECT_EQ(first->sched_cycles, second->sched_cycles);
  EXPECT_DOUBLE_EQ(first->virtual_duration_seconds,
                   second->virtual_duration_seconds);
  ASSERT_EQ(first->classes.size(), second->classes.size());
  for (std::size_t c = 0; c < first->classes.size(); ++c) {
    EXPECT_EQ(first->classes[c].completed, second->classes[c].completed);
    EXPECT_DOUBLE_EQ(first->classes[c].mean_latency_seconds,
                     second->classes[c].mean_latency_seconds);
    EXPECT_DOUBLE_EQ(first->classes[c].p99_seconds, second->classes[c].p99_seconds);
  }
  EXPECT_EQ(first->stats_rows, second->stats_rows);

  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

}  // namespace
}  // namespace qon::campaign
