// Unit tests for the common substrate: RNG, statistics, thread pool, tables.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace qon {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, StreamsDependOnlyOnTheirKey) {
  Rng a = Rng::stream(7, 3, 1);
  Rng busy = Rng::stream(7, 3, 2);
  for (int i = 0; i < 1000; ++i) busy();  // other streams' draws do not matter
  Rng b = Rng::stream(7, 3, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  // Each key component moves the stream.
  const std::uint64_t first = Rng::stream(7, 3, 1)();
  EXPECT_NE(Rng::stream(8, 3, 1)(), first);
  EXPECT_NE(Rng::stream(7, 4, 1)(), first);
  EXPECT_NE(Rng::stream(7, 3, 2)(), first);
  EXPECT_NE(Rng::stream(7, 1, 3)(), first);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 50000;
  double mean = 0.0;
  double m2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    mean += x;
    m2 += x * x;
  }
  mean /= n;
  m2 /= n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(m2 - mean * mean, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  for (double lambda : {0.5, 4.0, 30.0, 100.0}) {
    double acc = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(acc / n, lambda, lambda * 0.1 + 0.15) << "lambda=" << lambda;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  const double lambda = 2.5;
  double acc = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(lambda);
  EXPECT_NEAR(acc / n, 1.0 / lambda, 0.02);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(23);
  const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> hits(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++hits[rng.weighted_index(w)];
  EXPECT_EQ(hits[2], 0);
  EXPECT_NEAR(hits[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(hits[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(29);
  std::vector<double> zero = {0.0, 0.0};
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(zero), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.split();
  // Child stream should not equal the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, EmptyInputs) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(min_of({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, PercentileRejectsOutOfRange) {
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, EmpiricalCdfMonotone) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LE(cdf[i - 1].probability, cdf[i].probability);
  }
}

TEST(Stats, CdfAtThreshold) {
  const std::vector<double> xs = {0.05, 0.2, 0.4, 0.9};
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.1), 0.25);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.0), 0.0);
}

TEST(Stats, HistogramClampsOutliers) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.counts().front(), 1u);
  EXPECT_EQ(h.counts().back(), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_center(0), 1.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(41);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(rs.max(), max_of(xs));
}

TEST(Stats, TimeWeightedAverage) {
  TimeWeightedAverage twa;
  twa.record(0.0, 10.0);   // value 10 from t=0
  twa.record(1.0, 20.0);   // value 10 held for 1s, then 20
  twa.record(3.0, 0.0);    // value 20 held for 2s
  // average = (10*1 + 20*2) / 3
  EXPECT_NEAR(twa.average(), 50.0 / 3.0, 1e-12);
}

TEST(Stats, TimeWeightedAverageRejectsBackwardsTime) {
  TimeWeightedAverage twa;
  twa.record(5.0, 1.0);
  EXPECT_THROW(twa.record(4.0, 1.0), std::invalid_argument);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_each_index(
      0, hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }, &pool, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsTaskValue) {
  ThreadPool pool(2);
  auto answer = pool.submit([] { return 6 * 7; });
  auto text = pool.submit([] { return std::string("qon"); });
  EXPECT_EQ(answer.get(), 42);
  EXPECT_EQ(text.get(), "qon");
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i % 97);
  std::atomic<long long> par_sum{0};
  parallel_for_blocked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        long long local = 0;
        for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(xs[i]);
        par_sum.fetch_add(local);
      },
      &pool, 128);
  long long serial = 0;
  for (double x : xs) serial += static_cast<long long>(x);
  EXPECT_EQ(par_sum.load(), serial);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for_blocked(5, 5, [&calls](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ShutdownRejectsLateSubmissionsTyped) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.stopping());
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_TRUE(pool.stopping());
  // try_submit reports the rejection as a value; submit keeps the throwing
  // contract for call sites that treat it as a logic error.
  auto rejected = pool.try_submit([] { return 1; });
  EXPECT_FALSE(rejected.has_value());
  EXPECT_THROW(pool.submit([] { return 1; }), std::logic_error);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  std::promise<void> block;
  auto block_future = block.get_future().share();
  ThreadPool pool(1);
  // First task occupies the single worker; the rest pile up in the queue.
  pool.submit([block_future, &executed] {
    block_future.wait();
    ++executed;
  });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&executed] { ++executed; });
  }
  std::thread shutter([&pool] { pool.shutdown(); });  // blocks until drained
  block.set_value();
  shutter.join();
  // Every accepted task ran before the workers were joined.
  EXPECT_EQ(executed.load(), 9);
}

TEST(ThreadPool, ConcurrentSubmitVersusShutdownNeverDropsAcceptedWork) {
  // Submitters race shutdown(): each submission must either be accepted
  // (and then run to completion) or be rejected with nullopt — never
  // silently dropped, never a crash or deadlock. Run under TSAN in CI.
  constexpr int kSubmitters = 4;
  ThreadPool pool(2);
  std::atomic<int> accepted{0};
  std::atomic<int> executed{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    // Each submitter hammers the pool until it observes the shutdown as a
    // rejection, so the race window is hit deterministically.
    submitters.emplace_back([&pool, &accepted, &executed, &rejected] {
      for (;;) {
        auto fut = pool.try_submit([&executed] { ++executed; });
        if (!fut.has_value()) {
          ++rejected;
          break;
        }
        ++accepted;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  pool.shutdown();
  for (auto& t : submitters) t.join();

  EXPECT_EQ(rejected.load(), kSubmitters);  // every submitter saw the stop
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_GT(accepted.load(), 0);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream oss;
  t.print(oss, "demo");
  const std::string out = oss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds());
}

TEST(LogRateLimiter, PassesOneInEveryAndReportsSuppressed) {
  LogRateLimiter limiter(100);
  std::uint64_t suppressed = 123;
  EXPECT_TRUE(limiter.allow(&suppressed));
  EXPECT_EQ(suppressed, 0u);  // nothing swallowed before the first emission

  // Calls 2..100 are suppressed; call 101 passes and reports the 99 skips.
  std::uint64_t blocked = 0;
  for (int i = 0; i < 99; ++i) {
    if (!limiter.allow()) ++blocked;
  }
  EXPECT_EQ(blocked, 99u);
  EXPECT_TRUE(limiter.allow(&suppressed));
  EXPECT_EQ(suppressed, 99u);
  EXPECT_EQ(limiter.total(), 101u);
}

TEST(LogRateLimiter, EveryOneLetsEverythingThroughAndZeroIsClamped) {
  LogRateLimiter always(1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(always.allow());
  LogRateLimiter clamped(0);  // degenerate config must not divide by zero
  EXPECT_TRUE(clamped.allow());
  EXPECT_TRUE(clamped.allow());
}

TEST(LogRateLimiter, IsWaitFreeUnderConcurrentCallers) {
  LogRateLimiter limiter(10);
  std::atomic<std::uint64_t> allowed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        if (limiter.allow()) allowed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // 1000 calls at 1-in-10: exactly 100 pass, regardless of interleaving.
  EXPECT_EQ(limiter.total(), 1000u);
  EXPECT_EQ(allowed.load(), 100u);
}

}  // namespace
}  // namespace qon
