// --trace 0: the end-to-end metrics, tracing off. Set-up is repeated
// kSetupRepeats times and its median reported; the last set-up's session
// is then timed for --seconds, in kBlocks blocks.

#include <cstdio>
#include <memory>
#include <vector>

#include "report.hpp"

namespace qb {

namespace {

constexpr int kSetupRepeats = 15;
/// The timed phase runs as this many equal blocks. runs_per_s and
/// invoke_p50_us are the median of the per-block values, so a stall
/// confined to one block does not move them; virtual metrics pool every
/// block. run_wall_p50_ms and run_wall_p99_ms are the median over every
/// group of the p50 and p99 within that group: a pooled p99 is set by the
/// few groups a host stall hits and does not repeat from run to run.
constexpr int kBlocks = 10;
/// peak_rss_mb is read once the timed phase has completed this many runs
/// (or at its end, if it never does), so a program that completes more runs
/// in the same seconds is not charged for the memory of its extra runs.
constexpr std::uint64_t kRssRuns = 4096;

}  // namespace

int run_end_to_end(const WorkloadSpec& spec, const Options& opt) {
  bool correct = true;
  Samples setup_s;
  std::vector<std::uint64_t> digests;
  std::unique_ptr<Session> session;
  PassStats setup_calls;
  for (int i = 0; i < kSetupRepeats; ++i) {
    PassStats warm;
    setup_s.add(set_up(session, spec, opt.seed, spec.executor_threads, nullptr,
                       setup_calls, warm));
    digests.push_back(warm.digest.value());
    correct = correct && warm.outputs_ok();
  }

  PassStats timed;
  Samples block_rate, block_invoke_p50;
  double rss_mb = 0.0;
  std::uint64_t rss_runs = 0;
  for (int b = 0; b < kBlocks; ++b) {
    PassStats block;
    session->run_for(opt.seconds / kBlocks, block, [&] {
      if (rss_runs < kRssRuns) {
        rss_mb = peak_rss_mb();
        rss_runs = timed.completed + block.completed;
      }
    });
    block_rate.add(block.runs_per_s());
    block_invoke_p50.add(block.invoke_us.quantile(0.50));
    timed.merge(block);
  }
  session.reset();
  print_pass("timed", timed);
  std::printf("  run wall ms: pooled p99 %.3f, per-group p99 p10 %.3f p50 %.3f p90 %.3f\n",
              timed.run_wall_ms.quantile(0.99), timed.group_wall_p99_ms.quantile(0.1),
              timed.group_wall_p99_ms.median(), timed.group_wall_p99_ms.quantile(0.9));
  correct = correct && timed.outputs_ok();

  if (spec.name == "batch_analytic") {
    // Determinism self-check: every set-up ran the same seeded warm-up
    // group on one worker and must produce the same digest; another seed
    // must not.
    PassStats other_setup;
    PassStats other;
    set_up(session, spec, opt.seed + 1, spec.executor_threads, nullptr, other_setup, other);
    session.reset();
    bool same = true;
    for (const std::uint64_t d : digests) same = same && d == digests.front();
    const bool differs = other.digest.value() != digests.front();
    std::printf("digest: seed %llu -> %016llx (x%d, %s), seed %llu -> %016llx (%s)\n",
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(digests.front()), kSetupRepeats,
                same ? "identical" : "MISMATCH",
                static_cast<unsigned long long>(opt.seed + 1),
                static_cast<unsigned long long>(other.digest.value()),
                differs ? "differs" : "SAME AS OTHER SEED");
    correct = correct && same && differs;
  }

  Report report;
  report.add("runs_per_s", block_rate.median(), "runs/s", timed.completed);
  report.add("run_wall_p50_ms", timed.group_wall_p50_ms.median(), "ms",
             timed.group_wall_p50_ms.count());
  report.add("run_wall_p99_ms", timed.group_wall_p99_ms.median(), "ms",
             timed.group_wall_p99_ms.count());
  report.add("invoke_p50_us", block_invoke_p50.median(), "us", timed.invoke_us.count());
  report.add("jct_p50_s", timed.jct_s.quantile(0.50), "s", timed.jct_s.count());
  report.add("jct_p99_s", timed.jct_s.quantile(0.99), "s", timed.jct_s.count());
  report.add("fidelity_mean", timed.fidelity.mean(), "1", timed.fidelity.count());
  report.add("qpu_util", timed.qpu_util(), "1", timed.qpu_busy_s.size());
  report.add("setup_s", setup_s.median(), "s", setup_s.count());
  report.add("peak_rss_mb", rss_mb, "MB", rss_runs);
  correct = correct && report.all_finite();
  report.print(correct, timed.attempted, timed.failed + timed.refused);
  return 0;
}

}  // namespace qb
