/// \file bench_verify.cpp
/// \brief Verification-engine throughput: permutations/sec and hill-climb
///        steps/sec of the adversarial and exhaustive verifiers.
///
/// Three sections, one nbclos-bench-v1 document on stdout (names in
/// EXPERIMENTS.md):
///   * adversarial — a fixed worst-case budget on ftree(4+16, 8) under
///     d-mod-k: the serial full re-evaluation reference
///     (worst_case_search on as_pattern_router) vs. the cache-backed
///     delta climb (worst_case_search_parallel on a 1-thread pool).  Same
///     seed, so both walk the identical trajectories and must agree on
///     the collisions and evaluations — a verdict;
///   * exhaustive — verify_exhaustive over all leaf_count! permutations of
///     a nonblocking instance (no early exit), serial and sharded over
///     1/2/8 pool threads;
///   * lemma2 — root_capacity_exact / root_capacity_bruteforce timings at
///     the caps the branch-and-bound search lifted them to.
/// The obs_overhead section reruns the delta worst-case search with
/// metric recording enabled vs paused (obs::set_enabled); the live cost
/// must stay under 2% and the results field-identical.  Pass --quick for
/// CI smoke budgets, --threads <T> to cap the scaling sweep.  Results are
/// seeded and bit-reproducible; timings are not, so every timed section
/// runs once untimed (warm-up) and then reports the best of three timed
/// repetitions — the repeatable cost of the work, not whatever the
/// scheduler did to one run.
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nbclos/analysis/parallel.hpp"
#include "nbclos/analysis/root_capacity.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace {

constexpr int kTimingReps = 3;

}  // namespace

int main(int argc, char** argv) {
  const auto args = nbclos::bench::parse_args(argc, argv);
  const std::size_t max_threads = args.threads.value_or(8);

  nbclos::bench::Report report("verify_engine");
  report.manifest().seed = 7;
  report.manifest().threads = static_cast<std::uint32_t>(max_threads);
  report.param("quick", args.quick);

  // --- Adversarial: full re-evaluation vs delta evaluation. ------------
  nbclos::AdversarialOptions adv_options;
  adv_options.restarts = args.quick ? 2 : 8;
  adv_options.steps_per_restart = args.quick ? 200 : 2000;
  {
    constexpr std::uint32_t kN = 4;
    constexpr std::uint32_t kR = 8;
    const nbclos::FoldedClos ftree(nbclos::FtreeParams{kN, kN * kN, kR});
    const nbclos::DModKRouting dmodk(ftree);

    nbclos::WorstCaseResult full;
    const double full_secs = nbclos::bench::best_of(kTimingReps, [&] {
      full = nbclos::worst_case_search(ftree, nbclos::as_pattern_router(dmodk),
                                       adv_options, 7);
    });

    nbclos::ThreadPool serial_pool(1);
    const auto search = [&] {
      return nbclos::worst_case_search_parallel(ftree, dmodk, adv_options, 7,
                                                serial_pool);
    };
    nbclos::WorstCaseResult delta;
    const double delta_secs =
        nbclos::bench::best_of(kTimingReps, [&] { delta = search(); });

    const double full_rate = static_cast<double>(full.evaluations) / full_secs;
    const double delta_rate =
        static_cast<double>(delta.evaluations) / delta_secs;
    report.param("adversarial.topology",
                 "ftree(" + std::to_string(kN) + "+" +
                     std::to_string(kN * kN) + ", " + std::to_string(kR) +
                     ")");
    report.param("adversarial.routing", "d-mod-k");
    report.param("adversarial.restarts", adv_options.restarts);
    report.param("adversarial.steps_per_restart",
                 adv_options.steps_per_restart);
    report.verdict("adversarial.delta_matches_full",
                   full.collisions == delta.collisions &&
                       full.evaluations == delta.evaluations);
    report.metric("adversarial.worst_collisions", full.collisions, "pairs");
    report.metric("adversarial.evaluations", full.evaluations, "perms");
    report.metric("adversarial.full.seconds", full_secs, "s");
    report.metric("adversarial.full.perms_per_sec", full_rate, "perms/s",
                  true);
    report.metric("adversarial.delta.seconds", delta_secs, "s");
    report.metric("adversarial.delta.perms_per_sec", delta_rate, "perms/s",
                  true);
    report.metric("adversarial.speedup", delta_rate / full_rate, "ratio");

    // --- instrumentation overhead: metrics live vs paused --------------
    nbclos::obs::set_enabled(true);
    nbclos::WorstCaseResult on_result;
    const double on_secs =
        nbclos::bench::best_of(kTimingReps, [&] { on_result = search(); });
    nbclos::obs::set_enabled(false);
    nbclos::WorstCaseResult off_result;
    const double off_secs =
        nbclos::bench::best_of(kTimingReps, [&] { off_result = search(); });
    nbclos::obs::set_enabled(true);
    report.param("obs_overhead.compiled_in", nbclos::obs::kEnabled);
    report.verdict("obs_overhead.results_identical",
                   on_result.collisions == off_result.collisions &&
                       on_result.evaluations == off_result.evaluations &&
                       on_result.permutation == off_result.permutation);
    report.metric("obs_overhead.enabled_seconds", on_secs, "s");
    report.metric("obs_overhead.paused_seconds", off_secs, "s");
    report.metric("obs_overhead.overhead_pct",
                  (on_secs / off_secs - 1.0) * 100.0, "%");
  }

  // --- Exhaustive: serial vs sharded thread scaling. -------------------
  {
    // 9! = 362880 permutations in the full run — big enough to amortize
    // shard startup; --quick drops to 7! = 5040.
    const std::uint32_t n = args.quick ? 1 : 3;
    const std::uint32_t r = args.quick ? 7 : 3;
    const nbclos::FoldedClos ftree(nbclos::FtreeParams{n, n * n, r});
    const nbclos::YuanNonblockingRouting yuan(ftree);
    const auto factory = [&yuan](std::uint64_t) {
      return nbclos::as_pattern_router(yuan);
    };

    nbclos::VerifyResult serial;
    const double serial_secs = nbclos::bench::best_of(kTimingReps, [&] {
      serial = nbclos::verify_exhaustive(ftree, nbclos::as_pattern_router(yuan));
    });
    report.param("exhaustive.topology",
                 "ftree(" + std::to_string(n) + "+" + std::to_string(n * n) +
                     ", " + std::to_string(r) + ")");
    report.param("exhaustive.routing", yuan.name());
    report.verdict("exhaustive.serial.nonblocking", serial.nonblocking);
    report.metric("exhaustive.permutations", serial.permutations_checked,
                  "perms");
    report.metric("exhaustive.serial.seconds", serial_secs, "s");
    report.metric("exhaustive.serial.perms_per_sec",
                  static_cast<double>(serial.permutations_checked) /
                      serial_secs,
                  "perms/s");
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      if (threads > max_threads) continue;
      nbclos::ThreadPool pool(threads);
      nbclos::VerifyResult sharded;
      const double secs = nbclos::bench::best_of(kTimingReps, [&] {
        sharded = nbclos::verify_exhaustive_parallel(ftree, factory, pool);
      });
      const std::string p =
          "exhaustive.threads" + std::to_string(threads) + ".";
      report.verdict(p + "identical_to_serial",
                     sharded.nonblocking == serial.nonblocking &&
                         sharded.permutations_checked ==
                             serial.permutations_checked);
      report.metric(p + "seconds", secs, "s");
      report.metric(p + "perms_per_sec",
                    static_cast<double>(sharded.permutations_checked) / secs,
                    "perms/s");
      report.metric(p + "speedup_vs_serial", serial_secs / secs, "ratio");
    }
  }

  // --- Lemma 2 searches at the lifted caps. ----------------------------
  {
    struct Case {
      std::uint32_t n, r;
      bool bruteforce;
    };
    const std::vector<Case> cases =
        args.quick ? std::vector<Case>{{2, 8, false}, {2, 3, true}}
                   : std::vector<Case>{{2, 9, false},
                                       {2, 10, false},
                                       {3, 10, false},
                                       {2, 3, true},
                                       {3, 2, true}};
    for (const auto c : cases) {
      const nbclos::bench::Timer timer;
      const std::uint64_t value = c.bruteforce
                                      ? nbclos::root_capacity_bruteforce(c.n,
                                                                         c.r)
                                      : nbclos::root_capacity_exact(c.n, c.r);
      const double secs = timer.seconds();
      const std::string p = std::string("lemma2.") +
                            (c.bruteforce ? "bruteforce" : "exact") + ".n" +
                            std::to_string(c.n) + "r" + std::to_string(c.r) +
                            ".";
      report.metric(p + "value", value, "pairs");
      report.metric(p + "bound", nbclos::root_capacity_bound(c.n, c.r),
                    "pairs");
      report.metric(p + "seconds", secs, "s");
    }
  }
  return report.write(std::cout);
}
