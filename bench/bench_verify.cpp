/// \file bench_verify.cpp
/// \brief Verification-engine throughput: permutations/sec and hill-climb
///        steps/sec of the adversarial and exhaustive verifiers.
///
/// Three sections, one JSON document on stdout (schema in EXPERIMENTS.md):
///   * adversarial — a fixed worst-case budget on ftree(4+16, 8) under
///     d-mod-k: the serial full re-evaluation reference
///     (worst_case_search on as_pattern_router) vs. the cache-backed
///     delta climb (worst_case_search_parallel on a 1-thread pool).  Same
///     seed, so both walk the identical trajectories and must agree on
///     the collisions and evaluations — asserted;
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
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "nbclos/analysis/parallel.hpp"
#include "nbclos/analysis/root_capacity.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/run_info.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/json.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One untimed warm-up call, then the minimum wall time over `reps`
/// timed calls.  The searches are deterministic, so every call computes
/// the same result and only the timing varies.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double secs = seconds_since(t0);
    if (secs < best) best = secs;
  }
  return best;
}

constexpr int kTimingReps = 3;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t max_threads = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--threads" && i + 1 < argc) {
      max_threads = std::stoull(argv[i + 1]);
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  auto manifest = nbclos::obs::RunInfo::current();
  manifest.seed = 7;
  manifest.threads = static_cast<std::uint32_t>(max_threads);

  nbclos::JsonWriter json(std::cout);
  json.begin_object();
  json.member("experiment", "verify_engine");
  json.member("hardware_concurrency",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  // --- Adversarial: full re-evaluation vs delta evaluation. ------------
  nbclos::AdversarialOptions adv_options;
  adv_options.restarts = quick ? 2 : 8;
  adv_options.steps_per_restart = quick ? 200 : 2000;
  {
    constexpr std::uint32_t kN = 4;
    constexpr std::uint32_t kR = 8;
    const nbclos::FoldedClos ftree(nbclos::FtreeParams{kN, kN * kN, kR});
    const nbclos::DModKRouting dmodk(ftree);

    nbclos::WorstCaseResult full;
    const double full_secs = best_seconds(kTimingReps, [&] {
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
        best_seconds(kTimingReps, [&] { delta = search(); });

    if (full.collisions != delta.collisions ||
        full.evaluations != delta.evaluations) {
      std::cerr << "delta/full mismatch: " << delta.collisions << " vs "
                << full.collisions << "\n";
      return 1;
    }
    const double full_rate = static_cast<double>(full.evaluations) / full_secs;
    const double delta_rate =
        static_cast<double>(delta.evaluations) / delta_secs;
    const std::string topology = "ftree(" + std::to_string(kN) + "+" +
                                 std::to_string(kN * kN) + ", " +
                                 std::to_string(kR) + ")";
    json.key("adversarial").begin_object();
    json.member("topology", topology);
    json.member("routing", "d-mod-k");
    json.member("restarts", adv_options.restarts);
    json.member("steps_per_restart", adv_options.steps_per_restart);
    json.member("worst_collisions", full.collisions);
    json.member("evaluations", full.evaluations);
    json.key("full").begin_object();
    json.member("seconds", full_secs);
    json.member("perms_per_sec", full_rate);
    json.end_object();
    json.key("delta").begin_object();
    json.member("seconds", delta_secs);
    json.member("perms_per_sec", delta_rate);
    json.end_object();
    json.member("speedup", delta_rate / full_rate);
    json.end_object();

    // --- instrumentation overhead: metrics live vs paused --------------
    nbclos::obs::set_enabled(true);
    nbclos::WorstCaseResult on_result;
    const double on_secs =
        best_seconds(kTimingReps, [&] { on_result = search(); });
    nbclos::obs::set_enabled(false);
    nbclos::WorstCaseResult off_result;
    const double off_secs =
        best_seconds(kTimingReps, [&] { off_result = search(); });
    nbclos::obs::set_enabled(true);
    if (on_result.collisions != off_result.collisions ||
        on_result.evaluations != off_result.evaluations ||
        on_result.permutation != off_result.permutation) {
      std::cerr << "obs on/off changed the search result\n";
      return 1;
    }
    json.key("obs_overhead").begin_object();
    json.member("compiled_in", nbclos::obs::kEnabled);
    json.member("enabled_seconds", on_secs);
    json.member("paused_seconds", off_secs);
    json.member("overhead_pct", (on_secs / off_secs - 1.0) * 100.0);
    json.member("results_identical", true);
    json.end_object();
  }

  // --- Exhaustive: serial vs sharded thread scaling. -------------------
  {
    // 9! = 362880 permutations in the full run — big enough to amortize
    // shard startup; --quick drops to 7! = 5040.
    const std::uint32_t n = quick ? 1 : 3;
    const std::uint32_t r = quick ? 7 : 3;
    const nbclos::FoldedClos ftree(nbclos::FtreeParams{n, n * n, r});
    const nbclos::YuanNonblockingRouting yuan(ftree);
    const auto factory = [&yuan](std::uint64_t) {
      return nbclos::as_pattern_router(yuan);
    };

    nbclos::VerifyResult serial;
    const double serial_secs = best_seconds(kTimingReps, [&] {
      serial = nbclos::verify_exhaustive(ftree, nbclos::as_pattern_router(yuan));
    });
    if (!serial.nonblocking) {
      std::cerr << "expected a nonblocking instance\n";
      return 1;
    }
    const double serial_rate =
        static_cast<double>(serial.permutations_checked) / serial_secs;
    const std::string topology = "ftree(" + std::to_string(n) + "+" +
                                 std::to_string(n * n) + ", " +
                                 std::to_string(r) + ")";
    json.key("exhaustive").begin_object();
    json.member("topology", topology);
    json.member("routing", yuan.name());
    json.member("permutations", serial.permutations_checked);
    json.key("serial").begin_object();
    json.member("seconds", serial_secs);
    json.member("perms_per_sec", serial_rate);
    json.end_object();
    json.key("sharded").begin_array();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      if (threads > max_threads) continue;
      nbclos::ThreadPool pool(threads);
      nbclos::VerifyResult sharded;
      const double secs = best_seconds(kTimingReps, [&] {
        sharded = nbclos::verify_exhaustive_parallel(ftree, factory, pool);
      });
      if (sharded.nonblocking != serial.nonblocking ||
          sharded.permutations_checked != serial.permutations_checked) {
        std::cerr << "sharded exhaustive diverged from serial\n";
        return 1;
      }
      json.begin_object();
      json.member("threads", static_cast<std::uint64_t>(threads));
      json.member("seconds", secs);
      json.member("perms_per_sec",
                  static_cast<double>(sharded.permutations_checked) / secs);
      json.member("speedup_vs_serial", serial_secs / secs);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  // --- Lemma 2 searches at the lifted caps. ----------------------------
  {
    struct Case {
      std::uint32_t n, r;
      bool bruteforce;
    };
    const std::vector<Case> cases =
        quick ? std::vector<Case>{{2, 8, false}, {2, 3, true}}
              : std::vector<Case>{{2, 9, false},
                                  {2, 10, false},
                                  {3, 10, false},
                                  {2, 3, true},
                                  {3, 2, true}};
    json.key("lemma2").begin_array();
    for (const auto c : cases) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t value = c.bruteforce
                                      ? nbclos::root_capacity_bruteforce(c.n,
                                                                         c.r)
                                      : nbclos::root_capacity_exact(c.n, c.r);
      const double secs = seconds_since(t0);
      json.begin_object();
      json.member("n", c.n);
      json.member("r", c.r);
      json.member("search", c.bruteforce ? "bruteforce" : "exact");
      json.member("value", value);
      json.member("bound", nbclos::root_capacity_bound(c.n, c.r));
      json.member("seconds", secs);
      json.end_object();
    }
    json.end_array();
  }

  manifest.wall_seconds = seconds_since(wall_start);
  json.key("manifest");
  manifest.write_json(json);
  json.end_object();
  std::cout << "\n";
  return 0;
}
