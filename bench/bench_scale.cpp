/// \file bench_scale.cpp
/// \brief Large-radix scaling: route-cache build rate, batched
///        verification throughput, and memory footprint across radix
///        8 / 16 / 32 / 48 fabrics.
///
/// One nbclos-bench-v1 document on stdout (names in EXPERIMENTS.md).
/// For each radix the harness measures, on the nonblocking
/// ftree(n + n^2, r) instance:
///   * route_cache — RouteCache::materialize wall time, routes/sec, and
///     the flat-arena byte footprint;
///   * verify_random — batched verify_random_parallel (BatchLoadKernel)
///     permutations/sec, with the nonblocking verdict;
///   * load_probe — batched estimate_blocking_parallel under d-mod-k
///     (the blocking baseline), permutations/sec;
///   * cache_hit_rate — obs route_cache.lookups /
///     (lookups + routes_materialized) over the case's work, i.e. the
///     fraction of path requests served from the cache instead of a
///     route() call;
///   * peak_rss_kb — getrusage high-water mark after the case ran.
/// Results are seeded and bit-reproducible at any thread count (the
/// drivers chunk deterministically); timings warm up once and report the
/// best of five repetitions.  Pass --quick for CI smoke budgets,
/// --threads <T> to cap the worker pool.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nbclos/analysis/batch.hpp"
#include "nbclos/analysis/parallel.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace {

// Best-of-5: the scale cases are short (milliseconds), so extra
// repetitions are cheap and squeeze out scheduler noise that best-of-3
// lets through on busy machines.
constexpr int kTimingReps = 5;

}  // namespace

int main(int argc, char** argv) {
  const auto args = nbclos::bench::parse_args(argc, argv);
  const std::size_t max_threads = args.threads.value_or(8);

  nbclos::bench::Report report("scale");
  report.manifest().seed = 42;
  report.manifest().threads = static_cast<std::uint32_t>(max_threads);
  nbclos::ThreadPool pool(max_threads);

  // Quick budgets stay large enough that the smallest case's timed
  // sections run for milliseconds — sub-millisecond sections make the
  // regression comparison scheduler-noise-bound.
  const std::uint64_t verify_trials = args.quick ? 4000 : 20000;
  const std::uint64_t probe_trials = args.quick ? 4000 : 20000;
  report.param("quick", args.quick);
  report.param("verify_trials", verify_trials);
  report.param("probe_trials", probe_trials);

  struct Case {
    std::uint32_t n, r;
  };
  const std::vector<Case> cases = {{4, 8}, {4, 16}, {8, 32}, {8, 48}};

  for (const auto c : cases) {
    const nbclos::FoldedClos ftree(nbclos::FtreeParams{c.n, c.n * c.n, c.r});
    const nbclos::YuanNonblockingRouting yuan(ftree);
    const nbclos::DModKRouting dmodk(ftree);

    auto& metrics = nbclos::obs::metrics();
    const auto lookups_before = metrics.counter("route_cache.lookups").value();
    const auto routed_before =
        metrics.counter("route_cache.routes_materialized").value();

    const std::string p = "radix" + std::to_string(c.r) + ".";
    report.param(p + "topology", "ftree(" + std::to_string(c.n) + "+" +
                                     std::to_string(c.n * c.n) + ", " +
                                     std::to_string(c.r) + ")");
    report.param(p + "leafs", ftree.leaf_count());
    report.param(p + "links", ftree.link_count());

    // --- route-cache build rate and footprint -------------------------
    {
      const double secs = nbclos::bench::best_of(kTimingReps, [&] {
        const auto cache = nbclos::routing::RouteCache::materialize(yuan);
        if (cache.any_unroutable()) std::abort();  // impossible: healthy
      });
      const auto cache = nbclos::routing::RouteCache::materialize(yuan);
      const auto routes =
          cache.pair_count() - ftree.leaf_count();  // diagonal is empty
      const nbclos::analysis::BatchLoadKernel kernel(cache);
      report.metric(p + "route_cache.build_seconds", secs, "s");
      report.metric(p + "route_cache.routes_materialized", routes, "routes");
      report.metric(p + "route_cache.routes_per_sec",
                    static_cast<double>(routes) / secs, "routes/s", true);
      report.metric(p + "route_cache.cache_bytes", cache.bytes(), "bytes");
      report.metric(p + "route_cache.kernel_arena_bytes", kernel.bytes(),
                    "bytes");
    }

    // --- batched randomized verification (nonblocking instance) -------
    {
      nbclos::VerifyResult result;
      const double secs = nbclos::bench::best_of(kTimingReps, [&] {
        result = nbclos::verify_random_parallel(ftree, yuan, verify_trials,
                                                42, pool);
      });
      report.verdict(p + "verify_random.nonblocking", result.nonblocking);
      report.metric(p + "verify_random.seconds", secs, "s");
      report.metric(p + "verify_random.perms_per_sec",
                    static_cast<double>(result.permutations_checked) / secs,
                    "perms/s", true);
    }

    // --- batched load-sweep probe (blocking baseline) ------------------
    {
      nbclos::BlockingEstimate estimate;
      const double secs = nbclos::bench::best_of(kTimingReps, [&] {
        estimate = nbclos::estimate_blocking_parallel(ftree, dmodk,
                                                      probe_trials, 42, pool);
      });
      report.metric(p + "load_probe.blocking_probability",
                    estimate.blocking_probability, "ratio");
      report.metric(p + "load_probe.mean_colliding_pairs",
                    estimate.mean_colliding_pairs, "pairs");
      report.metric(p + "load_probe.seconds", secs, "s");
      report.metric(p + "load_probe.perms_per_sec",
                    static_cast<double>(estimate.trials) / secs, "perms/s",
                    true);
    }

    // --- cache effectiveness over this case's work ---------------------
    const auto lookups =
        metrics.counter("route_cache.lookups").value() - lookups_before;
    const auto routed =
        metrics.counter("route_cache.routes_materialized").value() -
        routed_before;
    report.metric(p + "cache_lookups", lookups, "lookups");
    report.metric(p + "cache_hit_rate",
                  lookups + routed > 0
                      ? static_cast<double>(lookups) /
                            static_cast<double>(lookups + routed)
                      : 0.0,
                  "ratio");
    report.metric(p + "peak_rss_kb", nbclos::obs::peak_rss_kb(), "KiB");
  }
  return report.write(std::cout);
}
