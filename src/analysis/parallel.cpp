#include "nbclos/analysis/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <span>

#include "drivers.hpp"
#include "nbclos/analysis/batch.hpp"
#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/obs/metrics.hpp"
#include "nbclos/obs/trace.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos {

namespace {

/// Per-chunk trial counts: distribute `trials` over `chunks` as evenly
/// as possible (first `trials % chunks` chunks get one extra).
std::vector<std::uint64_t> chunk_sizes(std::uint64_t trials,
                                       std::uint32_t chunks) {
  NBCLOS_REQUIRE(chunks >= 1, "need at least one chunk");
  std::vector<std::uint64_t> sizes(chunks, trials / chunks);
  for (std::uint32_t c = 0; c < trials % chunks; ++c) ++sizes[c];
  return sizes;
}

std::uint64_t chunk_seed(std::uint64_t master, std::uint32_t chunk) {
  SplitMix64 sm(master ^ (0xA5A5A5A5ULL + chunk));
  return sm.next();
}

/// Monotonic nanoseconds for coarse (per-shard) obs timing.
std::uint64_t obs_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Make lane `lane` of a lane-major target batch a random full
/// permutation, consuming `rng` exactly like one random_permutation call
/// (iota + shuffle) — the batched drivers stay on the same rng streams
/// as their one-pattern-at-a-time counterparts.
void shuffle_lane(std::vector<std::uint32_t>& targets, std::uint32_t lane,
                  std::uint32_t leafs, Xoshiro256& rng) {
  const auto seg = targets.begin() + std::ptrdiff_t{lane} * leafs;
  std::iota(seg, seg + leafs, 0U);
  shuffle(seg, seg + leafs, rng);
}

/// The lane's target vector as a Permutation (counterexample reporting).
Permutation lane_pattern(const std::vector<std::uint32_t>& targets,
                         std::uint32_t lane, std::uint32_t leafs) {
  const auto begin = targets.begin() + std::ptrdiff_t{lane} * leafs;
  return permutation_from_targets(
      std::vector<std::uint32_t>(begin, begin + leafs));
}

/// Lower `target` to `value` if smaller (first-failure / lowest-rank
/// flags: every writer races toward the minimum).
template <typename T>
void atomic_min(std::atomic<T>& target, T value) {
  auto current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(current, value)) {
  }
}

/// Per-trial scorer of the batched overloads: up to kMaxBatch patterns
/// per draw, scored in one BatchLoadKernel pass over a shared RouteCache
/// (the RouterScorer counterpart — see drivers.hpp).
class BatchScorer {
 public:
  explicit BatchScorer(const routing::RouteCache& cache) : kernel_(cache) {}

  std::uint32_t draw(Xoshiro256& rng, std::uint64_t remaining) {
    const auto lanes = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        analysis::BatchLoadKernel::kMaxBatch, remaining));
    targets_.resize(std::size_t{lanes} * kernel_.leaf_count());
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      shuffle_lane(targets_, lane, kernel_.leaf_count(), rng);
    }
    stats_ = kernel_.score_targets(targets_, lanes);
    return lanes;
  }
  [[nodiscard]] std::uint64_t collisions(std::uint32_t lane) const {
    return stats_[lane].colliding_pairs;
  }
  [[nodiscard]] std::uint32_t max_load(std::uint32_t lane) const {
    return stats_[lane].max_load;
  }
  [[nodiscard]] Permutation pattern(std::uint32_t lane) const {
    return lane_pattern(targets_, lane, kernel_.leaf_count());
  }

 private:
  analysis::BatchLoadKernel kernel_;
  std::vector<std::uint32_t> targets_;
  std::span<const analysis::BatchLoadKernel::LaneStats> stats_;
};

/// The chunked sampler behind every parallel random driver: `trials`
/// split over `chunks` fixed chunks; chunk c draws from
/// Xoshiro256(chunk_seed(seed, c)) through a private scorer built by
/// `make_scorer(chunk_seed(seed, c) ^ 0xC0FFEE)`, and `sample(scorer,
/// rng, n)` returns its partial.  Partials come back in chunk order — the
/// fixed merge order — so results never depend on the pool size.
template <typename Partial, typename MakeScorer, typename Sample>
std::vector<Partial> sample_chunks(std::uint64_t trials, std::uint64_t seed,
                                   ThreadPool& pool, std::uint32_t chunks,
                                   const MakeScorer& make_scorer,
                                   const Sample& sample) {
  const auto sizes = chunk_sizes(trials, chunks);
  std::vector<Partial> partials(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    if (sizes[c] == 0) continue;
    pool.submit([&, c] {
      Xoshiro256 rng(chunk_seed(seed, c));
      auto scorer = make_scorer(chunk_seed(seed, c) ^ 0xC0FFEE);
      partials[c] = sample(scorer, rng, sizes[c]);
    });
  }
  pool.wait_idle();
  return partials;
}

/// Both estimate_blocking_parallel overloads: chunk sums merged in
/// chunk order, then finalized once.
template <typename MakeScorer>
BlockingEstimate estimate_chunked(std::uint64_t trials, std::uint64_t seed,
                                  ThreadPool& pool, std::uint32_t chunks,
                                  const MakeScorer& make_scorer) {
  NBCLOS_REQUIRE(trials > 0, "need at least one trial");
  obs::ScopedSpan span("verify.blocking_estimate", "verify");
  span.arg("trials", static_cast<double>(trials));
  const auto partials = sample_chunks<detail::BlockingSums>(
      trials, seed, pool, chunks, make_scorer,
      [](auto& scorer, Xoshiro256& rng, std::uint64_t n) {
        return detail::sample_blocking(scorer, rng, n);
      });
  detail::BlockingSums total;
  for (const auto& partial : partials) total += partial;
  return total.estimate(trials);
}

/// Both verify_random_parallel overloads: the lowest failing chunk's
/// counterexample wins; every chunk's checked count is summed.
template <typename MakeScorer>
VerifyResult verify_random_chunked(std::uint64_t trials, std::uint64_t seed,
                                   ThreadPool& pool, std::uint32_t chunks,
                                   const MakeScorer& make_scorer) {
  obs::ScopedSpan span("verify.random", "verify");
  span.arg("trials", static_cast<double>(trials));
  auto partials = sample_chunks<VerifyResult>(
      trials, seed, pool, chunks, make_scorer,
      [](auto& scorer, Xoshiro256& rng, std::uint64_t n) {
        return detail::sample_verify(scorer, rng, n);
      });
  VerifyResult result;
  result.nonblocking = true;
  for (auto& partial : partials) {
    result.permutations_checked += partial.permutations_checked;
    if (result.nonblocking && partial.counterexample) {
      result.nonblocking = false;
      result.counterexample = std::move(partial.counterexample);
      result.counterexample_collisions = partial.counterexample_collisions;
    }
  }
  obs::metrics().counter("verify.perms_evaluated")
      .add(result.permutations_checked);
  return result;
}

}  // namespace

BlockingEstimate estimate_blocking_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks) {
  return estimate_chunked(trials, seed, pool, chunks,
                          [&](std::uint64_t router_seed) {
                            return detail::RouterScorer(
                                ftree, make_router(router_seed));
                          });
}

VerifyResult verify_random_parallel(const FoldedClos& ftree,
                                    const PatternRouterFactory& make_router,
                                    std::uint64_t trials, std::uint64_t seed,
                                    ThreadPool& pool, std::uint32_t chunks) {
  return verify_random_chunked(trials, seed, pool, chunks,
                               [&](std::uint64_t router_seed) {
                                 return detail::RouterScorer(
                                     ftree, make_router(router_seed));
                               });
}

BlockingEstimate estimate_blocking_parallel(const FoldedClos& /*ftree*/,
                                            const SinglePathRouting& routing,
                                            std::uint64_t trials,
                                            std::uint64_t seed,
                                            ThreadPool& pool,
                                            std::uint32_t chunks) {
  const auto cache = routing::RouteCache::materialize(routing);
  return estimate_chunked(trials, seed, pool, chunks,
                          [&](std::uint64_t) { return BatchScorer(cache); });
}

VerifyResult verify_random_parallel(const FoldedClos& /*ftree*/,
                                    const SinglePathRouting& routing,
                                    std::uint64_t trials, std::uint64_t seed,
                                    ThreadPool& pool, std::uint32_t chunks) {
  const auto cache = routing::RouteCache::materialize(routing);
  return verify_random_chunked(
      trials, seed, pool, chunks,
      [&](std::uint64_t) { return BatchScorer(cache); });
}

VerifyResult verify_exhaustive_parallel(const FoldedClos& ftree,
                                        const PatternRouterFactory& make_router,
                                        ThreadPool& pool,
                                        std::uint32_t shards) {
  const std::uint32_t leafs = ftree.leaf_count();
  NBCLOS_REQUIRE(leafs <= 11, "parallel exhaustive capped at 11!");
  const std::uint64_t total = factorial(leafs);
  if (shards == 0) {
    shards = static_cast<std::uint32_t>(16 * pool.thread_count());
  }
  if (shards > total) shards = static_cast<std::uint32_t>(total);

  struct ShardHit {
    std::uint64_t rank = 0;
    Permutation pattern;
    std::uint64_t collisions = 0;
  };
  std::vector<std::optional<ShardHit>> hits(shards);
  // Lowest counterexample rank found so far; ranks above it are dead.
  std::atomic<std::uint64_t> best_rank{UINT64_MAX};
  // Obs: when the winning counterexample is published (obs_now_ns), so
  // shards that observe the CAS-min and bail can report how quickly the
  // early-exit signal propagated.  Never read by the verification logic.
  std::atomic<std::uint64_t> publish_ns{0};

  obs::ScopedSpan span("verify.exhaustive", "verify");
  span.arg("shards", static_cast<double>(shards));
  span.arg("permutations", static_cast<double>(total));

  const std::uint64_t base = total / shards;
  const std::uint64_t extra = total % shards;
  std::uint64_t begin = 0;
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    const std::uint64_t end = begin + base + (shard < extra ? 1 : 0);
    const std::uint64_t shard_begin = begin;
    begin = end;
    pool.submit([&, shard, shard_begin, end] {
      const bool observe = obs::kEnabled && obs::enabled();
      const auto record_early_exit = [&] {
        if (!observe) return;
        const auto published = publish_ns.load(std::memory_order_relaxed);
        if (published == 0) return;
        obs::metrics()
            .histogram("verify.early_exit_us", 10'000'000)
            .record((obs_now_ns() - published) / 1000);
      };
      if (shard_begin > best_rank.load(std::memory_order_relaxed)) {
        record_early_exit();
        return;
      }
      const std::uint64_t shard_t0 = observe ? obs_now_ns() : 0;
      std::uint64_t evaluated = 0;
      bool early_exit = false;
      const auto router = make_router(chunk_seed(0, shard));
      LinkLoadMap map(ftree);
      std::uint64_t rank = shard_begin;
      for_each_permutation_in_range(
          ftree.leaf_count(), shard_begin, end,
          [&](const Permutation& pattern) {
            if (rank > best_rank.load(std::memory_order_relaxed)) {
              early_exit = true;
              return false;  // a lower-rank counterexample already exists
            }
            ++evaluated;
            const auto paths = router(pattern);
            map.add_paths(paths);
            const auto collisions = map.colliding_pairs();
            for (const auto& path : paths) map.remove_path(path);
            if (collisions > 0) {
              hits[shard] = ShardHit{rank, pattern, collisions};
              atomic_min(best_rank, rank);
              if (observe) {
                // First publication wins; losers raced a lower rank in.
                std::uint64_t expected = 0;
                publish_ns.compare_exchange_strong(expected, obs_now_ns(),
                                                   std::memory_order_relaxed);
              }
              return false;
            }
            ++rank;
            return true;
          });
      if (observe) {
        // Per-shard rank throughput + flushed-once totals (local counts
        // keep the permutation loop free of shared-metric traffic).
        auto& m = obs::metrics();
        m.counter("verify.perms_evaluated").add(evaluated);
        const std::uint64_t elapsed = obs_now_ns() - shard_t0;
        if (elapsed > 0 && evaluated > 0) {
          m.histogram("verify.shard_ranks_per_s", 1'000'000'000)
              .record(evaluated * 1'000'000'000 / elapsed);
        }
        if (early_exit) record_early_exit();
      }
    });
  }
  pool.wait_idle();

  VerifyResult result;
  result.nonblocking = true;
  result.permutations_checked = total;
  // The shard holding the globally lowest counterexample can never be
  // preempted (preemption requires an even lower rank), so the min over
  // shard hits is the same counterexample serial enumeration stops at.
  for (const auto& hit : hits) {
    if (!hit) continue;
    if (result.nonblocking || hit->rank < result.permutations_checked - 1) {
      result.nonblocking = false;
      result.counterexample = hit->pattern;
      result.counterexample_collisions = hit->collisions;
      result.permutations_checked = hit->rank + 1;
    }
  }
  return result;
}

VerifyResult verify_adversarial_parallel(const FoldedClos& ftree,
                                         const SinglePathRouting& routing,
                                         const AdversarialOptions& options,
                                         std::uint64_t seed, ThreadPool& pool) {
  std::vector<RestartResult> outcomes(options.restarts);
  obs::ScopedSpan span("verify.adversarial", "verify");
  span.arg("restarts", static_cast<double>(options.restarts));
  // Materialized once, shared read-only by every worker: restarts replay
  // the same flat link runs instead of re-routing on their own.
  const auto cache = routing::RouteCache::materialize(routing);

  // Batch pre-score of every restart's initial pattern.  run_restart
  // scores the shuffled start first and (stop_on_positive) returns it as
  // the counterexample when it already collides, so such restarts are
  // finished after one evaluation — their outcomes come straight from
  // the kernel's lane statistics and never need a climb.  The generation
  // below consumes a fresh per-restart rng exactly like run_restart's
  // reset does, so patterns (and outcomes) are identical.
  std::vector<char> resolved(options.restarts, 0);
  std::atomic<std::uint32_t> first_failing{UINT32_MAX};
  {
    analysis::BatchLoadKernel kernel(cache);
    const std::uint32_t leafs = ftree.leaf_count();
    std::vector<std::uint32_t> targets;
    for (std::uint32_t base = 0; base < options.restarts;
         base += analysis::BatchLoadKernel::kMaxBatch) {
      const auto lanes =
          std::min(analysis::BatchLoadKernel::kMaxBatch,
                   options.restarts - base);
      targets.resize(std::size_t{lanes} * leafs);
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        Xoshiro256 rng(adversarial_restart_seed(seed, base + lane));
        shuffle_lane(targets, lane, leafs, rng);
      }
      const auto stats = kernel.score_targets(targets, lanes);
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        if (stats[lane].colliding_pairs == 0) continue;
        const auto restart = base + lane;
        outcomes[restart].collisions = stats[lane].colliding_pairs;
        outcomes[restart].pattern = lane_pattern(targets, lane, leafs);
        outcomes[restart].evaluations = 1;
        resolved[restart] = 1;
        atomic_min(first_failing, restart);
      }
      if (base >= first_failing.load(std::memory_order_relaxed)) break;
    }
  }

  // Restarts with an index above the lowest failing one cannot affect the
  // merged result, so they may be skipped opportunistically.
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    if (resolved[restart] != 0) continue;  // settled by the pre-score
    pool.submit([&, restart] {
      if (restart > first_failing.load(std::memory_order_relaxed)) {
        obs::metrics().counter("verify.restarts_skipped").add(1);
        return;
      }
      outcomes[restart] = adversarial_restart(
          ftree, cache, options.steps_per_restart,
          adversarial_restart_seed(seed, restart), /*stop_on_positive=*/true);
      if (outcomes[restart].collisions > 0) {
        atomic_min(first_failing, restart);
      }
    });
  }
  pool.wait_idle();
  return detail::merge_first_failing(std::move(outcomes));
}

WorstCaseResult worst_case_search_parallel(const FoldedClos& ftree,
                                           const SinglePathRouting& routing,
                                           const AdversarialOptions& options,
                                           std::uint64_t seed,
                                           ThreadPool& pool) {
  std::vector<RestartResult> outcomes(options.restarts);
  obs::ScopedSpan span("verify.worst_case", "verify");
  span.arg("restarts", static_cast<double>(options.restarts));
  const auto cache = routing::RouteCache::materialize(routing);
  for (std::uint32_t restart = 0; restart < options.restarts; ++restart) {
    pool.submit([&, restart] {
      outcomes[restart] = adversarial_restart(
          ftree, cache, options.steps_per_restart,
          adversarial_restart_seed(seed, restart), /*stop_on_positive=*/false);
    });
  }
  pool.wait_idle();
  return detail::merge_worst_case(std::move(outcomes));
}

}  // namespace nbclos
