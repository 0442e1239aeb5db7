/// \file parallel.hpp
/// \brief Thread-parallel experiment drivers — the fast path of every
///        verifier question.
///
/// Monte-Carlo verification is embarrassingly parallel, but two things
/// must be engineered for: (1) stateful routers (multipath, adaptive)
/// cannot be shared across threads, so workers build their own via a
/// factory; (2) results must not depend on the pool's thread count, so
/// trials are split into a *fixed* number of chunks with seeds derived
/// from the master seed, and partials are merged in chunk order.  The
/// factory and batched overloads of each random sampler run the same
/// chunked driver; only the per-trial scorer differs (a LinkLoadMap fed
/// by the worker's router, or a BatchLoadKernel over one shared
/// RouteCache).
///
/// The adversarial drivers run the cache-backed delta hill-climb
/// (analysis/delta.hpp) with the restart-seed rule and restart merges of
/// the serial full-re-evaluation drivers in analysis/verifier.hpp, so
/// `X_parallel(routing, seed, pool)` equals `X(as_pattern_router(routing),
/// seed)` field for field at any thread count — a 1-thread pool is the
/// serial fast path.
#pragma once

#include <cstdint>
#include <functional>

#include "nbclos/analysis/blocking.hpp"
#include "nbclos/analysis/verifier.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace nbclos {

/// Build a worker-private PatternRouter from a chunk seed.
using PatternRouterFactory =
    std::function<PatternRouter(std::uint64_t chunk_seed)>;

/// Parallel estimate_blocking: `trials` random permutations split over
/// `chunks` deterministic chunks evaluated on `pool`.  The estimate is
/// identical for any pool size (chunk seeds and merge order are fixed).
[[nodiscard]] BlockingEstimate estimate_blocking_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);

/// Parallel randomized nonblocking verification: returns nonblocking ==
/// true iff no chunk found a counterexample; otherwise one
/// counterexample (from the lowest-index failing chunk, so the result is
/// deterministic).
[[nodiscard]] VerifyResult verify_random_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);

/// Batched overloads for single-path deterministic routings: one
/// RouteCache is materialized per call and shared read-only by every
/// worker; each chunk scores its trials through a private BatchLoadKernel
/// (analysis/batch.hpp), up to BatchLoadKernel::kMaxBatch permutations
/// per arena pass.  Same chunk seeds, same per-trial statistics, same
/// merge order — the results are bit-identical to the factory overloads
/// above wrapping `routing`, at a fraction of the per-trial cost.
[[nodiscard]] BlockingEstimate estimate_blocking_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);
[[nodiscard]] VerifyResult verify_random_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    std::uint64_t trials, std::uint64_t seed, ThreadPool& pool,
    std::uint32_t chunks = 16);

/// Parallel exhaustive verification, sharded over contiguous lexicographic
/// rank ranges of the full permutation space (factorial-number-system
/// unrank seeds each shard, std::next_permutation walks it).  An atomic
/// lowest-counterexample-rank flag lets shards abandon ranks that can no
/// longer matter, and the merged result — the lowest-rank counterexample,
/// with permutations_checked = its rank + 1 (or leafs! when nonblocking)
/// — is bit-identical to serial verify_exhaustive at any thread count.
/// `shards` == 0 picks 16 per pool thread.  \pre leaf_count <= 11.
[[nodiscard]] VerifyResult verify_exhaustive_parallel(
    const FoldedClos& ftree, const PatternRouterFactory& make_router,
    ThreadPool& pool, std::uint32_t shards = 0);

/// Parallel delta-evaluated adversarial search: every restart runs with
/// its own adversarial_restart_seed and private SwapDeltaState over one
/// RouteCache materialized from `routing`, and the merged result (lowest
/// failing restart index wins; permutations_checked sums restarts up to
/// and including it) is thread-count independent and equal to
/// verify_adversarial(ftree, as_pattern_router(routing), options, seed).
[[nodiscard]] VerifyResult verify_adversarial_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    const AdversarialOptions& options, std::uint64_t seed, ThreadPool& pool);

/// Parallel worst-case maximization over per-restart seeds; the merged
/// result takes the max-collision restart (lowest index on ties) and
/// equals worst_case_search(ftree, as_pattern_router(routing), options,
/// seed).
[[nodiscard]] WorstCaseResult worst_case_search_parallel(
    const FoldedClos& ftree, const SinglePathRouting& routing,
    const AdversarialOptions& options, std::uint64_t seed, ThreadPool& pool);

}  // namespace nbclos
