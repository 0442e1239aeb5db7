/// \file shard_exchange.hpp
/// \brief The shared shard-exchange layer: deterministic vertex
///        partitioning (ShardPlan), SPSC epoch mailboxes (MailboxGrid),
///        the barrier + failure latch (ShardSync), and libnuma-free NUMA
///        placement helpers.
///
/// Both sharded engines — `sim::ShardedSim` (packet granularity) and
/// `flow::ShardedFlowSim` (flit granularity, credits) — run the same
/// epoch discipline: per cycle, each shard executes phases separated by
/// two `std::barrier` epochs, and cross-shard messages travel in
/// single-producer single-consumer mailboxes indexed [src * S + dst].
/// Box (src, dst) is written only by shard `src` and drained (read +
/// cleared) only by shard `dst`, in disjoint epoch windows:
///
///   * a box written in phase A of cycle n is drained in phase B of
///     cycle n, which happens-before the writer's next write in
///     A(n + 1) via barrier 2 of cycle n;
///   * a box written in B(n) is drained in C(n), which happens-before
///     the next write in B(n + 1) via barrier 1 of cycle n + 1.
///
/// Two barriers therefore suffice for box reuse regardless of how many
/// mailbox *classes* an engine exchanges: ShardedSim uses two (admission
/// proposals downstream, acks upstream); ShardedFlowSim uses three
/// (transmit proposals downstream, transmit grants upstream, and credit
/// returns upstream — credit-return messages flow opposite to flits,
/// feeding the upstream shard's CreditLedger).
///
/// NUMA awareness is opt-in and degrades gracefully: `NumaTopology`
/// parses /sys/devices/system/node (no libnuma dependency — the build
/// containers don't ship it), `pin_current_thread` wraps
/// `sched_setaffinity`, and engines allocate their per-shard arenas
/// inside the worker threads (first touch), so with pinning enabled each
/// arena's pages land on the worker's node.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <vector>

#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"
#include "nbclos/util/sweep_order.hpp"

namespace nbclos::sim {

/// Deterministic contiguous vertex partition, balanced by out-channel
/// counts (a proxy for queue + in-flight state, which is what each shard
/// arena actually holds).  Shard s owns vertices
/// [vertex_begin[s], vertex_begin[s+1]) and every channel whose source
/// lies in that range.  Library builders number terminals [0, T) first,
/// so each shard also owns a contiguous terminal range and injection is
/// always shard-local.
struct ShardPlan {
  static constexpr std::uint32_t kMaxShards = 64;

  std::uint32_t shard_count = 1;
  std::vector<std::uint32_t> vertex_begin;  ///< shard_count + 1 boundaries
  std::vector<std::uint8_t> channel_owner;  ///< per channel: owning shard
  /// Per channel: index into the owner's local per-channel arrays (local
  /// ids ascend with global channel id within each shard, so per-shard
  /// sorted sweeps visit channels in global order).
  std::vector<std::uint32_t> channel_local;
  std::vector<std::vector<std::uint32_t>> shard_channels;  ///< global ids, asc

  /// Build the plan for `net` (requested shard count is clamped to
  /// [1, min(vertex_count, kMaxShards)]).  Pure function of (net, shards).
  [[nodiscard]] static ShardPlan build(const Network& net,
                                       std::uint32_t shards);

  [[nodiscard]] std::uint32_t shard_of_vertex(std::uint32_t v) const {
    std::uint32_t lo = 0;
    std::uint32_t hi = shard_count;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (vertex_begin[mid] <= v) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

/// SPSC epoch mailboxes for one message class: box(src, dst) is written
/// only by shard src and drained only by shard dst (see file comment for
/// the reuse proof).  One grid per message class an engine exchanges.
template <typename T>
class MailboxGrid {
 public:
  MailboxGrid() = default;
  explicit MailboxGrid(std::uint32_t shards)
      : shards_(shards), boxes_(std::size_t{shards} * shards) {}

  [[nodiscard]] std::vector<T>& box(std::uint32_t src, std::uint32_t dst) {
    NBCLOS_DEBUG_CHECK(src < shards_ && dst < shards_,
                       "mailbox shard index out of range");
    return boxes_[std::size_t{src} * shards_ + dst];
  }

  /// Drain every box addressed to `dst` in ascending src order, calling
  /// `fn(src, box)` for each non-empty box and clearing it afterwards.
  /// Only shard `dst` may call this (SPSC contract).
  template <typename Fn>
  void drain_to(std::uint32_t dst, Fn&& fn) {
    for (std::uint32_t src = 0; src < shards_; ++src) {
      auto& b = boxes_[std::size_t{src} * shards_ + dst];
      if (b.empty()) continue;
      fn(src, b);
      b.clear();
    }
  }

  /// Drain every box addressed to `dst`, plus `local` (the messages
  /// shard `dst` sent itself), into `out` as one sequence ascending under
  /// `less`, raising `peak` to the largest box.  Each producer writes its
  /// box in ascending order, so a K-way merge of the runs replaces a
  /// sort.  Only shard `dst` may call this (SPSC contract).
  template <typename Less>
  void drain_merged_to(std::uint32_t dst, std::vector<T>& local,
                       std::vector<T>& out, std::uint64_t& peak, Less less) {
    std::array<std::span<const T>, ShardPlan::kMaxShards + 1> runs;
    runs[0] = local;
    for (std::uint32_t src = 0; src < shards_; ++src) {
      runs[src + 1] = boxes_[std::size_t{src} * shards_ + dst];
      peak = std::max<std::uint64_t>(peak, runs[src + 1].size());
    }
    merge_runs(std::span(runs.data(), shards_ + 1), out, less);
    local.clear();
    for (std::uint32_t src = 0; src < shards_; ++src) {
      boxes_[std::size_t{src} * shards_ + dst].clear();
    }
  }

  [[nodiscard]] std::uint32_t shard_count() const noexcept { return shards_; }

 private:
  std::uint32_t shards_ = 0;
  std::vector<std::vector<T>> boxes_;
};

/// Barrier + failure latch shared by all shard workers of one run.  A
/// worker that throws records the exception, raises `failed`, and drops
/// from the barrier so the remaining shards never deadlock; they drain
/// out at their next cycle boundary and the calling thread rethrows
/// after joining.
struct ShardSync {
  std::barrier<> barrier;
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::exception_ptr eptr;

  explicit ShardSync(std::ptrdiff_t n) : barrier(n) {}

  /// Record the in-flight exception (first wins), raise the latch, and
  /// drop this worker from the barrier.  Call from a worker's catch-all.
  void record_failure() {
    {
      const std::scoped_lock lock(mutex);
      if (!eptr) eptr = std::current_exception();
    }
    failed.store(true, std::memory_order_relaxed);
    barrier.arrive_and_drop();
  }

  /// True when some worker failed; surviving workers should
  /// `barrier.arrive_and_drop()` and return.
  [[nodiscard]] bool poisoned() const noexcept {
    return failed.load(std::memory_order_relaxed);
  }

  /// Rethrow the recorded exception, if any.  Call after joining.
  void rethrow_if_failed() {
    if (eptr) std::rethrow_exception(eptr);
  }
};

/// CPU -> NUMA node map parsed from /sys/devices/system/node (one node
/// covering every CPU when the hierarchy is absent, e.g. non-Linux or
/// single-socket containers).  No libnuma dependency.
struct NumaTopology {
  std::uint32_t cpu_count = 1;
  std::uint32_t node_count = 1;
  std::vector<std::uint32_t> node_of_cpu;  ///< indexed by cpu id
  /// CPU ids grouped node-major (node 0's cpus ascending, then node
  /// 1's, ...) — the deterministic pinning order for shard workers.
  std::vector<std::uint32_t> pin_order;

  [[nodiscard]] static NumaTopology detect();
};

/// Pin the calling thread to one CPU via sched_setaffinity.  Returns
/// false (and leaves affinity unchanged) when unsupported or denied.
bool pin_current_thread(std::uint32_t cpu);

/// NUMA node the calling thread is currently executing on (0 when
/// undeterminable) — recorded as the per-shard arena-residency gauge:
/// with pinning + first-touch allocation, the node a worker runs on is
/// the node its arena pages live on.
[[nodiscard]] std::uint32_t current_numa_node(const NumaTopology& topo);

}  // namespace nbclos::sim
