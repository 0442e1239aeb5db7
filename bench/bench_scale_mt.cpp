/// \file bench_scale_mt.cpp
/// \brief Million-terminal sharded-simulation scaling: terminals/sec and
///        bytes/terminal at 1 / 2 / 4 / 8 shards on ftree and k-ary
///        n-tree fabrics.
///
/// One nbclos-bench-v1 document on stdout (experiment "scale_mt"; names
/// in EXPERIMENTS.md).  For each topology case the harness runs the identical
/// workload — shift-permutation traffic, counter-injection RNG — through
/// `ShardedSim` at every shard count and reports:
///   * seconds           — best wall time over the reps after one
///     untimed warm-up (arena build +
///     full warmup/measure run; construction is part of the cost at
///     10^6 terminals and is deliberately inside the clock);
///   * terminals_per_sec — terminal-cycles simulated per second,
///     terminals x total_cycles / seconds;
///   * bytes_per_terminal — per-shard arena footprint over terminals;
///   * cross_shard_flits / accepted_throughput — engine telemetry;
///   * identical_to_single_shard — verdict: the whole SimResult of the
///     k-shard run equals the 1-shard run (bit-exact, doubles included).
///     A `false` here is a correctness regression, and the bench itself
///     exits nonzero so CI fails even without the baseline gate.
/// The `ideal.` case runs the ideal-switch reference (1024-deep switch
/// queues) and budgets its bytes_per_terminal: queue rings must allocate
/// with occupancy, so a return to up-front queue pools fails the bench.
/// The per-case and manifest peak_rss_kb are sampled *after* the arenas
/// ran (the high-water mark is monotone; early sampling under-reports).
///
/// --quick keeps CI to small fabrics; the full run ends on the
/// kary(10, 6) fabric — one million terminals — at low offered load.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"

namespace {

using namespace nbclos;
using namespace nbclos::sim;

/// A topology case: either ftree(n + m, r) or a k-ary h-tree, with the
/// sim budget scaled to its size.
struct Case {
  std::string name;
  std::uint32_t ftree_n = 0, ftree_m = 0, ftree_r = 0;  // ftree when r > 0
  std::uint32_t kary_k = 0, kary_h = 0;                 // k-ary otherwise
  std::uint64_t warmup = 0, measure = 0;
  double rate = 0.0;
  std::uint32_t queue_capacity = 8;
  int reps = 3;
  std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
  double budget_bytes_per_terminal = 0.0;  ///< 0: no budget
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);

  bench::Report report("scale_mt");
  report.manifest().seed = 20260809;
  report.manifest().threads = 8;  // widest shard fan-out benched
  report.manifest().shards = 8;
  report.param("quick", args.quick);

  std::vector<Case> cases;
  cases.push_back({"ftree(4+16,8)", 4, 16, 8, 0, 0, 400, 1600, 0.6, 8, 3});
  cases.push_back({"kary(4,5)", 0, 0, 0, 4, 5, 200, 800, 0.4, 8, 3});
  // Dense 1024-deep switch pools cost ~368,640 B/terminal here.
  cases.push_back({"ideal.ftree(4+16,8)", 4, 16, 8, 0, 0, 400, 1600, 0.6,
                   SimConfig::kEffectivelyInfiniteQueueCapacity, 3, {1, 4},
                   32768.0});
  if (!args.quick) {
    cases.push_back({"kary(16,4)", 0, 0, 0, 16, 4, 100, 400, 0.2, 8, 2});
    // One million terminals: low load, short window, shallow queues —
    // the point is arena scale and epoch overhead, not saturation.
    cases.push_back({"kary(10,6)", 0, 0, 0, 10, 6, 50, 200, 0.1, 4, 1});
  }

  for (const auto& c : cases) {
    const bool is_ftree = c.ftree_r > 0;
    std::unique_ptr<FoldedClos> ftree;
    Network net = [&] {
      if (is_ftree) {
        ftree = std::make_unique<FoldedClos>(
            FtreeParams{c.ftree_n, c.ftree_m, c.ftree_r});
        return build_network(*ftree);
      }
      return build_kary_ntree(c.kary_k, c.kary_h);
    }();
    std::unique_ptr<ShardRouter> router;
    if (is_ftree) {
      router = std::make_unique<FtreeDmodkRouter>(*ftree);
    } else {
      router = std::make_unique<KaryDmodkRouter>(net, c.kary_k, c.kary_h);
    }
    const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
    const auto traffic =
        TrafficPattern::permutation(shift_permutation(terminals, 5), terminals);

    SimConfig config;
    config.injection_rate = c.rate;
    config.warmup_cycles = c.warmup;
    config.measure_cycles = c.measure;
    config.queue_capacity = c.queue_capacity;
    config.seed = report.manifest().seed;
    const std::uint64_t total_cycles = c.warmup + c.measure;

    const std::string p = c.name + ".";
    report.param(p + "terminals", terminals);
    report.param(p + "channels", net.channel_count());
    report.param(p + "injection_rate", c.rate);
    report.param(p + "warmup_cycles", c.warmup);
    report.param(p + "measure_cycles", c.measure);
    report.param(p + "queue_capacity", c.queue_capacity);

    SimResult single{};
    for (const auto shards : c.shard_counts) {
      SimResult result{};
      ShardedSim::Telemetry telemetry{};
      std::size_t arena_bytes = 0;
      const double best = bench::best_of(c.reps, [&] {
        ShardedSim sim(net, *router, traffic, config, shards);
        result = sim.run();
        telemetry = sim.telemetry();
        arena_bytes = sim.arena_bytes();
      });
      if (shards == 1) single = result;
      const std::string q = p + "shards" + std::to_string(shards) + ".";
      report.verdict(q + "identical_to_single_shard", result == single);
      report.metric(q + "seconds", best, "s");
      report.metric(q + "terminals_per_sec",
                    static_cast<double>(terminals) *
                        static_cast<double>(total_cycles) / best,
                    "terminal-cycles/s", true);
      const double bytes_per_terminal =
          static_cast<double>(arena_bytes) / static_cast<double>(terminals);
      report.metric(q + "bytes_per_terminal", bytes_per_terminal, "bytes");
      if (c.budget_bytes_per_terminal > 0.0) {
        report.budget(q + "bytes_per_terminal", bytes_per_terminal,
                      c.budget_bytes_per_terminal);
      }
      report.metric(q + "cross_shard_flits", telemetry.cross_shard_flits,
                    "flits");
      report.metric(q + "mailbox_peak", telemetry.mailbox_peak, "entries");
      report.metric(q + "accepted_throughput", result.accepted_throughput,
                    "flits/cycle/terminal");
      report.metric(q + "delivered_packets", result.delivered_packets,
                    "packets");
    }
    report.metric(p + "peak_rss_kb", obs::peak_rss_kb(), "KiB");
  }
  return report.write(std::cout);
}
