/// \file bench_flow_mt.cpp
/// \brief Sharded flow-control engine scaling and buffer-margin studies
///        past radix 16: cycles/sec at 1/2/4/8 shards, bit-identity
///        verdict per shard count, and the early-exit bisection margins
///        (wormhole + VCT) on radix-32/48 fabrics and a 10-ary 4-tree.
///
/// One nbclos-bench-v1 document on stdout (experiment "flow_mt"; names
/// in EXPERIMENTS.md).
/// For each topology case the harness:
///   * times serial `FlowSim` (counter injection) as the reference and
///     reports simulated cycles/sec;
///   * times `ShardedFlowSim` at 1, 2, 4, and 8 shards and compares
///     the whole FlowResult against the serial run (bit-exact, doubles
///     included) — a false `identical_to_serial` verdict is a
///     correctness regression and the bench exits nonzero on it, even
///     without the baseline gate.  `speedup_vs_serial` is reported for
///     measurement, never gated: CI runners may expose a single
///     hardware thread, where the epoch barriers can only cost;
///   * finds the buffer margin (min flits/port sustaining the 0.9
///     probe) with `analysis::buffer_margin_bisect` — O(log N) sharded
///     probes instead of the full sweep, which is what keeps radix 32
///     inside the quick budget.
/// A scale section then probes 10-ary trees with pure O(1) dmodk
/// routing and the lazy slab arenas — bytes/terminal, slab residency,
/// spill bytes, and cycles/sec per tree, with bytes/terminal held to a
/// committed budget — quick stops at 10^4 terminals, full climbs to the
/// 10^6-terminal 10-ary 6-tree (serial only) and reruns the margin
/// bisection on the 10-ary 5-tree.  A final recorder_overhead section
/// times the flight recorder live vs paused on a serial run (< 5% on a
/// quiet machine, budgeted at 25%) and checks that the merged invariant
/// time-series is bit-identical at every shard count.
///
/// --quick runs the radix-32 ftree only; the full run adds radix 48 and
/// the 10-ary 4-tree (10,000 terminals — its O(T^2) route cache honors
/// NBCLOS_MMAP_CACHE for RAM-constrained hosts).  Traffic is a seeded
/// random derangement on ftree fabrics (the pattern that separates
/// guaranteed routings from colliding ones) and a shift permutation on
/// the k-ary tree.  Results are seeded and bit-reproducible.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/buffer_margin.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/flow/sharded.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/routing/kary_updown.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/topology/fat_tree.hpp"
#include "nbclos/topology/network.hpp"

namespace {

using namespace nbclos;

constexpr int kTimingReps = 3;

// The acceptance budget for the flight recorder is < 5% on a quiet
// machine; the gated limit is looser because CI runners time noisily.
// The identity verdicts, in contrast, are exact.
constexpr double kRecorderOverheadCapPct = 25.0;

struct Case {
  std::string name;
  std::uint32_t ftree_r = 0;           ///< ftree(4+16, r) when nonzero
  std::uint32_t kary_k = 0, kary_h = 0;  ///< k-ary h-tree otherwise
  std::uint64_t warmup = 0, measure = 0;
  double rate = 0.9;
  std::vector<std::uint32_t> depths;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);

  bench::Report report("flow_mt");
  report.manifest().seed = 20260809;
  report.manifest().threads = 8;  // widest shard fan-out benched
  report.manifest().shards = 8;
  const std::uint64_t seed = report.manifest().seed;
  report.param("quick", args.quick);

  std::vector<Case> cases;
  cases.push_back({"ftree(4+16,32)", 32, 0, 0, 200, 800, 0.9,
                   {1, 2, 4, 8, 16}});
  if (!args.quick) {
    cases.push_back({"ftree(4+16,48)", 48, 0, 0, 300, 1200, 0.9,
                     {1, 2, 4, 8, 16}});
    // 10-ary 4-tree: 10,000 terminals at low load — the point is shard
    // scaling of the flit arenas, not saturation throughput.
    cases.push_back({"kary(10,4)", 0, 10, 4, 50, 200, 0.1, {2, 4, 8}});
  }
  const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};

  for (const auto& c : cases) {
    const bool is_ftree = c.ftree_r > 0;
    std::unique_ptr<FoldedClos> ftree;
    std::unique_ptr<YuanNonblockingRouting> yuan;
    Network net = [&] {
      if (is_ftree) {
        ftree = std::make_unique<FoldedClos>(FtreeParams{4, 16, c.ftree_r});
        return build_network(*ftree);
      }
      return build_kary_ntree(c.kary_k, c.kary_h);
    }();
    std::shared_ptr<const routing::ChannelRouteCache> cache;
    std::uint32_t terminals = 0;
    if (is_ftree) {
      yuan = std::make_unique<YuanNonblockingRouting>(*ftree);
      cache = std::make_shared<const routing::ChannelRouteCache>(
          routing::ChannelRouteCache::materialize(net, *yuan));
      terminals = ftree->leaf_count();
    } else {
      const KaryTreeRouter router(net, c.kary_k, c.kary_h);
      cache = std::make_shared<const routing::ChannelRouteCache>(
          net, [&](SDPair sd) { return router.route(sd); });
      terminals = static_cast<std::uint32_t>(net.terminals().size());
    }
    const auto traffic = [&] {
      if (is_ftree) {
        // Fixed-point-free random permutation (see bench_flow.cpp: a
        // fixed point would leave its terminal silent and dilute the
        // sustain fraction).
        Xoshiro256 pattern_rng(7);
        auto pattern = random_permutation(terminals, pattern_rng);
        while (pattern.size() < terminals) {
          pattern = random_permutation(terminals, pattern_rng);
        }
        return sim::TrafficPattern::permutation(pattern, terminals);
      }
      return sim::TrafficPattern::permutation(
          shift_permutation(terminals, 5), terminals);
    }();

    flow::FlowConfig config;
    config.injection_rate = c.rate;
    config.packet_flits = 4;
    config.buffer_flits = 8;
    config.warmup_cycles = c.warmup;
    config.measure_cycles = c.measure;
    config.seed = seed;
    const double total_cycles = static_cast<double>(c.warmup + c.measure);

    const std::string p = c.name + ".";
    report.param(p + "radix", c.ftree_r);
    report.param(p + "terminals", terminals);
    report.param(p + "channels", net.channel_count());
    report.param(p + "injection_rate", c.rate);
    report.param(p + "warmup_cycles", c.warmup);
    report.param(p + "measure_cycles", c.measure);
    report.metric(p + "route_cache_bytes", cache->bytes(), "bytes");
    const auto routes = std::make_shared<const flow::RouteSource>(cache);

    // --- serial reference: the identity baseline and the speedup denom.
    flow::FlowResult serial{};
    const double serial_secs = bench::best_of(kTimingReps, [&] {
      flow::FlowSim sim(routes, traffic, config);
      serial = sim.run();
    });
    report.verdict(p + "serial.no_deadlock", !serial.deadlocked);
    report.metric(p + "serial.seconds", serial_secs, "s");
    report.metric(p + "serial.cycles_per_sec", total_cycles / serial_secs,
                  "cycles/s", true);
    report.metric(p + "serial.accepted_throughput",
                  serial.accepted_throughput, "flits/cycle/terminal");
    report.metric(p + "serial.delivered_packets", serial.delivered_packets,
                  "packets");

    for (const auto shards : shard_counts) {
      flow::FlowResult result{};
      flow::ShardedFlowSim::Telemetry telemetry{};
      std::size_t arena_bytes = 0;
      const double secs = bench::best_of(kTimingReps, [&] {
        flow::ShardedFlowSim sim(routes, traffic, config, shards);
        result = sim.run();
        telemetry = sim.telemetry();
        arena_bytes = sim.arena_bytes();
      });
      const std::string q = p + "shards" + std::to_string(shards) + ".";
      report.verdict(q + "identical_to_serial", result == serial);
      report.metric(q + "seconds", secs, "s");
      report.metric(q + "cycles_per_sec", total_cycles / secs, "cycles/s",
                    true);
      report.metric(q + "speedup_vs_serial", serial_secs / secs, "ratio");
      report.metric(q + "arena_bytes", arena_bytes, "bytes");
      report.metric(q + "cross_shard_flits", telemetry.cross_shard_flits,
                    "flits");
      report.metric(q + "cross_shard_credits", telemetry.cross_shard_credits,
                    "credits");
      report.metric(q + "mailbox_peak", telemetry.mailbox_peak, "entries");
      report.metric(q + "accepted_throughput", result.accepted_throughput,
                    "flits/cycle/terminal");
      report.metric(q + "delivered_packets", result.delivered_packets,
                    "packets");
      report.metric(q + "peak_buffer_flits", result.peak_buffer_flits,
                    "flits");
    }

    // --- buffer margin past radix 16: O(log N) sharded bisection ------
    report.param(p + "margin.shards", 8);
    for (const bool vct : {false, true}) {
      analysis::BufferMarginConfig margin;
      margin.buffer_sizes = c.depths;
      margin.probe_load = c.rate;
      margin.base = config;
      margin.base.switching = vct ? flow::Switching::kVirtualCutThrough
                                  : flow::Switching::kWormhole;
      const auto bisect =
          analysis::buffer_margin_bisect(routes, traffic, margin, 8);
      const std::string q = p + "margin." + (vct ? "vct." : "wormhole.");
      report.verdict(q + "sustains_probe", bisect.min_flits_nonblocking != 0);
      report.metric(q + "min_flits_nonblocking", bisect.min_flits_nonblocking,
                    "flits");
      report.metric(q + "probes", bisect.points.size(), "probes");
      for (const auto& point : bisect.points) {
        const std::string d =
            q + "flits" + std::to_string(point.buffer_flits) + ".";
        report.verdict(d + "no_deadlock", !point.deadlocked);
        report.metric(d + "feasible", point.feasible ? 1 : 0, "bool");
        report.metric(d + "sustained", point.sustained ? 1 : 0, "bool");
        report.metric(d + "accepted_throughput", point.accepted_throughput,
                      "flits/cycle/terminal");
        report.metric(d + "peak_buffer_flits", point.peak_buffer_flits,
                      "flits");
      }
    }
    report.metric(p + "peak_rss_kb", obs::peak_rss_kb(), "KiB");
  }

  // --- flow-level scale-out: sparse arenas on 10-ary trees -------------
  // Pure O(1) dmodk routing (no per-pair table) plus the lazy slab
  // arenas are what let a 10^6-terminal fabric run at all; this section
  // records bytes/terminal, slab residency, and cycles/sec so the budget
  // catches a densification regression.  Short low-load windows — the
  // point is memory shape, not saturation behavior.
  {
    // Committed ceiling for (flit + packet arena bytes) / terminal at
    // the largest tree; see EXPERIMENTS.md for the derivation.
    constexpr double kScaleBudgetBytesPerTerminal = 256.0;
    struct ScalePoint {
      std::uint32_t k, h;
      bool identity;  ///< also run ShardedFlowSim(4) and compare
    };
    std::vector<ScalePoint> points = {{10, 3, true}, {10, 4, true}};
    if (!args.quick) {
      points.push_back({10, 5, true});
      points.push_back({10, 6, false});  // serial only: memory headroom
    }
    for (const auto& pt : points) {
      const Network net = build_kary_ntree(pt.k, pt.h);
      const auto terminals =
          static_cast<std::uint32_t>(net.terminals().size());
      const auto routes =
          std::make_shared<const flow::RouteSource>(
              net, std::make_shared<const sim::KaryDmodkRouter>(net, pt.k,
                                                                pt.h));
      const auto traffic = sim::TrafficPattern::permutation(
          shift_permutation(terminals, 7), terminals);
      flow::FlowConfig config;
      config.injection_rate = 0.05;
      config.packet_flits = 4;
      config.buffer_flits = 8;
      config.warmup_cycles = 20;
      config.measure_cycles = 80;
      config.seed = seed;
      const double total_cycles =
          static_cast<double>(config.warmup_cycles + config.measure_cycles);

      // One timed run per point: a 10^6-terminal probe is too large for
      // best-of-3, and the memory numbers are deterministic anyway.
      flow::FlowResult serial{};
      flow::ArenaStats stats{};
      const bench::Timer timer;
      {
        flow::FlowSim sim(routes, traffic, config);
        serial = sim.run();
        stats = sim.arena_stats();
      }
      const double secs = timer.seconds();
      const double bytes_per_terminal =
          static_cast<double>(stats.flit_arena_bytes +
                              stats.packet_arena_bytes) /
          static_cast<double>(terminals);
      const std::string p = "scale.kary(" + std::to_string(pt.k) + "," +
                            std::to_string(pt.h) + ").";
      report.budget(p + "bytes_per_terminal", bytes_per_terminal,
                    kScaleBudgetBytesPerTerminal);
      report.verdict(p + "no_deadlock", !serial.deadlocked);
      if (pt.identity) {
        flow::ShardedFlowSim sharded(routes, traffic, config, 4);
        report.verdict(p + "identical_to_serial", sharded.run() == serial);
      }
      report.param(p + "terminals", terminals);
      report.param(p + "channels", net.channel_count());
      report.param(p + "route_source", routes->label());
      report.metric(p + "route_bytes", routes->bytes(), "bytes");
      report.metric(p + "seconds", secs, "s");
      report.metric(p + "cycles_per_sec", total_cycles / secs, "cycles/s",
                    true);
      report.metric(p + "delivered_packets", serial.delivered_packets,
                    "packets");
      report.metric(p + "flit_arena_bytes", stats.flit_arena_bytes, "bytes");
      report.metric(p + "packet_arena_bytes", stats.packet_arena_bytes,
                    "bytes");
      report.metric(p + "resident_slots", stats.resident_slots, "slots");
      report.metric(p + "peak_slots", stats.peak_slots, "slots");
      report.metric(p + "spill_bytes", stats.spill_bytes, "bytes");
      report.metric(p + "peak_rss_kb", obs::peak_rss_kb(), "KiB");
    }

    // Margin bisection rerun at the new scale: the 10-ary 5-tree margin
    // via sharded probes over the pure route source (full mode only —
    // each probe is a 10^5-terminal run).
    if (!args.quick) {
      const std::uint32_t k = 10, h = 5;
      const Network net = build_kary_ntree(k, h);
      const auto terminals =
          static_cast<std::uint32_t>(net.terminals().size());
      const auto routes = std::make_shared<const flow::RouteSource>(
          net, std::make_shared<const sim::KaryDmodkRouter>(net, k, h));
      const auto traffic = sim::TrafficPattern::permutation(
          shift_permutation(terminals, 7), terminals);
      analysis::BufferMarginConfig margin;
      margin.buffer_sizes = {2, 4, 8};
      margin.probe_load = 0.1;
      margin.base.packet_flits = 4;
      margin.base.warmup_cycles = 20;
      margin.base.measure_cycles = 80;
      margin.base.seed = seed;
      const auto bisect =
          analysis::buffer_margin_bisect(routes, traffic, margin, 4);
      report.metric("scale.margin_kary_10_5.min_flits_nonblocking",
                    bisect.min_flits_nonblocking, "flits");
      report.metric("scale.margin_kary_10_5.probes", bisect.points.size(),
                    "probes");
    }
  }

  // --- flight-recorder overhead and shard-count series identity --------
  // Serial FlowSim with the recorder armed, sampling live vs paused via
  // the runtime switch, then the sharded engine at every shard count
  // checking the merged invariant series against serial bit for bit —
  // the time-series analogue of identical_to_serial above.
  {
    const FoldedClos ftree(FtreeParams{4, 16, 16});
    const Network net = build_network(ftree);
    const YuanNonblockingRouting yuan(ftree);
    const auto routes = std::make_shared<const flow::RouteSource>(
        std::make_shared<const routing::ChannelRouteCache>(
            routing::ChannelRouteCache::materialize(net, yuan)));
    const auto terminals = ftree.leaf_count();
    const auto traffic = sim::TrafficPattern::permutation(
        shift_permutation(terminals, 5), terminals);
    flow::FlowConfig config;
    config.injection_rate = 0.8;
    config.packet_flits = 4;
    config.buffer_flits = 8;
    config.warmup_cycles = 200;
    config.measure_cycles = args.quick ? 800 : 4000;
    config.seed = seed;
    config.record_timeseries = true;
    config.record_cadence = 32;

    flow::FlowResult serial{};
    std::vector<obs::MergedSeries> serial_series;
    const auto run_serial = [&] {
      flow::FlowSim sim(routes, traffic, config);
      serial = sim.run();
      serial_series.clear();
      for (auto& series : sim.recorder().merged()) {
        if (series.scope == obs::SeriesScope::kInvariant) {
          serial_series.push_back(std::move(series));
        }
      }
    };
    obs::set_enabled(true);
    const double on_secs = bench::best_of(kTimingReps, run_serial);
    const auto on_result = serial;
    std::size_t points = 0;
    for (const auto& series : serial_series) points += series.points.size();
    const auto golden = serial_series;
    obs::set_enabled(false);  // want() goes false: sampling pauses
    const double off_secs = bench::best_of(kTimingReps, run_serial);
    obs::set_enabled(true);
    const double overhead_pct = (on_secs / off_secs - 1.0) * 100.0;

    const std::string p = "recorder_overhead.";
    report.param(p + "compiled_in", obs::kEnabled);
    report.param(p + "cycles", config.warmup_cycles + config.measure_cycles);
    report.verdict(p + "results_identical", on_result == serial);
    report.metric(p + "enabled_seconds", on_secs, "s");
    report.metric(p + "paused_seconds", off_secs, "s");
    report.metric(p + "overhead_pct", overhead_pct, "%");
    report.metric(p + "points_recorded", points, "points");
    if (obs::kEnabled) {
      report.budget(p + "overhead_pct", overhead_pct,
                    kRecorderOverheadCapPct);
    }
    for (const auto shards : shard_counts) {
      flow::ShardedFlowSim sim(routes, traffic, config, shards);
      const auto result = sim.run();
      std::vector<obs::MergedSeries> got;
      for (auto& series : sim.recorder().merged()) {
        if (series.scope == obs::SeriesScope::kInvariant) {
          got.push_back(std::move(series));
        }
      }
      bool same_series = result == on_result && got.size() == golden.size();
      for (std::size_t i = 0; same_series && i < golden.size(); ++i) {
        same_series = got[i].name == golden[i].name &&
                      got[i].stride_cycles == golden[i].stride_cycles &&
                      got[i].points == golden[i].points;
      }
      report.verdict(p + "shards" + std::to_string(shards) +
                         ".series_identical",
                     same_series);
    }
  }
  return report.write(std::cout);
}
