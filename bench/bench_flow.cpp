/// \file bench_flow.cpp
/// \brief Flow-control engine throughput and buffer-margin sweeps: how
///        fast the cycle-level simulator runs, and how many buffer flits
///        per port each routing needs before it sustains nonblocking
///        throughput, on radix-8 and radix-16 fabrics.
///
/// One nbclos-bench-v1 document on stdout (names in EXPERIMENTS.md).
/// For each radix the harness measures, on ftree(4 + 16, r):
///   * engine.{wormhole,vct} — FlowSim wall time at offered load 0.9
///     with 4-flit packets and 8-flit buffers, reported as simulated
///     cycles/sec (best of repetitions, deterministic work);
///   * margin.{thm3,dmodk,adaptive}_{wormhole,vct} — the
///     analysis::buffer_margin_sweep minimum buffer depth at which the
///     routing sustains the 0.9 probe (min_flits_nonblocking; 0 = no
///     probed depth sustains it).  The Theorem 3 routing is
///     contention-free, so its margin (and the adaptive one) doubles as
///     a verdict: `sustains_probe` is false when it reports 0.
/// Traffic is a seeded random permutation — shift permutations are
/// contention-free even under d-mod-k, so a random one is what
/// separates the guaranteed routings (Theorem 3 and the adaptive
/// schedule handle *any* permutation) from the d-mod-k baseline, which
/// collides and cannot sustain the probe.  The adaptive rows route the
/// permutation through the NONBLOCKINGADAPTIVE schedule (Fig. 4)
/// flattened to channel paths; pairs outside the permutation fall back
/// to Theorem 3 routes and never carry traffic.  Results are seeded and
/// bit-reproducible at any thread count.  Pass --quick for CI smoke
/// budgets, --threads <T> to cap the sweep worker pool.
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "nbclos/adaptive/router.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/flow/buffer_margin.hpp"
#include "nbclos/flow/engine.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/util/thread_pool.hpp"

namespace {

constexpr int kTimingReps = 3;

/// Flatten the NONBLOCKINGADAPTIVE schedule for `pattern` into a channel
/// cache: scheduled pairs take their adaptive path, everything else (no
/// traffic under this pattern) falls back to the Theorem 3 route.  Null
/// when the schedule needs more top switches than `ft` has.
std::shared_ptr<const nbclos::routing::ChannelRouteCache> make_adaptive_cache(
    const nbclos::FoldedClos& ft, const nbclos::Network& net,
    const nbclos::YuanNonblockingRouting& fallback,
    const std::vector<nbclos::SDPair>& pattern) {
  const nbclos::adaptive::AdaptiveParams params =
      nbclos::adaptive::AdaptiveParams::from(ft);
  const nbclos::adaptive::NonblockingAdaptiveRouter router(params);
  const auto schedule = router.route(pattern);
  if (schedule.top_switches_used > ft.m()) return nullptr;
  const auto paths = schedule.to_paths(ft);
  std::unordered_map<std::uint64_t, nbclos::FtreePath> scheduled;
  const std::uint64_t leafs = ft.leaf_count();
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    scheduled.emplace(pattern[i].src.value * leafs + pattern[i].dst.value,
                      paths[i]);
  }
  return std::make_shared<const nbclos::routing::ChannelRouteCache>(
      net, [&, scheduled = std::move(scheduled)](nbclos::SDPair sd) {
        const auto hit = scheduled.find(sd.src.value * leafs + sd.dst.value);
        const nbclos::FtreePath path =
            hit != scheduled.end() ? hit->second : fallback.route(sd);
        nbclos::LinkId run[nbclos::FoldedClos::kMaxPathLinks];
        const auto count = ft.links_into(path, run);
        std::vector<std::uint32_t> channels;
        for (std::uint32_t i = 0; i < count; ++i) {
          channels.push_back(run[i].value);
        }
        return channels;
      });
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = nbclos::bench::parse_args(argc, argv);
  const std::size_t max_threads = args.threads.value_or(8);

  nbclos::bench::Report report("flow");
  report.manifest().seed = 42;
  report.manifest().threads = static_cast<std::uint32_t>(max_threads);
  nbclos::ThreadPool pool(max_threads);

  // The quick budgets keep every timed engine section in the
  // milliseconds range so the regression ratios stay timer-noise-free.
  const std::uint64_t warmup = args.quick ? 300 : 1000;
  const std::uint64_t measure = args.quick ? 1500 : 6000;
  const std::vector<std::uint32_t> depths =
      args.quick ? std::vector<std::uint32_t>{1, 2, 4, 8}
                 : std::vector<std::uint32_t>{1, 2, 4, 8, 16};
  report.param("quick", args.quick);
  report.param("warmup_cycles", warmup);
  report.param("measure_cycles", measure);

  const std::vector<std::uint32_t> radices = {8, 16};
  for (const auto r : radices) {
    const std::uint32_t n = 4;
    const nbclos::FoldedClos ft(nbclos::FtreeParams{n, n * n, r});
    const auto net = nbclos::build_network(ft);
    const nbclos::YuanNonblockingRouting yuan(ft);
    const nbclos::DModKRouting dmodk(ft);
    // Fixed-point-free (seeded) random permutation.  random_permutation
    // drops self-pairs, so a fixed point leaves its terminal with no
    // destination at all — it never injects, diluting accepted
    // throughput below the sustain fraction on every routing and
    // masking the margin.  A full-size pattern is a derangement.
    nbclos::Xoshiro256 pattern_rng(7);
    auto pattern = nbclos::random_permutation(ft.leaf_count(), pattern_rng);
    while (pattern.size() < ft.leaf_count()) {
      pattern = nbclos::random_permutation(ft.leaf_count(), pattern_rng);
    }
    const auto traffic =
        nbclos::sim::TrafficPattern::permutation(pattern, ft.leaf_count());

    const std::string p = "radix" + std::to_string(r) + ".";
    report.param(p + "topology", "ftree(" + std::to_string(n) + "+" +
                                     std::to_string(n * n) + ", " +
                                     std::to_string(r) + ")");
    report.param(p + "leafs", ft.leaf_count());
    report.param(p + "links", ft.link_count());

    struct RoutingCase {
      const char* key;
      std::shared_ptr<const nbclos::flow::RouteSource> routes;
    };
    using nbclos::routing::ChannelRouteCache;
    const auto table = [](std::shared_ptr<const ChannelRouteCache> cache) {
      return std::make_shared<const nbclos::flow::RouteSource>(
          std::move(cache));
    };
    std::vector<RoutingCase> routings = {
        {"thm3", table(std::make_shared<const ChannelRouteCache>(
                     ChannelRouteCache::materialize(net, yuan)))},
        {"dmodk", table(std::make_shared<const ChannelRouteCache>(
                      ChannelRouteCache::materialize(net, dmodk)))},
    };
    auto adaptive = make_adaptive_cache(ft, net, yuan, pattern);
    report.verdict(p + "adaptive.schedule_fits", adaptive != nullptr);
    if (adaptive) routings.push_back({"adaptive", table(std::move(adaptive))});

    // --- engine throughput: simulated cycles per wall second ----------
    for (const bool vct : {false, true}) {
      nbclos::flow::FlowConfig config;
      config.injection_rate = 0.9;
      config.packet_flits = 4;
      config.buffer_flits = 8;
      config.switching = vct ? nbclos::flow::Switching::kVirtualCutThrough
                             : nbclos::flow::Switching::kWormhole;
      config.warmup_cycles = warmup;
      config.measure_cycles = measure;
      nbclos::flow::FlowResult result;
      const double secs = nbclos::bench::best_of(kTimingReps, [&] {
        nbclos::flow::FlowSim sim(routings[0].routes, traffic, config);
        result = sim.run();
      });
      const double cycles = static_cast<double>(warmup + measure);
      const std::string q = p + "engine." + (vct ? "vct" : "wormhole") + ".";
      report.verdict(q + "no_deadlock", !result.deadlocked);
      report.metric(q + "seconds", secs, "s");
      report.metric(q + "cycles_per_sec", cycles / secs, "cycles/s", true);
      report.metric(q + "accepted_throughput", result.accepted_throughput,
                    "flits/cycle/terminal");
      report.metric(q + "min_flow_throughput", result.min_flow_throughput,
                    "flits/cycle");
      report.metric(q + "max_flow_throughput", result.max_flow_throughput,
                    "flits/cycle");
      report.metric(q + "injected_packets", result.injected_packets,
                    "packets");
      report.metric(q + "delivered_packets", result.delivered_packets,
                    "packets");
      report.metric(q + "mean_latency", result.mean_latency, "cycles");
      report.metric(q + "peak_buffer_flits", result.peak_buffer_flits,
                    "flits");
    }

    // --- buffer margin: min flits/port for nonblocking throughput -----
    for (const auto& routing : routings) {
      for (const bool vct : {false, true}) {
        nbclos::analysis::BufferMarginConfig config;
        config.buffer_sizes = depths;
        config.probe_load = 0.9;
        config.base.packet_flits = 4;
        config.base.switching =
            vct ? nbclos::flow::Switching::kVirtualCutThrough
                : nbclos::flow::Switching::kWormhole;
        config.base.warmup_cycles = warmup;
        config.base.measure_cycles = measure;
        config.base.seed = 42;
        const auto sweep = nbclos::analysis::buffer_margin_sweep(
            routing.routes, traffic, config, &pool);
        const std::string q = p + "margin." + routing.key +
                              (vct ? "_vct." : "_wormhole.");
        report.metric(q + "min_flits_nonblocking",
                      sweep.min_flits_nonblocking, "flits");
        // The guaranteed routings must sustain the probe at some probed
        // depth; d-mod-k's collisions are a routing defect that no
        // depth fixes, so it carries no such verdict.
        if (std::string(routing.key) != "dmodk") {
          report.verdict(q + "sustains_probe",
                         sweep.min_flits_nonblocking != 0);
        }
        for (const auto& point : sweep.points) {
          const std::string d =
              q + "flits" + std::to_string(point.buffer_flits) + ".";
          report.verdict(d + "no_deadlock", !point.deadlocked);
          report.metric(d + "feasible", point.feasible ? 1 : 0, "bool");
          report.metric(d + "sustained", point.sustained ? 1 : 0, "bool");
          report.metric(d + "accepted_throughput", point.accepted_throughput,
                        "flits/cycle/terminal");
          report.metric(d + "credit_stall_cycles", point.credit_stall_cycles,
                        "cycles");
          report.metric(d + "peak_buffer_flits", point.peak_buffer_flits,
                        "flits");
        }
      }
    }
  }
  return report.write(std::cout);
}
