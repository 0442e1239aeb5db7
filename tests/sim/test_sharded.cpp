/// Golden bit-identity contract of the sharded engine.
///
/// ShardedSim's determinism claim is cross-engine and cross-shard-count:
/// for any pure ShardRouter, PacketSim (counter injection, same router
/// via ShardRouterOracle) and ShardedSim at 1, 2, 4, and 8 shards must
/// produce the *same SimResult in every field* — integers equal, doubles
/// bit-identical — including under a mid-run fault schedule.  These
/// tests are what licenses the million-terminal benches to validate a
/// multi-shard run against a single shard instead of a serial rerun.
#include <gtest/gtest.h>

#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/core/multilevel.hpp"
#include "nbclos/obs/flight_recorder.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos {
namespace {

using namespace nbclos::sim;

void expect_identical(const SimResult& a, const SimResult& b,
                      const char* label) {
  EXPECT_EQ(a.offered_load, b.offered_load) << label;
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput) << label;
  EXPECT_EQ(a.mean_latency, b.mean_latency) << label;
  EXPECT_EQ(a.p50_latency, b.p50_latency) << label;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << label;
  EXPECT_EQ(a.p999_latency, b.p999_latency) << label;
  EXPECT_EQ(a.latency_bucket_width, b.latency_bucket_width) << label;
  EXPECT_EQ(a.injected_packets, b.injected_packets) << label;
  EXPECT_EQ(a.delivered_packets, b.delivered_packets) << label;
  EXPECT_EQ(a.dropped_packets, b.dropped_packets) << label;
  EXPECT_EQ(a.mean_switch_queue_depth, b.mean_switch_queue_depth) << label;
  EXPECT_EQ(a.min_flow_throughput, b.min_flow_throughput) << label;
  EXPECT_EQ(a.max_flow_throughput, b.max_flow_throughput) << label;
  EXPECT_TRUE(a == b) << label << ": a field the checks above miss differs";
}

SimConfig sharded_config(double rate) {
  SimConfig config;
  config.injection_rate = rate;
  config.warmup_cycles = 400;
  config.measure_cycles = 1600;
  config.queue_capacity = 8;
  config.seed = 20260809;
  return config;
}

/// PacketSim reference run with the identical pure router.
SimResult reference_run(const Network& net, const ShardRouter& router,
                        const TrafficPattern& traffic, const SimConfig& config,
                        fault::DegradedView* degraded = nullptr,
                        std::vector<fault::FaultEvent> events = {}) {
  ShardRouterOracle oracle(router);
  PacketSim sim(net, oracle, traffic, config, degraded, std::move(events));
  return sim.run();
}

TEST(ShardedSim, BitIdenticalToPacketSimOnFtreeAtEveryShardCount) {
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const Network net = build_network(ft);
  const FtreeDmodkRouter router(ft);
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 5), ft.leaf_count());
  for (const double rate : {0.2, 0.8}) {
    const auto config = sharded_config(rate);
    const auto expect = reference_run(net, router, traffic, config);
    for (const std::uint32_t shards : {1U, 2U, 4U, 8U}) {
      ShardedSim sim(net, router, traffic, config, shards);
      ASSERT_EQ(sim.shard_count(), shards);
      const auto got = sim.run();
      expect_identical(got, expect,
                       (std::string("ftree shards=") + std::to_string(shards) +
                        " rate=" + std::to_string(rate))
                           .c_str());
    }
  }
}

TEST(ShardedSim, BitIdenticalToPacketSimOnKaryTrees) {
  for (const auto& [k, h] : {std::pair<std::uint32_t, std::uint32_t>{3, 3},
                             std::pair<std::uint32_t, std::uint32_t>{4, 3}}) {
    const Network net = build_kary_ntree(k, h);
    const KaryDmodkRouter router(net, k, h);
    const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
    const auto traffic = TrafficPattern::permutation(
        shift_permutation(terminals, 7), terminals);
    const auto config = sharded_config(0.5);
    const auto expect = reference_run(net, router, traffic, config);
    for (const std::uint32_t shards : {1U, 2U, 4U, 8U}) {
      ShardedSim sim(net, router, traffic, config, shards);
      const auto got = sim.run();
      expect_identical(got, expect,
                       (std::to_string(k) + "-ary shards=" +
                        std::to_string(shards))
                           .c_str());
    }
  }
}

TEST(ShardedSim, BitIdenticalUnderAFaultSchedule) {
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const Network net = build_network(ft);
  const FtreeDmodkRouter router(ft);
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 5), ft.leaf_count());
  const auto config = sharded_config(0.6);
  // Kill one top switch mid-warmup and one up-link mid-measurement, then
  // recover the switch: exercises purges in both flying and queued state.
  const std::vector<fault::FaultEvent> events = {
      {200, fault::FaultAction::kFailVertex,
       FtreeNetworkMap{ft.params()}.top(TopId{1})},
      {900, fault::FaultAction::kFailChannel,
       ft.up_link(BottomId{3}, TopId{0}).value},
      {1300, fault::FaultAction::kRecoverVertex,
       FtreeNetworkMap{ft.params()}.top(TopId{1})},
  };
  fault::DegradedView reference_view(net);
  const auto expect = reference_run(net, router, traffic, config,
                                    &reference_view, events);
  EXPECT_GT(expect.dropped_packets, 0U);  // the schedule must actually bite
  const fault::DegradedView pristine(net);
  for (const std::uint32_t shards : {1U, 2U, 4U, 8U}) {
    ShardedSim sim(net, router, traffic, config, shards, &pristine, events);
    const auto got = sim.run();
    expect_identical(got, expect,
                     ("faulted shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ShardedSim, BitIdenticalToPacketSimOnMultiLevelFabric) {
  // The recursive Theorem 3 fabric through the pure RecursiveShardRouter:
  // the golden contract extends beyond the formulaic tree builders to
  // the paper's §IV construction.
  const MultiLevelFabric fabric(2, 3);  // 24 ports
  const auto& net = fabric.network();
  const RecursiveShardRouter router(fabric);
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(fabric.port_count(), 5), fabric.port_count());
  const auto config = sharded_config(0.6);
  const auto expect = reference_run(net, router, traffic, config);
  EXPECT_GT(expect.delivered_packets, 0U);
  for (const std::uint32_t shards : {1U, 2U, 4U, 8U}) {
    ShardedSim sim(net, router, traffic, config, shards);
    const auto got = sim.run();
    expect_identical(got, expect,
                     ("multilevel shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ShardedSim, UniformTrafficIsShardCountInvariant) {
  const Network net = build_kary_ntree(3, 3);
  const KaryDmodkRouter router(net, 3, 3);
  const auto traffic = TrafficPattern::uniform(27);
  const auto config = sharded_config(0.7);
  // Uniform destinations draw from the per-(cycle, terminal) counter
  // stream, so the pattern itself must be shard-count invariant too.
  const auto expect = reference_run(net, router, traffic, config);
  for (const std::uint32_t shards : {1U, 3U, 8U}) {
    ShardedSim sim(net, router, traffic, config, shards);
    expect_identical(sim.run(), expect,
                     ("uniform shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ShardedSim, ConservesPacketsAndCountsCrossShardTraffic) {
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const Network net = build_network(ft);
  const FtreeDmodkRouter router(ft);
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 5), ft.leaf_count());
  const auto config = sharded_config(0.8);

  ShardedSim single(net, router, traffic, config, 1);
  const auto single_result = single.run();
  // One shard has no mailboxes to cross.
  EXPECT_EQ(single.telemetry().cross_shard_flits, 0U);
  EXPECT_EQ(single_result.injected_packets,
            single_result.delivered_packets + single_result.dropped_packets +
                single.telemetry().remaining_packets);

  ShardedSim quad(net, router, traffic, config, 4);
  const auto quad_result = quad.run();
  // A 4-shard cut of a folded-Clos necessarily routes traffic across
  // shard boundaries, and conservation must close exactly.
  EXPECT_GT(quad.telemetry().cross_shard_flits, 0U);
  EXPECT_EQ(quad_result.injected_packets,
            quad_result.delivered_packets + quad_result.dropped_packets +
                quad.telemetry().remaining_packets);
  // Remaining in-system packets are part of the bit-identity contract
  // too (same end state, only partitioned differently).
  EXPECT_EQ(single.telemetry().remaining_packets,
            quad.telemetry().remaining_packets);
  EXPECT_GT(quad.arena_bytes(), 0U);
}

TEST(ShardedSim, ArenaFollowsQueueOccupancyNotCapacity) {
  // Theorem 3 routes keep ideal-reference queues a few packets deep, so
  // the 1024-deep switch queues must cost ring slots only where packets
  // actually waited — far below the dense switch_channels x 1024 figure.
  const FoldedClos ft(FtreeParams{4, 16, 32});
  const Network net = build_network(ft);
  const YuanNonblockingRouting thm3(ft);
  const auto cache = routing::ChannelRouteCache::materialize(net, thm3);
  CachedShardRouter router(cache);
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(terminals, 37), terminals);
  SimConfig config = SimConfig::ideal_reference(0.9, 20261017);
  config.warmup_cycles = 400;
  config.measure_cycles = 1600;
  std::size_t switch_channels = 0;
  for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
    if (net.vertex(net.channel_src(c)).kind != VertexKind::kTerminal) {
      ++switch_channels;
    }
  }
  const std::size_t dense_bytes = switch_channels *
                                  SimConfig::kEffectivelyInfiniteQueueCapacity *
                                  sizeof(Packet);
  for (const std::uint32_t shards : {1U, 4U}) {
    ShardedSim sim(net, router, traffic, config, shards);
    const auto result = sim.run();
    EXPECT_FALSE(result.saturated()) << "shards=" << shards;
    EXPECT_LT(sim.arena_bytes(), dense_bytes / 20)
        << "shards=" << shards << " dense=" << dense_bytes;
  }
}

TEST(ShardedSim, RingGrowthAndWraparoundStayBitIdentical) {
  // Saturated d-mod-k with a non-power-of-two switch bound: switch rings
  // cap at bit_ceil(3) = 4 slots and wrap constantly, while the NIC
  // rings back up and double with their head mid-ring.
  const Network net = build_kary_ntree(4, 3);
  const KaryDmodkRouter router(net, 4, 3);
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto traffic = TrafficPattern::uniform(terminals);
  SimConfig config = sharded_config(1.0);
  config.queue_capacity = 3;
  config.packet_size = 2;
  ShardRouterOracle oracle(router);
  PacketSim serial(net, oracle, traffic, config);
  const auto expect = serial.run();
  ASSERT_TRUE(expect.saturated());
  for (const std::uint32_t shards : {1U, 2U, 4U}) {
    ShardedSim sim(net, router, traffic, config, shards);
    const auto got = sim.run();
    const auto label = "growth shards=" + std::to_string(shards);
    expect_identical(got, expect, label.c_str());
    EXPECT_EQ(sim.link_busy_flits(), serial.link_busy_flits()) << label;
    // More packets are left than every flight register, switch ring and
    // first-size NIC ring together can hold, so some NIC ring doubled.
    const std::size_t first_size_slots =
        net.channel_count() * (1 + config.queue_capacity) + terminals * 16;
    EXPECT_GT(sim.telemetry().remaining_packets, first_size_slots) << label;
  }
}

TEST(ShardedSim, BitIdenticalSaturatedAtUnevenCuts) {
  // Two-deep switch queues at full uniform load: most proposals lose
  // arbitration, and targets collect candidates from several shards'
  // mailboxes that must merge into ascending proposing-channel order.
  const Network net = build_kary_ntree(4, 3);
  const KaryDmodkRouter router(net, 4, 3);
  const auto terminals = static_cast<std::uint32_t>(net.terminals().size());
  const auto traffic = TrafficPattern::uniform(terminals);
  SimConfig config = sharded_config(1.0);
  config.queue_capacity = 2;
  const auto expect = reference_run(net, router, traffic, config);
  ASSERT_TRUE(expect.saturated());
  for (const std::uint32_t shards : {3U, 8U}) {
    ShardedSim sim(net, router, traffic, config, shards);
    expect_identical(sim.run(), expect,
                     ("saturated shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ShardedSim, LoadSweepShardedMatchesSingleShardSweep) {
  const Network net = build_kary_ntree(3, 3);
  const KaryDmodkRouter router(net, 3, 3);
  const auto traffic = TrafficPattern::permutation(shift_permutation(27, 4), 27);
  SimConfig base = sharded_config(0.1);
  const std::vector<double> rates = {0.2, 0.6, 1.0};
  const auto one = load_sweep_sharded(net, router, traffic, base, rates, 1);
  const auto four = load_sweep_sharded(net, router, traffic, base, rates, 4);
  ASSERT_EQ(one.size(), rates.size());
  ASSERT_EQ(four.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    expect_identical(four[i], one[i],
                     ("sweep rate=" + std::to_string(rates[i])).c_str());
  }
}

TEST(ShardedSim, MergedTimeseriesBitIdenticalAcrossShardCounts) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const Network net = build_network(ft);
  const FtreeDmodkRouter router(ft);
  const auto traffic = TrafficPattern::permutation(
      shift_permutation(ft.leaf_count(), 5), ft.leaf_count());
  auto config = sharded_config(0.8);
  config.record_timeseries = true;
  config.record_cadence = 32;
  config.record_ring_capacity = 16;  // small ring: downsampling engages
  // The invariant subset of merged(), as comparable values.
  const auto invariant = [](const obs::FlightRecorder& recorder) {
    std::vector<obs::MergedSeries> out;
    for (auto& series : recorder.merged()) {
      if (series.scope == obs::SeriesScope::kInvariant) {
        out.push_back(std::move(series));
      }
    }
    return out;
  };
  ShardRouterOracle oracle(router);
  PacketSim serial(net, oracle, traffic, config);
  const auto golden_result = serial.run();
  const auto golden = invariant(serial.recorder());
  ASSERT_GE(golden.size(), 6U);
  ASSERT_FALSE(golden[0].points.empty());
  for (const std::uint32_t shards : {1U, 2U, 4U, 8U}) {
    ShardedSim sim(net, router, traffic, config, shards);
    const auto got_result = sim.run();
    expect_identical(got_result, golden_result,
                     ("timeseries shards=" + std::to_string(shards)).c_str());
    const auto got = invariant(sim.recorder());
    ASSERT_EQ(got.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
      SCOPED_TRACE("series=" + golden[i].name +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(got[i].name, golden[i].name);
      EXPECT_EQ(got[i].stride_cycles, golden[i].stride_cycles);
      EXPECT_EQ(got[i].points, golden[i].points);
    }
  }
}

TEST(ShardedSim, RunIsSingleShot) {
  const Network net = build_kary_ntree(2, 2);
  const KaryDmodkRouter router(net, 2, 2);
  const auto traffic = TrafficPattern::uniform(4);
  SimConfig config = sharded_config(0.5);
  config.warmup_cycles = 10;
  config.measure_cycles = 20;
  ShardedSim sim(net, router, traffic, config, 2);
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), precondition_error);
}

TEST(ShardedSim, RejectsMismatchedInputs) {
  const Network net = build_kary_ntree(2, 2);
  const KaryDmodkRouter router(net, 2, 2);
  const auto traffic = TrafficPattern::uniform(4);
  SimConfig config = sharded_config(0.5);
  // Fault events without a degraded view are rejected as in PacketSim.
  EXPECT_THROW(ShardedSim(net, router, traffic, config, 2, nullptr,
                          {{0, fault::FaultAction::kFailChannel, 0}}),
               precondition_error);
  const auto wrong_traffic = TrafficPattern::uniform(5);
  EXPECT_THROW(ShardedSim(net, router, wrong_traffic, config, 2),
               precondition_error);
}

}  // namespace
}  // namespace nbclos
