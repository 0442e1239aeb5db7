/// \file test_golden.cpp
/// \brief Bit-reproducibility contract of PacketSim on fixed seeds.
///
/// Provenance of the pinned values.  They were captured from the serial
/// PacketSim kernel as it stood before the sequential Xoshiro injection
/// stream was retired, run with its opt-in counter-based injection
/// (`counter_injection = true`) and otherwise this file's configs, and
/// printed as hexfloats.  Every field is that capture verbatim except
/// `mean_switch_queue_depth`: the capture averaged per-cycle depth ratios
/// with a Welford stream, while the engines now report the exact ratio
/// (sum of per-cycle switch depths) / (switch channels × measured
/// cycles).  Each pinned depth is that exact ratio, and lies within
/// 1e-12 (relative) of the captured Welford value.  Integer fields must
/// be equal, doubles bit-identical, and quantiles in the same histogram
/// bucket (bucket width is 1 cycle at these run lengths, so "same
/// bucket" means exactly equal too).
///
/// Where ShardedSim accepts the same routing — the Theorem 3 table and
/// d-mod-k, each as a pure ShardRouter — it must produce the pinned
/// result too, at 1, 2 and 4 shards.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/fault_oracle.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/sharded.hpp"

namespace {

using namespace nbclos;
using namespace nbclos::sim;

struct Golden {
  double offered_load;
  double accepted_throughput;
  double mean_latency;
  double p99_latency;
  std::uint64_t injected_packets;
  std::uint64_t delivered_packets;
  std::uint64_t dropped_packets;
  double mean_switch_queue_depth;
  double min_flow_throughput;
  double max_flow_throughput;
};

SimConfig golden_config(double rate) {
  SimConfig c;
  c.injection_rate = rate;
  c.warmup_cycles = 500;
  c.measure_cycles = 3000;
  c.queue_capacity = 8;
  c.seed = 12345;
  return c;
}

void expect_matches(const SimResult& r, const Golden& g) {
  EXPECT_EQ(r.offered_load, g.offered_load);
  EXPECT_EQ(r.accepted_throughput, g.accepted_throughput);
  EXPECT_EQ(r.mean_latency, g.mean_latency);
  // 3500 total cycles < 4096 histogram buckets, so the bucket width is
  // one cycle and the streaming p99 must equal the old sort-based p99.
  EXPECT_EQ(r.latency_bucket_width, 1.0);
  EXPECT_EQ(r.p99_latency, g.p99_latency);
  EXPECT_EQ(r.injected_packets, g.injected_packets);
  EXPECT_EQ(r.delivered_packets, g.delivered_packets);
  EXPECT_EQ(r.dropped_packets, g.dropped_packets);
  EXPECT_EQ(r.mean_switch_queue_depth, g.mean_switch_queue_depth);
  EXPECT_EQ(r.min_flow_throughput, g.min_flow_throughput);
  EXPECT_EQ(r.max_flow_throughput, g.max_flow_throughput);
}

/// ShardedSim over the pure `router` must reproduce the pinned result at
/// 1, 2 and 4 shards.
void expect_sharded_matches(const Network& net, const ShardRouter& router,
                            const TrafficPattern& traffic,
                            const SimConfig& config, const Golden& g,
                            const fault::DegradedView* degraded = nullptr,
                            std::vector<fault::FaultEvent> events = {}) {
  for (const std::uint32_t shards : {1U, 2U, 4U}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedSim sim(net, router, traffic, config, shards, degraded, events);
    expect_matches(sim.run(), g);
  }
}

class GoldenSim : public ::testing::Test {
 protected:
  GoldenSim()
      : ft(FtreeParams{4, 16, 8}), net(build_network(ft)), yuan(ft),
        table(RoutingTable::materialize(yuan)),
        cache(routing::ChannelRouteCache::materialize(net, yuan)),
        traffic(TrafficPattern::permutation(
            shift_permutation(ft.leaf_count(), 5), ft.leaf_count())) {}

  FoldedClos ft;
  Network net;
  YuanNonblockingRouting yuan;
  RoutingTable table;
  routing::ChannelRouteCache cache;
  TrafficPattern traffic;
};

TEST_F(GoldenSim, TableRoutingLowLoad) {
  const Golden g{0x1.999999999999ap-4, 0x1.976c8b439581p-4, 0x1.4p+2,
                 0x1.4p+2, 11098, 11085, 0, 0x0p+0, 0x1.72015d867c3edp-4,
                 0x1.bbbbbbbbbbbbcp-4};
  FtreeOracle oracle(ft, UplinkPolicy::kTable, &table);
  PacketSim sim(net, oracle, traffic, golden_config(0.1));
  expect_matches(sim.run(), g);
  const CachedShardRouter router(cache);
  expect_sharded_matches(net, router, traffic, golden_config(0.1), g);
}

TEST_F(GoldenSim, RandomSpreadingHighLoad) {
  FtreeOracle oracle(ft, UplinkPolicy::kRandom, nullptr, 77);
  PacketSim sim(net, oracle, traffic, golden_config(0.7));
  expect_matches(sim.run(),
                 {0x1.6666666666666p-1, 0x1.679c54a692173p-1,
                  0x1.537a56ea7421ap+2, 0x1.cp+2, 78647, 78536, 0,
                  0x1.857af4b2b4fb8p-6, 0x1.5cd7b900aec34p-1,
                  0x1.6de8ca11bfd45p-1});
}

TEST_F(GoldenSim, DModKNearSaturation) {
  const Golden g{0x1.ccccccccccccdp-1, 0x1.ccff513cc1e0ap-1, 0x1.4p+2,
                 0x1.4p+2, 100870, 100734, 0, 0x0p+0, 0x1.c6508dfea2798p-1,
                 0x1.d44f3078263abp-1};
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  PacketSim sim(net, oracle, traffic, golden_config(0.9));
  expect_matches(sim.run(), g);
  const FtreeDmodkRouter router(ft);
  expect_sharded_matches(net, router, traffic, golden_config(0.9), g);
}

TEST_F(GoldenSim, FaultTolerantOracleWithMidRunEvents) {
  fault::DegradedView view(net);
  fault::FaultTolerantOracle oracle(ft, view, UplinkPolicy::kTable, &table);
  std::vector<fault::FaultEvent> events{
      {600, fault::FaultAction::kFailChannel,
       ft.up_link(BottomId{0}, TopId{3}).value},
      {600, fault::FaultAction::kFailChannel,
       ft.down_link(TopId{3}, BottomId{0}).value},
      {1200, fault::FaultAction::kFailVertex, 32 + 8 + 5},  // a top switch
      {2000, fault::FaultAction::kRecoverChannel,
       ft.up_link(BottomId{0}, TopId{3}).value},
  };
  PacketSim sim(net, oracle, traffic, golden_config(0.5), &view, events);
  expect_matches(sim.run(),
                 {0x1p-1, 0x1.0019f0fb38a95p-1, 0x1.4p+2, 0x1.4p+2, 55960,
                  55885, 0, 0x0p+0, 0x1.e81b4e81b4e82p-2,
                  0x1.0d4fdf3b645a2p-1});
}

TEST_F(GoldenSim, FaultObliviousOracleDropsAndPurges) {
  // Fault-oblivious routing + mid-run channel/switch death at high load:
  // exercises the drop-on-dead-pick and queue-purge paths.
  fault::DegradedView view(net);
  FtreeOracle oracle(ft, UplinkPolicy::kDModK);
  std::vector<fault::FaultEvent> events{
      {700, fault::FaultAction::kFailChannel,
       ft.up_link(BottomId{2}, TopId{1}).value},
      {900, fault::FaultAction::kFailVertex, 32 + 3},  // a bottom switch
      {1800, fault::FaultAction::kRecoverVertex, 32 + 3},
  };
  const Golden g{0x1.ccccccccccccdp-1, 0x1.aa3c131d5acb7p-1, 0x1.4p+2,
                 0x1.4p+2, 100870, 94216, 6518, 0x0p+0, 0x1.3c3ece2a53491p-1,
                 0x1.d0624dd2f1aap-1};
  const fault::DegradedView pristine = view;
  PacketSim sim(net, oracle, traffic, golden_config(0.9), &view, events);
  expect_matches(sim.run(), g);
  const FtreeDmodkRouter router(ft);
  expect_sharded_matches(net, router, traffic, golden_config(0.9), g,
                         &pristine, events);
}

TEST_F(GoldenSim, LeastQueueMultiFlitPackets) {
  auto c = golden_config(0.6);
  c.packet_size = 4;
  FtreeOracle oracle(ft, UplinkPolicy::kLeastQueue);
  PacketSim sim(net, oracle, traffic, c);
  expect_matches(sim.run(),
                 {0x1.3333333333333p-1, 0x1.323d70a3d70a4p-1,
                  0x1.fcdc223a1d25ap+4, 0x1p+6, 16727, 16572, 0,
                  0x1.ad1502ce77ff6p-3, 0x1.189374bc6a7fp-1,
                  0x1.4a6921735ee4p-1});
}

TEST(GoldenCrossbar, UniformTraffic) {
  const auto net = build_crossbar(8);
  CrossbarOracle oracle(8);
  const auto traffic = TrafficPattern::uniform(8);
  PacketSim sim(net, oracle, traffic, golden_config(0.5));
  expect_matches(sim.run(),
                 {0x1p-1, 0x1.fb596de8ca11cp-2, 0x1.b434f35db2d0fp+1,
                  0x1.8p+2, 13865, 13855, 0, 0x1.9dddddddddddep-3,
                  0x1.e872b020c49bap-2, 0x1.07ae147ae147bp-1});
}

/// Two runs of the same config must be identical — the simulator owns all
/// of its state, so nothing leaks between constructions.
TEST_F(GoldenSim, RepeatedRunsAreIdentical) {
  const auto run_once = [&] {
    FtreeOracle oracle(ft, UplinkPolicy::kRandom, nullptr, 9);
    PacketSim sim(net, oracle, traffic, golden_config(0.8));
    return sim.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.injected_packets, b.injected_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.mean_switch_queue_depth, b.mean_switch_queue_depth);
}

}  // namespace
