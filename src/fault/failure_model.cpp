#include "nbclos/fault/failure_model.hpp"

#include <algorithm>

#include "nbclos/util/prng.hpp"

namespace nbclos::fault {

void FailureModel::fail_channel(std::uint32_t channel, std::uint64_t cycle) {
  NBCLOS_REQUIRE(channel < net_->channel_count(), "channel id out of range");
  events_.push_back({cycle, FaultAction::kFailChannel, channel});
}

void FailureModel::recover_channel(std::uint32_t channel, std::uint64_t cycle) {
  NBCLOS_REQUIRE(channel < net_->channel_count(), "channel id out of range");
  events_.push_back({cycle, FaultAction::kRecoverChannel, channel});
}

void FailureModel::fail_vertex(std::uint32_t vertex, std::uint64_t cycle) {
  NBCLOS_REQUIRE(vertex < net_->vertex_count(), "vertex id out of range");
  events_.push_back({cycle, FaultAction::kFailVertex, vertex});
}

void FailureModel::recover_vertex(std::uint32_t vertex, std::uint64_t cycle) {
  NBCLOS_REQUIRE(vertex < net_->vertex_count(), "vertex id out of range");
  events_.push_back({cycle, FaultAction::kRecoverVertex, vertex});
}

void FailureModel::require_ftree_net(const FoldedClos& ftree) const {
  NBCLOS_REQUIRE(
      net_->channel_count() == ftree.link_count() &&
          net_->vertex_count() == ftree.leaf_count() + ftree.switch_count(),
      "network does not match this ftree (must come from build_network)");
}

void FailureModel::fail_uplink_pair(const FoldedClos& ftree, BottomId b,
                                    TopId t, std::uint64_t cycle) {
  require_ftree_net(ftree);
  fail_channel(ftree.up_link(b, t).value, cycle);
  fail_channel(ftree.down_link(t, b).value, cycle);
}

void FailureModel::fail_top_switch(const FoldedClos& ftree, TopId t,
                                   std::uint64_t cycle) {
  require_ftree_net(ftree);
  NBCLOS_REQUIRE(t.value < ftree.top_count(), "top switch id out of range");
  fail_vertex(FtreeNetworkMap{ftree.params()}.top(t), cycle);
}

std::vector<std::pair<BottomId, TopId>> FailureModel::shuffled_uplink_pairs(
    const FoldedClos& ftree, std::uint64_t seed) {
  std::vector<std::pair<BottomId, TopId>> pairs;
  pairs.reserve(std::size_t{ftree.r()} * ftree.m());
  for (std::uint32_t b = 0; b < ftree.r(); ++b) {
    for (std::uint32_t t = 0; t < ftree.m(); ++t) {
      pairs.emplace_back(BottomId{b}, TopId{t});
    }
  }
  Xoshiro256 rng(seed);
  shuffle(pairs.begin(), pairs.end(), rng);
  return pairs;
}

void FailureModel::inject_random_uplink_failures(const FoldedClos& ftree,
                                                 std::uint32_t count,
                                                 std::uint64_t seed,
                                                 std::uint64_t cycle) {
  require_ftree_net(ftree);
  const auto pairs = shuffled_uplink_pairs(ftree, seed);
  NBCLOS_REQUIRE(count <= pairs.size(),
                 "cannot fail more uplink pairs than the ftree has");
  for (std::uint32_t i = 0; i < count; ++i) {
    fail_uplink_pair(ftree, pairs[i].first, pairs[i].second, cycle);
  }
}

std::vector<FaultEvent> FailureModel::schedule() const {
  auto sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  return sorted;
}

void FailureModel::apply_up_to(DegradedView& view, std::uint64_t cycle) const {
  NBCLOS_REQUIRE(&view.network() == net_,
                 "view was built over a different network");
  for (const auto& event : schedule()) {
    if (event.cycle > cycle) break;
    view.apply(event);
  }
}

}  // namespace nbclos::fault
