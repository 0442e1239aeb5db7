#include "nbclos/sim/shard_router.hpp"

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::sim {

KaryDmodkRouter::KaryDmodkRouter(const Network& net, std::uint32_t k,
                                 std::uint32_t h)
    : k_(k), h_(h) {
  NBCLOS_REQUIRE(k >= 2 && h >= 1, "k-ary n-tree needs k >= 2, h >= 1");
  std::uint64_t terminals = 1;
  powk_.reserve(h);
  for (std::uint32_t i = 0; i < h; ++i) {
    powk_.push_back(i == 0 ? 1 : powk_.back() * k);
    terminals *= k;
  }
  NBCLOS_REQUIRE(terminals <= UINT32_MAX, "tree too large");
  terminals_ = static_cast<std::uint32_t>(terminals);
  per_level_ = static_cast<std::uint32_t>(terminals / k);
  inter_base_ = 2 * terminals_;
  // The O(1) channel formulas assume build_kary_ntree's exact numbering;
  // verify the census so a mismatched network fails loudly up front.
  NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
  NBCLOS_REQUIRE(
      net.vertex_count() == terminals_ + std::uint64_t{h} * per_level_,
      "network is not build_kary_ntree(k, h): vertex count mismatch");
  const std::uint64_t expected_channels =
      2 * std::uint64_t{terminals_} +
      (h >= 2 ? 2 * std::uint64_t{h - 1} * per_level_ * k : 0);
  NBCLOS_REQUIRE(net.channel_count() == expected_channels,
                 "network is not build_kary_ntree(k, h): channel count "
                 "mismatch");
}

std::uint32_t KaryDmodkRouter::next_channel(std::uint32_t vertex,
                                            const Packet& packet) const {
  // Terminal source: the only output is its uplink, channel 2*vertex.
  if (vertex < terminals_) return 2 * vertex;

  const std::uint32_t dst = packet.dst_terminal;
  const std::uint32_t wd = dst / k_;  // destination edge-switch position
  const std::uint32_t idx = vertex - terminals_;
  const std::uint32_t level = idx / per_level_;
  const std::uint32_t w = idx % per_level_;

  const auto digit = [&](std::uint32_t value, std::uint32_t i) {
    return static_cast<std::uint32_t>((value / powk_[i]) % k_);
  };

  // Descend exactly when the destination's edge switch is reachable
  // below: all position digits >= level agree with wd's.
  const bool descend =
      level == 0 ? w == wd : w / powk_[level] == wd / powk_[level];
  if (descend) {
    if (level == 0) return 2 * dst + 1;  // edge switch -> terminal downlink
    // Down to (level-1, w with digit level-1 := wd's); the down channel
    // paired with up digit d carries d = our digit level-1.
    const std::uint32_t d = digit(w, level - 1);
    const std::uint32_t w_low =
        w + (digit(wd, level - 1) - d) * static_cast<std::uint32_t>(
                                             powk_[level - 1]);
    return inter_base_ +
           2 * (((level - 1) * per_level_ + w_low) * k_ + d) + 1;
  }
  // Ascend, keying digit `level` to the destination's digit — the k-ary
  // analogue of d-mod-k, and exactly KaryTreeRouter::route's ascent.
  const std::uint32_t d = digit(wd, level);
  return inter_base_ + 2 * ((level * per_level_ + w) * k_ + d);
}

std::uint32_t FtreeDmodkRouter::next_channel(std::uint32_t vertex,
                                             const Packet& packet) const {
  const auto& ft = *ftree_;
  const LeafId dst{packet.dst_terminal};
  if (map_.is_terminal(vertex)) {
    return ft.leaf_up_link(LeafId{vertex}).value;
  }
  if (map_.is_top(vertex)) {
    return ft.down_link(map_.top_of(vertex), ft.switch_of(dst)).value;
  }
  const BottomId here = map_.bottom_of(vertex);
  if (ft.switch_of(dst) == here) return ft.leaf_down_link(dst).value;
  return ft.up_link(here, TopId{dst.value % ft.m()}).value;
}

RecursiveShardRouter::RecursiveShardRouter(const MultiLevelFabric& fabric)
    : fabric_(&fabric), net_(&fabric.network()) {
  NBCLOS_REQUIRE(net_->finalized(), "fabric network must be finalized");
}

std::uint32_t RecursiveShardRouter::next_channel(std::uint32_t vertex,
                                                 const Packet& packet) const {
  if (packet.src_terminal == packet.dst_terminal) return fault::kNoRoute;
  // The Theorem 3 path is fixed per SD pair; every vertex appears on it
  // at most once, so at most one path channel leaves `vertex`.
  const auto path = fabric_->route(
      {LeafId{packet.src_terminal}, LeafId{packet.dst_terminal}});
  for (const auto c : path) {
    if (net_->channel_src(c) == vertex) return c;
  }
  return fault::kNoRoute;
}

void CachedShardRouter::attach_views(
    std::span<const std::uint32_t> vertex_begin) {
  NBCLOS_REQUIRE(vertex_begin.size() >= 2, "partition needs >= 1 shard");
  views_.clear();
  vertex_begin_.assign(vertex_begin.begin(), vertex_begin.end());
  const auto shards = static_cast<std::uint32_t>(vertex_begin.size() - 1);
  views_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    views_.emplace_back(*cache_, vertex_begin, s);
  }
}

std::size_t CachedShardRouter::bytes() const {
  std::size_t total = cache_->bytes();
  for (const auto& view : views_) total += view.bytes();
  return total;
}

std::uint32_t CachedShardRouter::next_channel(std::uint32_t vertex,
                                              const Packet& packet) const {
  if (views_.empty()) {
    return cache_->next_channel_from(vertex, packet.src_terminal,
                                     packet.dst_terminal);
  }
  // Owner of `vertex` in the contiguous partition: the last boundary <=
  // vertex.  The partition covers every vertex, so the search is total.
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(vertex_begin_.size()) - 1;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (vertex_begin_[mid] <= vertex) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return views_[lo].next_channel_from(vertex, packet.src_terminal,
                                      packet.dst_terminal);
}

}  // namespace nbclos::sim
