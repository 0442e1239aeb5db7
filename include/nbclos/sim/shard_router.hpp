/// \file shard_router.hpp
/// \brief The library's one pure next-hop interface: (vertex, packet) ->
///        outgoing channel, with no state, RNG or queue view.
///
/// Every deterministic single-path routing runs through a `ShardRouter`.
/// The sharded engines consult it concurrently from every shard worker,
/// the flow engines through `flow::RouteSource`, and `PacketSim` through
/// `ShardRouterOracle`.  Because the decision is a pure function of
/// (vertex, packet), a distributed run can be bit-identical to a serial
/// one; the random, least-queue and fault-tolerant `RoutingOracle`
/// policies read queue state and stay outside this interface by design.
/// Three arithmetic implementations hold no per-pair state, and one
/// replays a table:
///
///   * `KaryDmodkRouter`  — O(1) digit arithmetic on `build_kary_ntree`
///     networks, reproducing `KaryTreeRouter::route` paths without
///     materializing any table (the per-pair `ChannelRouteCache` is
///     O(T^2) and simply cannot exist at 10^6 terminals);
///   * `FtreeDmodkRouter` — O(1) index arithmetic on `build_network`
///     ftree fabrics (d-mod-k uplinks, forced descent), the paths of
///     `DModKRouting`;
///   * `RecursiveShardRouter` — the recursive Theorem 3 rule of a
///     `MultiLevelFabric`, re-derived per hop;
///   * `CachedShardRouter` — replays any deterministic single-path
///     routing from a shared read-only `ChannelRouteCache`, optionally
///     through per-shard CSR views for arena locality.
///
/// `ShardRouterOracle` adapts any ShardRouter to the `RoutingOracle`
/// interface so `PacketSim` can run the *identical* policy — that is how
/// the golden tests prove `ShardedSim(k) == PacketSim` bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nbclos/core/multilevel.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/sim/oracle.hpp"
#include "nbclos/sim/packet.hpp"
#include "nbclos/topology/network.hpp"

namespace nbclos::sim {

/// Pure next-hop interface: must be const, deterministic, and safe to
/// call from any number of threads concurrently.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Outgoing channel for `packet` at `vertex` (a terminal source or a
  /// switch), or fault::kNoRoute when the policy has no next hop.
  [[nodiscard]] virtual std::uint32_t next_channel(
      std::uint32_t vertex, const Packet& packet) const = 0;
  /// Resident bytes of routing state; arithmetic routers hold none.
  [[nodiscard]] virtual std::size_t bytes() const { return 0; }
};

/// Destination-keyed up*/down* routing on `build_kary_ntree(k, h)`
/// networks in O(1) per hop, with zero per-pair state.
///
/// The builder's channel numbering is formulaic — terminal p's uplink is
/// channel 2p and its downlink 2p+1; the up channel from switch (l, w)
/// toward digit d is B + 2*((l*P + w)*k + d) with B = 2*k^h and
/// P = k^(h-1), and the matching down channel is its successor — so the
/// next hop is pure digit arithmetic.  Ascent at level l rewrites digit
/// l to the destination's digit (the k-ary analogue of d-mod-k: the
/// uplink choice is keyed by the destination, spreading flows across the
/// tree deterministically); a switch descends exactly when the
/// destination's edge switch lies in its subtree, i.e. all digits >= its
/// level agree.  The resulting paths are exactly
/// `KaryTreeRouter::route`'s (verified by tests/sim/test_shard_router).
class KaryDmodkRouter final : public ShardRouter {
 public:
  /// \param net must have been produced by build_kary_ntree(k, h); the
  ///        constructor checks the vertex/channel census.
  KaryDmodkRouter(const Network& net, std::uint32_t k, std::uint32_t h);

  [[nodiscard]] std::string name() const override { return "kary-dmodk"; }
  [[nodiscard]] std::uint32_t next_channel(
      std::uint32_t vertex, const Packet& packet) const override;

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t height() const noexcept { return h_; }

 private:
  std::uint32_t k_ = 0;
  std::uint32_t h_ = 0;
  std::uint32_t terminals_ = 0;      ///< k^h
  std::uint32_t per_level_ = 0;      ///< k^(h-1)
  std::uint32_t inter_base_ = 0;     ///< first inter-switch channel id (2T)
  std::vector<std::uint64_t> powk_;  ///< k^0 .. k^(h-1)
};

/// d-mod-k on `build_network(FoldedClos)` fabrics in O(1) per hop: the
/// uplink at a bottom switch is `dst mod m`, descent is forced.  Same
/// paths as FtreeOracle's kDModK policy, without its decision counter
/// (which would be a data race across shards).
class FtreeDmodkRouter final : public ShardRouter {
 public:
  explicit FtreeDmodkRouter(const FoldedClos& ftree)
      : ftree_(&ftree), map_{ftree.params()} {}

  [[nodiscard]] std::string name() const override { return "ftree-dmodk"; }
  [[nodiscard]] std::uint32_t next_channel(
      std::uint32_t vertex, const Packet& packet) const override;

 private:
  const FoldedClos* ftree_;
  FtreeNetworkMap map_;
};

/// The recursive Theorem 3 (i, j) rule on a `MultiLevelFabric`, as a
/// pure router: each hop re-derives the fabric's fixed single path for
/// the packet's SD pair and returns the path channel leaving `vertex`.
/// Deriving the path is O(levels) digit recursion with no shared state,
/// so the router is safe from every shard worker — and, unlike a
/// materialized `ChannelRouteCache`, needs no O(T^2) table.  The leaf
/// index space of the fabric IS its terminal vertex id space (leaves are
/// vertices 0..P-1), so packets address it directly.
class RecursiveShardRouter final : public ShardRouter {
 public:
  /// \param fabric must outlive the router; its network must be the one
  ///        the simulation runs on.
  explicit RecursiveShardRouter(const MultiLevelFabric& fabric);

  [[nodiscard]] std::string name() const override {
    return "multilevel-thm3";
  }
  [[nodiscard]] std::uint32_t next_channel(
      std::uint32_t vertex, const Packet& packet) const override;

 private:
  const MultiLevelFabric* fabric_;
  const Network* net_;
};

/// Replays a deterministic routing from a shared `ChannelRouteCache`.
/// With per-shard views attached (see `attach_views`), each lookup is
/// answered from the CSR slice owned by the vertex's shard — the arrays
/// a worker touches are the ones sized for (and reported by) its
/// `route_cache.shard.N.bytes` gauge.
class CachedShardRouter final : public ShardRouter {
 public:
  explicit CachedShardRouter(const routing::ChannelRouteCache& cache)
      : cache_(&cache) {}

  /// Build per-shard CSR views over the vertex partition
  /// (`vertex_begin` has shard_count+1 entries).  Lookups for a vertex
  /// then go through the view of the shard owning that vertex.
  void attach_views(std::span<const std::uint32_t> vertex_begin);

  [[nodiscard]] std::string name() const override { return "route-cache"; }
  [[nodiscard]] std::uint32_t next_channel(
      std::uint32_t vertex, const Packet& packet) const override;
  /// The table's bytes plus those of any attached views.
  [[nodiscard]] std::size_t bytes() const override;

  [[nodiscard]] const std::vector<routing::ShardRouteView>& views() const {
    return views_;
  }

 private:
  const routing::ChannelRouteCache* cache_;
  std::vector<routing::ShardRouteView> views_;
  std::vector<std::uint32_t> vertex_begin_;  ///< partition, when views exist
};

/// RoutingOracle adapter: lets PacketSim run the exact policy a
/// ShardedSim run uses, for golden cross-engine comparisons.
class ShardRouterOracle final : public RoutingOracle {
 public:
  explicit ShardRouterOracle(const ShardRouter& router) : router_(&router) {}

  [[nodiscard]] std::string name() const override { return router_->name(); }
  [[nodiscard]] std::uint32_t next_channel(const SimView& /*view*/,
                                           std::uint32_t vertex,
                                           const Packet& packet) override {
    return router_->next_channel(vertex, packet);
  }

 private:
  const ShardRouter* router_;
};

}  // namespace nbclos::sim
