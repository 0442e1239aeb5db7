/// \file route_source.hpp
/// \brief The flow engines' route provider: a `sim::ShardRouter` plus the
///        network it routes on.
///
/// The flow engines only ever ask one question — "which channel does
/// this packet take out of `vertex`?" — and `sim::ShardRouter` is the
/// library's one pure answer to it: arithmetic routers (`KaryDmodkRouter`,
/// `FtreeDmodkRouter`, `RecursiveShardRouter`) hold no per-pair state, and
/// `CachedShardRouter` replays a materialized `ChannelRouteCache` table.
/// `RouteSource` pairs the router with its `Network` and, when built from
/// a table, keeps that table alive.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "nbclos/routing/route_cache.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::flow {

class RouteSource {
 public:
  /// Route on `net` with `router`, which must have been built for it.
  RouteSource(const Network& net,
              std::shared_ptr<const sim::ShardRouter> router)
      : net_(&net), router_(std::move(router)) {
    NBCLOS_REQUIRE(router_ != nullptr, "shard router must not be null");
  }

  /// Replay a materialized table through a `CachedShardRouter` with no
  /// per-shard views; the table is shared, never copied.
  explicit RouteSource(std::shared_ptr<const routing::ChannelRouteCache> cache)
      : net_(cache != nullptr ? &cache->network() : nullptr),
        cache_(std::move(cache)) {
    NBCLOS_REQUIRE(cache_ != nullptr, "route cache must not be null");
    router_ = std::make_shared<const sim::CachedShardRouter>(*cache_);
  }

  [[nodiscard]] const Network& network() const noexcept { return *net_; }
  /// Resident bytes of routing state (0 for arithmetic routers).
  [[nodiscard]] std::size_t bytes() const { return router_->bytes(); }
  [[nodiscard]] std::string label() const { return router_->name(); }
  [[nodiscard]] const sim::ShardRouter& router() const noexcept {
    return *router_;
  }

 private:
  const Network* net_;
  std::shared_ptr<const routing::ChannelRouteCache> cache_;  ///< owned table
  std::shared_ptr<const sim::ShardRouter> router_;
};

/// Names perfbench still spells; both are the one `RouteSource`.
using PureRouteSource = RouteSource;
using CacheRouteSource = RouteSource;

}  // namespace nbclos::flow
