#include "nbclos/sim/shard_exchange.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace nbclos::sim {

namespace {

/// Parse a sysfs cpulist ("0-3,8,10-11") into cpu ids.  Malformed input
/// yields an empty list (callers fall back to the flat topology).
std::vector<std::uint32_t> parse_cpulist(const std::string& text) {
  std::vector<std::uint32_t> cpus;
  std::stringstream stream(text);
  std::string range;
  while (std::getline(stream, range, ',')) {
    if (range.empty()) continue;
    const auto dash = range.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(static_cast<std::uint32_t>(std::stoul(range)));
      } else {
        const auto lo =
            static_cast<std::uint32_t>(std::stoul(range.substr(0, dash)));
        const auto hi =
            static_cast<std::uint32_t>(std::stoul(range.substr(dash + 1)));
        for (std::uint32_t c = lo; c <= hi && c - lo < 4096; ++c) {
          cpus.push_back(c);
        }
      }
    } catch (...) {
      return {};
    }
  }
  return cpus;
}

}  // namespace

ShardPlan ShardPlan::build(const Network& net, std::uint32_t shards) {
  NBCLOS_REQUIRE(net.finalized(), "network must be finalized");
  NBCLOS_REQUIRE(shards >= 1, "shard count must be >= 1");
  ShardPlan plan;
  const std::uint32_t vertices = net.vertex_count();
  plan.shard_count =
      std::min({shards, kMaxShards, std::max<std::uint32_t>(vertices, 1)});

  // Balance by out-channel counts: a shard's arena holds queue, flight,
  // and arbitration state per owned channel, so cutting the contiguous
  // vertex range at equal out-channel prefix shares balances memory and
  // per-cycle work together.
  std::vector<std::uint64_t> prefix(vertices + 1, 0);
  for (std::uint32_t v = 0; v < vertices; ++v) {
    prefix[v + 1] = prefix[v] + net.out_channels(v).size();
  }
  plan.vertex_begin.reserve(plan.shard_count + 1);
  plan.vertex_begin.push_back(0);
  for (std::uint32_t s = 1; s < plan.shard_count; ++s) {
    const std::uint64_t target =
        prefix[vertices] * s / plan.shard_count;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    plan.vertex_begin.push_back(
        static_cast<std::uint32_t>(it - prefix.begin()));
  }
  plan.vertex_begin.push_back(vertices);

  std::vector<std::uint8_t> vertex_owner(vertices, 0);
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    for (std::uint32_t v = plan.vertex_begin[s]; v < plan.vertex_begin[s + 1];
         ++v) {
      vertex_owner[v] = static_cast<std::uint8_t>(s);
    }
  }
  const std::uint32_t channels = net.channel_count();
  plan.channel_owner.resize(channels);
  plan.channel_local.resize(channels);
  plan.shard_channels.resize(plan.shard_count);
  for (std::uint32_t c = 0; c < channels; ++c) {
    const auto owner = vertex_owner[net.channel_src(c)];
    plan.channel_owner[c] = owner;
    plan.channel_local[c] =
        static_cast<std::uint32_t>(plan.shard_channels[owner].size());
    plan.shard_channels[owner].push_back(c);
  }
  return plan;
}

NumaTopology NumaTopology::detect() {
  NumaTopology topo;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<std::uint32_t> available;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (std::uint32_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) available.push_back(c);
    }
  }
  if (available.empty()) available.push_back(0);
  const std::uint32_t max_cpu = available.back();
  topo.cpu_count = static_cast<std::uint32_t>(available.size());
  topo.node_of_cpu.assign(max_cpu + 1, 0);

  std::uint32_t nodes_seen = 0;
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::ifstream file("/sys/devices/system/node/node" + std::to_string(n) +
                       "/cpulist");
    if (!file.is_open()) break;
    std::string line;
    std::getline(file, line);
    for (const auto cpu : parse_cpulist(line)) {
      if (cpu < topo.node_of_cpu.size()) topo.node_of_cpu[cpu] = n;
    }
    ++nodes_seen;
  }
  topo.node_count = std::max<std::uint32_t>(nodes_seen, 1);

  // Pin order: available cpus, node-major, cpu ids ascending within a
  // node — shard s pins to pin_order[s % size], spreading consecutive
  // shards across a node's cpus before spilling to the next node.
  topo.pin_order = available;
  std::stable_sort(topo.pin_order.begin(), topo.pin_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return topo.node_of_cpu[a] < topo.node_of_cpu[b];
                   });
#else
  topo.node_of_cpu.assign(1, 0);
  topo.pin_order.assign(1, 0);
#endif
  return topo;
}

bool pin_current_thread(std::uint32_t cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % CPU_SETSIZE, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

std::uint32_t current_numa_node(const NumaTopology& topo) {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0 && static_cast<std::size_t>(cpu) < topo.node_of_cpu.size()) {
    return topo.node_of_cpu[static_cast<std::size_t>(cpu)];
  }
#else
  (void)topo;
#endif
  return 0;
}

}  // namespace nbclos::sim
