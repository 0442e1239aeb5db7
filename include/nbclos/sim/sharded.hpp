/// \file sharded.hpp
/// \brief Switch-partitioned packet simulation with epoch-synchronized
///        channel exchange.
///
/// `ShardedSim` splits a `PacketSim`-equivalent cycle simulation across S
/// shard workers.  Switches (and the per-channel queue rings behind them)
/// are partitioned into per-shard arenas by a deterministic, contiguous,
/// out-channel-balanced vertex cut (`ShardPlan`); every channel is owned
/// by the shard of its SOURCE vertex, so a queue, its in-flight register,
/// and its round-robin arbitration state all live in exactly one shard's
/// arena and are never touched by another worker.
///
/// Per cycle, each shard runs three phases separated by two
/// `std::barrier` epochs (the Graphite phase-exchange idiom):
///
///   A. faults + arrivals: deliver terminal-bound packets, route the
///      rest (pure `ShardRouter` — no shared state), and emit an
///      admission *proposal* per candidate to the owner of the chosen
///      next channel: a local list when the owner is this shard, else a
///      per-(src, dst)-shard SPSC mailbox;
///   -- barrier 1 (every proposal is visible to its target's owner) --
///   B. admission: merge local + mailbox proposals (each run arrives
///      ascending by proposing channel) and offer them in that order to
///      the per-queue round-robin arbitration PacketSim uses
///      (`RoundRobinAdmission`); winners enter the target queue, and
///      every proposer gets an accept/reject *ack* (local or via the
///      reverse mailboxes);
///   -- barrier 2 (every ack is visible to its proposer's owner) --
///   C. resolve acks (losers stall on their channel, exactly
///      PacketSim's backpressure), start transmissions, inject new
///      packets with the counter-based RNG (injection_rng.hpp), and
///      add this cycle's switch-queue depth sum to the shard's total.
///
/// Mailbox safety needs no third barrier: a proposal box written in
/// A(n) is drained by its reader in B(n), which happens-before the
/// writer's next write in A(n+1) via barrier 2 of cycle n; an ack box
/// written in B(n) is drained in C(n), which happens-before the next
/// write in B(n+1) via barrier 1 of cycle n+1.
///
/// Determinism contract: because the cut is deterministic, active lists
/// are swept in ascending order (sorted prefix + merged tail; mailbox runs
/// arrive ascending), round-robin state transfers verbatim, and every
/// merged statistic is an exact integer sum divided once at the end, a
/// run is **bit-identical at any shard count** and bit-identical to
/// `PacketSim` run with the same `ShardRouter` (via
/// `ShardRouterOracle`).  The golden tests in tests/sim/test_sharded.cpp
/// assert every `SimResult` field with EXPECT_EQ.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/sim/engine.hpp"
#include "nbclos/sim/shard_exchange.hpp"
#include "nbclos/sim/shard_router.hpp"
#include "nbclos/sim/traffic.hpp"
#include "nbclos/topology/network.hpp"
#include "nbclos/util/stats.hpp"

namespace nbclos::sim {

class ShardedSim {
 public:
  /// Engine-health telemetry for one run (valid after run()).
  struct Telemetry {
    std::uint64_t cross_shard_flits = 0;  ///< flits proposed via mailboxes
    std::uint64_t mailbox_peak = 0;       ///< max proposals in one box drain
    /// Packets still in the system when the run ended (in flight or
    /// queued) — with injected/delivered/dropped this closes the
    /// conservation identity injected == delivered + dropped + remaining.
    std::uint64_t remaining_packets = 0;
  };

  /// All references must outlive the simulator.  Unlike PacketSim the
  /// router must be pure (see shard_router.hpp) and `degraded` is taken
  /// by const reference: every shard keeps a private copy and applies
  /// the same `fault_events` schedule at the same cycles, so the copies
  /// never diverge.  Injection uses the counter-based RNG, as in every
  /// engine.
  ShardedSim(const Network& net, const ShardRouter& router,
             const TrafficPattern& traffic, SimConfig config,
             std::uint32_t shards,
             const fault::DegradedView* degraded = nullptr,
             std::vector<fault::FaultEvent> fault_events = {});
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  /// Run warmup + measurement across all shard workers; returns the
  /// merged aggregate results (bit-identical at any shard count).
  [[nodiscard]] SimResult run();

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return plan_.shard_count;
  }
  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const Telemetry& telemetry() const noexcept {
    return telemetry_;
  }
  /// Flits transmitted per channel, gathered from the owning shards.
  /// Valid after run() (PacketSim::link_busy_flits parity).
  [[nodiscard]] const std::vector<std::uint64_t>& link_busy_flits() const {
    return merged_link_busy_;
  }

  /// Resident bytes of the per-shard simulation arenas (allocated queue
  /// ring slots, flight registers, per-channel state) — what the scale
  /// benches report as bytes/terminal.
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

  /// The per-epoch time-series recorder (inactive unless
  /// SimConfig::record_timeseries).  Every shard samples the same global
  /// cycles into its own ring slot; merged() aggregates by exact integer
  /// sum/max, and the kInvariant series are bit-identical to a serial
  /// PacketSim recording at any shard count.  Valid after run().
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }

 private:
  struct Shard;
  struct Proposal {
    std::uint32_t target = 0;  ///< proposed next channel (global id)
    std::uint32_t from = 0;    ///< proposing channel (global id)
    Packet packet;
  };
  struct Ack {
    std::uint32_t from = 0;  ///< proposing channel (global id)
    bool accepted = false;
  };

  void run_shard(std::uint32_t s);
  void init_shard_arena(std::uint32_t s);  ///< called on the worker thread
  void cycle_faults(Shard& sh, std::uint64_t now);
  void phase_propose(Shard& sh, std::uint64_t now, bool measuring);
  void phase_admit(Shard& sh);
  void phase_resolve(Shard& sh, std::uint64_t now);
  void deliver(Shard& sh, const Packet& packet, std::uint64_t now,
               bool measuring);
  void queue_push(Shard& sh, std::uint32_t channel, const Packet& packet);
  [[nodiscard]] Packet queue_pop(Shard& sh, std::uint32_t channel);
  void send_ack(Shard& sh, std::uint32_t from, bool accepted);
  [[nodiscard]] bool channel_usable(const Shard& sh,
                                    std::uint32_t channel) const;
  [[nodiscard]] SimResult merge_results();
  void flush_obs(double wall_seconds);
  void arm_recorder();
  void sample_recorder(Shard& sh, std::uint64_t now);

  const Network* net_;
  const ShardRouter* router_;
  const TrafficPattern* traffic_;
  SimConfig config_;
  std::vector<fault::FaultEvent> fault_events_;  ///< sorted by cycle
  const fault::DegradedView* degraded_ = nullptr;  ///< copied per shard
  ShardPlan plan_;
  std::uint32_t terminal_count_ = 0;
  double packet_rate_ = 0.0;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// SPSC mailboxes (shard_exchange.hpp): written in disjoint epoch
  /// windows — proposals downstream in phase A, acks upstream in B.
  MailboxGrid<Proposal> proposal_box_;
  MailboxGrid<Ack> ack_box_;

  std::unique_ptr<ShardSync> sync_;
  NumaTopology numa_;
  Telemetry telemetry_;
  std::vector<std::uint64_t> merged_link_busy_;
  obs::FlightRecorder recorder_;
  obs::FlightRecorder::SeriesId rec_queue_depth_ = 0;
  obs::FlightRecorder::SeriesId rec_active_flying_ = 0;
  obs::FlightRecorder::SeriesId rec_active_sendable_ = 0;
  obs::FlightRecorder::SeriesId rec_busy_flits_ = 0;
  obs::FlightRecorder::SeriesId rec_injected_ = 0;
  obs::FlightRecorder::SeriesId rec_delivered_ = 0;
  obs::FlightRecorder::SeriesId rec_mailbox_flits_ = 0;
  obs::FlightRecorder::SeriesId rec_mailbox_peak_ = 0;
  bool ran_ = false;
};

/// Sweep injection rates through ShardedSim — the sharded counterpart of
/// the serial load_sweep driver.  Each probe constructs a fresh engine
/// (private degraded copies per shard), so results are independent of
/// probe order and identical at any shard count.
[[nodiscard]] std::vector<SimResult> load_sweep_sharded(
    const Network& net, const ShardRouter& router,
    const TrafficPattern& traffic, const SimConfig& base,
    const std::vector<double>& rates, std::uint32_t shards,
    const fault::DegradedView* degraded = nullptr,
    const std::vector<fault::FaultEvent>& fault_events = {});

}  // namespace nbclos::sim
