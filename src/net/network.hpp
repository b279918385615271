// The continuous-time discrete-event network simulator.
//
// Every miner runs an independent exponential mining clock whose rate is
// weight_i / W * lanes_i / block_interval — competing exponential clocks
// make the winner of each "step" exactly the paper's (p, k)-mining model
// (§2.1), while per-link propagation delays and local chain views add the
// network realism the abstract model collapses into gamma. Blocks travel
// either directly origin-to-all with the topology's effective one-way
// delays (PropagationMode::kDirect) or store-and-forward along topology
// links with per-hop delays and per-node forwarding on first receipt
// (kGossip); either way a block is handed to an agent only once its
// parent is known there (out-of-order arrivals are parked, and a missing
// ancestor is pulled from the sender — one round trip per block), and
// duplicates are dropped. Timed partition windows on the topology cut
// edges between miner groups at send time; after a window heals the
// sides reconverge through the ancestor-fetch path.
//
// Beyond per-miner revenue the simulator measures the *effective gamma*:
// the fraction of attacker tie races whose next honest block extends the
// attacker's branch — the operational meaning of the paper's gamma
// parameter, here an emergent property of topology and tie policy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/miner.hpp"
#include "net/topology.hpp"

namespace net {

struct MinerSetup {
  std::unique_ptr<Miner> agent;
  double weight = 1.0;  ///< Relative hashrate (normalized internally).
  bool honest = true;   ///< Honest nodes anchor accounting & race stats.
};

/// How a published block travels the network.
enum class PropagationMode : std::uint8_t {
  /// The origin sends the block to every other node directly, paying the
  /// topology's effective (shortest-path) delay per destination — the
  /// idealized broadcast primitive of the original simulator.
  kDirect = 0,
  /// Store-and-forward: the origin sends only to its topology neighbors;
  /// each node, on *first* receipt of a block, forwards it along its own
  /// links (dedup drops later copies). Arrival times match kDirect on a
  /// static topology (the effective matrix is the shortest relay path),
  /// but hops interact with partitions — a relay path that crosses a cut
  /// edge at forward time is blocked — and relay traffic is measurable.
  kGossip = 1,
};

const char* to_string(PropagationMode mode);

/// Parses "direct" | "gossip" (throws support::InvalidArgument otherwise).
PropagationMode propagation_from_string(const std::string& name);

struct NetworkConfig {
  Topology topology;             ///< Must match the number of miners.
  PropagationMode propagation = PropagationMode::kDirect;
  double block_interval = 600.0; ///< Mean time between blocks at one lane
                                 ///< per unit weight (seconds).
  std::uint64_t blocks = 100'000;   ///< Mining events to simulate (incl.
                                    ///< blocks wasted on capped forks);
                                    ///< in-flight deliveries are drained
                                    ///< after the last one (no new blocks
                                    ///< are mined while draining).
  std::uint32_t warmup_heights = 100;  ///< Chain prefix excluded from
                                       ///< revenue accounting.
  int confirm_depth = 12;  ///< Contested suffix excluded from accounting.
  std::uint64_t seed = 1;  ///< Per-miner streams derive from this.
  /// Re-arm a miner's exponential clock on a delivery only when the
  /// delivery changed its live lane count (and hence its rate). Both
  /// modes sample the same process — re-drawing the remaining wait of an
  /// unchanged-rate exponential clock is distribution-preserving by
  /// memorylessness — but the lazy mode skips one RNG draw plus one
  /// heap push/pop per delivered block, which dominates event-loop cost
  /// at scale. Off = the original resample-after-every-event behavior,
  /// kept as the reference path test_net_clock pins the lazy clock
  /// against; no scenario or CLI flag turns it off.
  bool lazy_clock_reschedule = true;
  /// When > 0, a send dropped on a partition-cut edge is retried: the
  /// sender re-announces the block to the same destination at
  /// max(now + interval, heal time of the cutting windows). Each retry
  /// that lands inside a *later* split window reschedules past that
  /// window's end too, so announcements survive repeated overlapping
  /// splits instead of relying on a post-heal block to trigger the
  /// ancestor-fetch path. 0 (default) disables retries — existing runs
  /// stay bit-identical.
  double reannounce_interval = 0.0;
};

struct NetworkResult {
  std::uint64_t events = 0;       ///< Events processed (mine + arrivals).
  std::uint64_t mine_events = 0;  ///< Blocks found, including wasted ones.
  std::uint64_t arena_blocks = 0; ///< Blocks actually created (excl. genesis).
  double sim_time = 0.0;          ///< Clock at the last processed event.
  std::uint32_t tip_height = 0;   ///< Height of the final canonical tip.

  // Propagation accounting. `deliveries` counts first receipts (a block
  // handed to an agent), identical across propagation modes on a static
  // topology; the rest break down the transport overhead and are
  // mode-dependent (relays and duplicates exist only under gossip).
  std::uint64_t deliveries = 0;        ///< First receipts (any arrival kind).
  std::uint64_t relay_arrivals = 0;    ///< kRelay arrivals processed.
  std::uint64_t sync_arrivals = 0;     ///< kSync parent fetches delivered.
  std::uint64_t duplicate_arrivals = 0;///< Arrivals dropped as known.
  std::uint64_t cut_sends = 0;         ///< Sends dropped by partition cuts.
  std::uint64_t reannounce_events = 0; ///< Timer re-announces fired for
                                       ///< cut sends (reannounce_interval
                                       ///< > 0 only).
  /// Largest event-queue size observed while the run drained — how deep
  /// the in-flight backlog got (bursts after a partition heal dominate).
  std::uint64_t queue_high_water = 0;
  /// Largest (first receipt time - first broadcast time) over all first
  /// receipts: the worst end-to-end propagation of any published block.
  double worst_propagation = 0.0;

  /// Per-miner fork-choice tip when the run ended.
  std::vector<BlockId> final_tips;
  /// True when every *honest* miner ended on the same tip (attackers
  /// legitimately hold private leads) — the post-heal convergence
  /// criterion. Falls back to all miners when none is honest.
  bool converged = false;

  /// Canonical blocks per miner inside the accounting window
  /// (warmup_heights, tip_height - confirm_depth].
  std::vector<std::uint64_t> canonical;
  std::uint64_t counted = 0;  ///< Window length = sum of canonical.
  /// Mining events per miner (a proxy for work; includes wasted blocks).
  std::vector<std::uint64_t> mined;
  /// Proofs mined into capped forks and discarded, per miner (non-zero
  /// only for NaS multi-fork attackers).
  std::vector<std::uint64_t> wasted;

  // Attacker tie races (challenger block mined by a non-honest node
  // arriving at the height of an honest node's current tip).
  std::uint64_t races = 0;                 ///< Races started.
  std::uint64_t races_resolved = 0;        ///< Next honest block arrived.
  std::uint64_t races_challenger_won = 0;  ///< ... on the attacker branch.

  /// Share of the counted canonical window owned by `node`; 0 if empty.
  double share(NodeId node) const {
    return counted == 0 ? 0.0
                        : static_cast<double>(canonical[node]) /
                              static_cast<double>(counted);
  }

  /// Empirical gamma: challenger wins over resolved races; 0 if no races
  /// resolved.
  double effective_gamma() const {
    return races_resolved == 0
               ? 0.0
               : static_cast<double>(races_challenger_won) /
                     static_cast<double>(races_resolved);
  }

  /// Fraction of created blocks that did not end up on the canonical
  /// chain (whole run, warmup included); 0 when nothing was mined.
  double stale_rate() const {
    return arena_blocks == 0
               ? 0.0
               : 1.0 - static_cast<double>(tip_height) /
                           static_cast<double>(arena_blocks);
  }
};

/// Runs one network simulation to completion. Deterministic: the same
/// config and agents with the same seed produce the same event trace.
NetworkResult run_network(const NetworkConfig& config,
                          std::vector<MinerSetup> miners);

}  // namespace net
