#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/event.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace net {

namespace {

/// Simulator throughput metrics, registered at static init so a fresh
/// `metrics` scrape lists the net family before any run.
struct NetMetrics {
  obs::Counter& runs = obs::counter(
      "selfish_net_runs_total", "Network simulations completed");
  obs::Counter& events = obs::counter(
      "selfish_net_events_total", "Discrete events processed across runs");
  obs::Gauge& queue_high_water = obs::gauge(
      "selfish_net_queue_high_water",
      "Largest event-queue depth seen by any run (process high-water)");
  obs::Histogram& run_seconds = obs::histogram(
      "selfish_net_run_seconds", "Wall time of one network simulation",
      obs::exponential_buckets(1e-4, 4.0, 12));
};

NetMetrics& net_metrics() {
  static NetMetrics metrics;
  return metrics;
}

[[maybe_unused]] const NetMetrics& g_registered_net_metrics = net_metrics();

class Simulator {
 public:
  Simulator(const NetworkConfig& config, std::vector<MinerSetup> miners)
      : config_(config), miners_(std::move(miners)) {
    const std::size_t n = miners_.size();
    SM_REQUIRE(n >= 1, "network needs at least one miner");
    SM_REQUIRE(config_.topology.num_nodes() == n,
               "topology has ", config_.topology.num_nodes(),
               " nodes for ", n, " miners");
    SM_REQUIRE(config_.block_interval > 0.0, "block interval must be > 0");
    double total = 0.0;
    for (const MinerSetup& m : miners_) {
      SM_REQUIRE(m.agent != nullptr, "null miner agent");
      SM_REQUIRE(m.weight >= 0.0, "negative miner weight");
      total += m.weight;
    }
    SM_REQUIRE(total > 0.0, "total hashrate must be positive");
    total_weight_ = total;

    rngs_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      miners_[i].agent->attach(static_cast<NodeId>(i));
      rngs_.push_back(support::Rng::for_stream(config_.seed,
                                               static_cast<std::uint64_t>(i)));
    }
    generation_.assign(n, 0);
    armed_lanes_.assign(n, 0);
    known_.resize(n);
    orphans_.resize(n);
    sync_pending_.resize(n);
    result_.canonical.assign(n, 0);
    result_.mined.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) schedule_mining(static_cast<NodeId>(i));
  }

  NetworkResult run() {
    while (!queue_.empty() && result_.mine_events < config_.blocks) {
      note_queue_depth();
      const Event event = queue_.pop();
      if (event.kind == EventKind::kMine) {
        if (event.generation != generation_[event.node]) continue;  // stale
        now_ = event.time;
        ++result_.events;
        handle_mine(event.node);
      } else {
        process_arrival(event);
      }
      result_.sim_time = now_;
    }
    // Mining budget exhausted: drain the in-flight arrivals (discarding
    // pending mine events — no new blocks are found) so accounting and
    // convergence are measured on a quiesced network instead of whatever
    // the last mine event left mid-air. Terminates: arrivals spawn new
    // arrivals only for newly accepted blocks, relays happen once per
    // (node, block), and sync fetches walk finite ancestries.
    while (!queue_.empty()) {
      note_queue_depth();
      const Event event = queue_.pop();
      if (event.kind == EventKind::kMine) continue;
      process_arrival(event);
      result_.sim_time = now_;
    }
    finalize();
    return std::move(result_);
  }

 private:
  /// Samples the backlog at every pop: pushes only happen while handling
  /// the previous event, so the pre-pop size bounds the run's depth.
  /// Part of NetworkResult (a deterministic simulation statistic), not an
  /// obs-only quantity.
  void note_queue_depth() {
    const std::uint64_t depth = static_cast<std::uint64_t>(queue_.size());
    if (depth > result_.queue_high_water) result_.queue_high_water = depth;
  }

  void process_arrival(const Event& event) {
    now_ = event.time;
    ++result_.events;
    if (event.kind == EventKind::kRelay) ++result_.relay_arrivals;
    if (event.kind == EventKind::kSync) ++result_.sync_arrivals;
    handle_delivery(event.node, event.from, event.block);
  }

  // ------------------------------------------------------------- mining

  double rate_of(NodeId node) const {
    const double lanes =
        static_cast<double>(miners_[node].agent->lanes());
    return miners_[node].weight / total_weight_ * lanes /
           config_.block_interval;
  }

  /// (Re)arms `node`'s exponential clock from `now_`, invalidating any
  /// pending mine event. Thanks to memorylessness, re-drawing the
  /// remaining waiting time at any event is distribution-preserving, so
  /// rescheduling is always *correct*; maybe_reschedule decides when it
  /// is *necessary*.
  void schedule_mining(NodeId node) {
    ++generation_[node];
    armed_lanes_[node] = miners_[node].agent->lanes();
    const double rate = rate_of(node);
    if (rate <= 0.0) return;  // zero hashrate or no lanes: clock parked
    const double u = rngs_[node].next_double();
    const double wait = -std::log1p(-u) / rate;
    Event event;
    event.time = now_ + wait;
    event.kind = EventKind::kMine;
    event.node = node;
    event.generation = generation_[node];
    queue_.push(event);
  }

  void handle_mine(NodeId node) {
    ++result_.mine_events;
    ++result_.mined[node];
    const std::uint32_t lanes = miners_[node].agent->lanes();
    SM_ENSURE(lanes > 0, "mining event on a node with no lanes");
    const std::uint32_t lane =
        lanes == 1 ? 0
                   : static_cast<std::uint32_t>(rngs_[node].next_below(lanes));
    const std::size_t arena_before = arena_.size();
    outbox_.clear();
    MinerContext ctx{arena_, rngs_[node], now_, outbox_};
    miners_[node].agent->on_mined(lane, ctx);
    // Every block the agent minted is known to it (broadcast or withheld).
    for (std::size_t b = arena_before; b < arena_.size(); ++b) {
      mark_known(node, static_cast<BlockId>(b));
    }
    resolve_race(node, arena_before);
    broadcast(node);
    schedule_mining(node);
  }

  // ----------------------------------------------------------- delivery

  /// Fans the origin's outbox out to the network. Direct mode sends to
  /// every other node with the effective (shortest-path) delay; gossip
  /// mode sends only to the origin's topology neighbors with the per-hop
  /// link delay — the receivers forward on first receipt (relay()).
  void broadcast(NodeId from) {
    if (outbox_.empty()) return;
    for (const BlockId block : outbox_) {
      note_first_broadcast(block);
      if (config_.propagation == PropagationMode::kGossip) {
        for (const NodeId to : config_.topology.neighbors(from)) {
          send(EventKind::kDeliver, from, to, block,
               config_.topology.link_delay(from, to));
        }
      } else {
        for (NodeId to = 0; to < miners_.size(); ++to) {
          if (to == from) continue;
          send(EventKind::kDeliver, from, to, block,
               config_.topology.delay(from, to));
        }
      }
    }
    outbox_.clear();
  }

  /// Gossip forwarding: `node` just accepted `block` and forwards it
  /// along its own links (skipping the hop it came from — everyone else
  /// deduplicates on first receipt anyway, the skip only trims traffic).
  void relay(NodeId node, NodeId came_from, BlockId block) {
    for (const NodeId to : config_.topology.neighbors(node)) {
      if (to == came_from) continue;
      send(EventKind::kRelay, node, to, block,
           config_.topology.link_delay(node, to));
    }
  }

  /// Schedules one block arrival unless the edge is cut by an active
  /// partition window. Cuts apply at *send* time: a hop whose forward
  /// moment falls inside a split window is dropped, messages already in
  /// flight when a window opens still arrive. Returns whether the
  /// message was actually scheduled.
  bool send(EventKind kind, NodeId from, NodeId to, BlockId block,
            double delay) {
    if (config_.topology.cut(from, to, now_)) {
      ++result_.cut_sends;
      return false;
    }
    Event event;
    event.time = now_ + delay;
    event.kind = kind;
    event.node = to;
    event.from = from;
    event.block = block;
    queue_.push(event);
    return true;
  }

  bool knows(NodeId node, BlockId block) const {
    if (block == kGenesis) return true;
    if (arena_.get(block).miner == node) return true;
    const auto& flags = known_[node];
    return block < flags.size() && flags[block] != 0;
  }

  void mark_known(NodeId node, BlockId block) {
    auto& flags = known_[node];
    if (flags.size() <= block) flags.resize(arena_.size(), 0);
    flags[block] = 1;
  }

  void handle_delivery(NodeId node, NodeId from, BlockId block) {
    if (knows(node, block)) {
      ++result_.duplicate_arrivals;  // e.g. re-released or relayed copies
      return;
    }
    const BlockId parent = arena_.get(block).parent;
    if (!knows(node, parent)) {
      // Out-of-order arrival: park until the parent shows up, and pull
      // the missing ancestor from the sender (it accepted the block, so
      // it knows the whole ancestry). One round trip per block; if the
      // parent is itself an orphan here, its arrival re-enters this path
      // and fetches the next ancestor — recursive sync down to the first
      // common block. This is what lets partitioned sides reconverge
      // after a heal.
      auto& parked = orphans_[node][parent];
      if (std::find(parked.begin(), parked.end(), block) != parked.end()) {
        // Another relayed copy of an already-parked block (common right
        // after a heal, one copy per forwarding neighbor): its ancestor
        // fetch is already in flight — don't start a second sync storm.
        ++result_.duplicate_arrivals;
        return;
      }
      // One kSync round trip per missing parent, not per orphan child —
      // but only a fetch that was actually *scheduled* counts as in
      // flight: a fetch dropped on a partition-cut edge must leave the
      // retry path open, or the next child arriving after the heal could
      // never recover the parent and the sides would stay forked.
      parked.push_back(block);
      if (from != kNoNode && sync_pending_[node].count(parent) == 0 &&
          send(EventKind::kSync, from, node, parent,
               hop_delay(node, from) + hop_delay(from, node))) {
        sync_pending_[node].insert(parent);
      }
      return;
    }
    deliver_chain(node, from, block);
    maybe_reschedule(node);  // lane count may have changed
  }

  /// One-way delay used for sync round trips: the link delay between
  /// adjacent nodes under gossip, the effective delay otherwise (under
  /// gossip a sync partner is normally a neighbor; the effective delay
  /// covers the degenerate cases).
  double hop_delay(NodeId from, NodeId to) const {
    if (config_.propagation == PropagationMode::kGossip &&
        config_.topology.has_link(from, to)) {
      return config_.topology.link_delay(from, to);
    }
    return config_.topology.delay(from, to);
  }

  /// Post-delivery clock maintenance. Lazy mode re-arms only when the
  /// handled events changed the node's lane count (the pending event's
  /// waiting time stays valid while the rate is unchanged); legacy mode
  /// re-draws unconditionally.
  void maybe_reschedule(NodeId node) {
    if (config_.lazy_clock_reschedule &&
        miners_[node].agent->lanes() == armed_lanes_[node]) {
      return;
    }
    schedule_mining(node);
  }

  /// Delivers `block` and any parked descendants that became deliverable.
  /// `from` is the sender of the triggering arrival; unparked descendants
  /// lost their sender when parked (kNoNode — their relays skip no hop).
  void deliver_chain(NodeId node, NodeId from, BlockId block) {
    std::vector<std::pair<BlockId, NodeId>> pending{{block, from}};
    while (!pending.empty()) {
      const auto [next, sender] = pending.back();
      pending.pop_back();
      if (knows(node, next)) continue;  // parked twice via duplicate sends
      deliver_one(node, sender, next);
      auto& parked = orphans_[node];
      const auto it = parked.find(next);
      if (it != parked.end()) {
        // Reverse: the work stack pops from the back, and parked children
        // must be processed in arrival order.
        for (auto r = it->second.rbegin(); r != it->second.rend(); ++r) {
          pending.emplace_back(*r, kNoNode);
        }
        parked.erase(it);
      }
    }
  }

  void deliver_one(NodeId node, NodeId from, BlockId block) {
    ++result_.deliveries;
    sync_pending_[node].erase(block);  // the awaited ancestor arrived
    note_propagation(block);
    Miner& agent = *miners_[node].agent;
    const BlockId tip_before = agent.tip();
    detect_race(node, block, tip_before);
    outbox_.clear();
    MinerContext ctx{arena_, rngs_[node], now_, outbox_};
    const std::size_t arena_before = arena_.size();
    agent.on_block(block, ctx);
    // A delivery above the race height means the attacker published a
    // longer chain (an override in flight): the race was never settled by
    // the honest network's branch choice — drop the sample. Honest blocks
    // above the race height cannot reach here: they resolve the race at
    // their mine event, before broadcast.
    if (race_active_ && arena_.height(block) > race_height_) {
      race_active_ = false;
    }
    mark_known(node, block);
    for (std::size_t b = arena_before; b < arena_.size(); ++b) {
      mark_known(node, static_cast<BlockId>(b));
    }
    if (config_.propagation == PropagationMode::kGossip) {
      relay(node, from, block);
    }
    broadcast(node);
  }

  // ------------------------------------------------- propagation stats

  /// Records the moment a block first enters the transport (its release:
  /// mined-and-announced for honest blocks, publication for withheld
  /// attacker blocks).
  void note_first_broadcast(BlockId block) {
    if (first_sent_.size() < arena_.size()) {
      first_sent_.resize(arena_.size(), -1.0);
    }
    if (first_sent_[block] < 0.0) first_sent_[block] = now_;
  }

  void note_propagation(BlockId block) {
    if (block >= first_sent_.size() || first_sent_[block] < 0.0) return;
    const double age = now_ - first_sent_[block];
    if (age > result_.worst_propagation) result_.worst_propagation = age;
  }

  // -------------------------------------------------- effective gamma

  /// A tie race starts when an attacker-mined block reaches an honest
  /// node already holding a *sibling* tip (the classical tip-vs-tip
  /// race; deeper equal-length releases are overrides-in-flight, not
  /// races, and are excluded to keep the statistic comparable to gamma).
  void detect_race(NodeId node, BlockId block, BlockId tip_before) {
    if (!miners_[node].honest || race_active_) return;
    if (block == tip_before ||
        arena_.get(block).parent != arena_.get(tip_before).parent) {
      return;
    }
    const NodeId challenger_miner = arena_.get(block).miner;
    if (challenger_miner == kNoNode || miners_[challenger_miner].honest) {
      return;
    }
    race_active_ = true;
    race_height_ = arena_.height(block);
    race_challenger_ = block;
    ++result_.races;
  }

  /// The first block mined above the race height settles the measurement.
  /// Gamma is the share of *honest* power mining on the challenger during
  /// the race, so only an honest block resolves it: challenger point iff
  /// that block extends the challenger. An attacker block above the race
  /// height preempts the race instead (the attacker settled it by mining,
  /// not the honest network's branch choice) — the sample is discarded.
  void resolve_race(NodeId node, std::size_t arena_before) {
    if (!race_active_) return;
    for (std::size_t b = arena_before; b < arena_.size(); ++b) {
      const BlockId id = static_cast<BlockId>(b);
      if (arena_.height(id) <= race_height_) continue;
      race_active_ = false;
      if (!miners_[node].honest) return;  // preempted, not measured
      ++result_.races_resolved;
      if (arena_.ancestor_at(id, race_height_) == race_challenger_) {
        ++result_.races_challenger_won;
      }
      return;
    }
  }

  // --------------------------------------------------------- accounting

  void finalize() {
    // The canonical chain is the best tip the *honest* part of the
    // network holds (withheld attacker blocks are not canonical). Ties
    // break toward the smallest block id — deterministic and
    // first-created.
    BlockId best = kGenesis;
    bool any_honest = false;
    for (const MinerSetup& m : miners_) {
      if (!m.honest) continue;
      any_honest = true;
      best = better_tip(best, m.agent->tip());
    }
    if (!any_honest) {
      for (const MinerSetup& m : miners_) {
        best = better_tip(best, m.agent->tip());
      }
    }
    result_.tip_height = arena_.height(best);
    result_.arena_blocks = static_cast<std::uint64_t>(arena_.size()) - 1;
    for (const MinerSetup& m : miners_) {
      result_.wasted.push_back(m.agent->wasted_blocks());
      result_.final_tips.push_back(m.agent->tip());
    }
    // Convergence is an *honest*-network property: attackers expose
    // their private tips, which legitimately diverge. `any_honest` and
    // `best` already implement the same honest-first fallback.
    result_.converged = true;
    BlockId reference = best;
    bool reference_set = false;
    for (std::size_t i = 0; i < miners_.size(); ++i) {
      if (any_honest && !miners_[i].honest) continue;
      if (!reference_set) {
        reference = result_.final_tips[i];
        reference_set = true;
      } else if (result_.final_tips[i] != reference) {
        result_.converged = false;
      }
    }

    const std::uint32_t top =
        result_.tip_height >
                static_cast<std::uint32_t>(config_.confirm_depth)
            ? result_.tip_height -
                  static_cast<std::uint32_t>(config_.confirm_depth)
            : 0;
    BlockId cursor = best;
    while (arena_.height(cursor) > top) cursor = arena_.get(cursor).parent;
    while (arena_.height(cursor) > config_.warmup_heights) {
      const NodeId owner = arena_.get(cursor).miner;
      SM_ENSURE(owner != kNoNode, "counted block without a miner");
      ++result_.canonical[owner];
      ++result_.counted;
      cursor = arena_.get(cursor).parent;
    }
  }

  BlockId better_tip(BlockId a, BlockId b) const {
    if (arena_.height(a) != arena_.height(b)) {
      return arena_.height(a) > arena_.height(b) ? a : b;
    }
    return a < b ? a : b;
  }

  NetworkConfig config_;
  std::vector<MinerSetup> miners_;
  double total_weight_ = 0.0;

  BlockArena arena_;
  EventQueue queue_;
  double now_ = 0.0;
  std::vector<support::Rng> rngs_;
  std::vector<std::uint64_t> generation_;
  std::vector<std::uint32_t> armed_lanes_;  ///< Lanes when last armed.
  std::vector<std::vector<char>> known_;  ///< Per node, indexed by block.
  std::vector<std::unordered_map<BlockId, std::vector<BlockId>>> orphans_;
  /// Per node: parents with a scheduled (not cut) kSync fetch in flight.
  std::vector<std::unordered_set<BlockId>> sync_pending_;
  std::vector<BlockId> outbox_;
  std::vector<double> first_sent_;  ///< Block -> first broadcast time (-1
                                    ///< = never entered the transport).

  bool race_active_ = false;
  std::uint32_t race_height_ = 0;
  BlockId race_challenger_ = kGenesis;

  NetworkResult result_;
};

}  // namespace

const char* to_string(PropagationMode mode) {
  switch (mode) {
    case PropagationMode::kDirect: return "direct";
    case PropagationMode::kGossip: return "gossip";
  }
  return "?";
}

PropagationMode propagation_from_string(const std::string& name) {
  if (name == "direct") return PropagationMode::kDirect;
  if (name == "gossip") return PropagationMode::kGossip;
  throw support::InvalidArgument("unknown propagation mode: " + name +
                                 " (expected direct | gossip)");
}

NetworkResult run_network(const NetworkConfig& config,
                          std::vector<MinerSetup> miners) {
  obs::Span span("net.run");
  const support::Timer timer;
  Simulator simulator(config, std::move(miners));
  NetworkResult result = simulator.run();
  if (obs::enabled()) {
    NetMetrics& metrics = net_metrics();
    metrics.runs.add(1);
    metrics.events.add(result.events);
    metrics.queue_high_water.max_of(
        static_cast<std::int64_t>(result.queue_high_water));
    metrics.run_seconds.observe(timer.seconds());
  }
  span.attr("events", serve::Json(static_cast<std::int64_t>(result.events)));
  span.attr("blocks", serve::Json(
      static_cast<std::int64_t>(result.mine_events)));
  return result;
}

}  // namespace net
