// Building blocks of the discrete-event network simulator: the block
// arena (chain::BlockArena, shared with sim::simulate, under net names)
// and the time-ordered event queue.
//
// Determinism contract: events are ordered by (time, sequence number),
// where the sequence number is assigned at push time. Block-arrival times
// are continuous exponential draws, so exact time ties only arise from
// same-instant deliveries (e.g. a zero-delay broadcast); those resolve in
// push order, which the simulator makes deterministic. Replaying the same
// scenario with the same seed therefore yields the exact same event trace.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "chain/block.hpp"
#include "support/check.hpp"

namespace net {

using chain::Block;
using chain::BlockArena;
using chain::BlockId;
using chain::kGenesis;
using chain::kNoNode;
using chain::NodeId;

enum class EventKind : std::uint8_t {
  kMine = 0,     ///< A node's mining clock fires (it finds a block).
  kDeliver = 1,  ///< A block broadcast by its origin arrives at a node.
  kRelay = 2,    ///< A store-and-forward hop arrives (gossip mode): the
                 ///< sender accepted the block earlier and forwarded it
                 ///< along one of its topology links.
  kSync = 3,     ///< A parent block fetched in response to an orphaned
                 ///< arrival (the receiver pulled the missing ancestor
                 ///< from the sender; one round trip per block).
  kReannounce = 4,  ///< Timer retry of a send dropped on a partition-cut
                    ///< edge: the original sender re-offers the block
                    ///< once the cutting window should have healed, so
                    ///< orphans survive repeated overlapping splits.
};

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< Assigned by the queue; total-order tiebreak.
  EventKind kind = EventKind::kMine;
  NodeId node = 0;  ///< The node the event happens at.
  /// kMine: schedule generation — stale when it no longer matches the
  /// node's current generation (the node rescheduled in the meantime).
  std::uint64_t generation = 0;
  /// Arrivals: the arriving block.
  BlockId block = kGenesis;
  /// Arrivals: the node the block came from (the broadcast origin for
  /// kDeliver, the forwarding hop for kRelay, the fetch responder for
  /// kSync); kNoNode for kMine.
  NodeId from = kNoNode;
};

/// Min-heap over (time, seq). Push assigns monotonically increasing
/// sequence numbers, so equal-time events pop in insertion order.
class EventQueue {
 public:
  void push(Event event) {
    event.seq = next_seq_++;
    heap_.push(event);
  }

  Event pop() {
    SM_REQUIRE(!heap_.empty(), "pop from an empty event queue");
    Event out = heap_.top();
    heap_.pop();
    return out;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace net
