// Propagation topology: a link graph with per-edge one-way delays, the
// effective (shortest-path) per-pair delay matrix derived from it, and an
// optional schedule of timed partition windows.
//
// Delays are in the same time unit as the scenario's block interval
// (conventionally seconds). Direct-broadcast mode sends origin-to-all
// using the effective matrix delay(i, j); gossip mode store-and-forwards
// along the links, paying link_delay per hop. Delays need not be
// symmetric (link_delay(i, j) != link_delay(j, i) models asymmetric
// up/down links). Zero delays model the abstract instant-propagation
// network of the MDP analysis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/event.hpp"

namespace net {

/// Sentinel for "no direct link between these two nodes" in a link
/// matrix handed to Topology::from_links.
inline constexpr double kNoLink = std::numeric_limits<double>::infinity();

/// A timed network split: while active (start <= t < end), every edge
/// between nodes of *different* groups is cut — sends across it are
/// dropped at send time. At `end` the split heals; nodes resynchronize
/// organically (the next block crossing a healed edge triggers recursive
/// parent fetches, see network.cpp).
struct PartitionWindow {
  double start = 0.0;
  double end = 0.0;
  /// group[node] = side of the split this node is on (any small ints).
  std::vector<std::uint8_t> group;
};

class Topology {
 public:
  Topology() = default;

  /// All distinct pairs share one delay (a complete graph); delay 0 is the
  /// abstract instant-broadcast network.
  static Topology uniform(std::size_t nodes, double delay);

  /// Star: every node hangs off a virtual hub by its spoke delay, so
  /// delay(i, j) = spoke[i] + spoke[j]. Models one well-connected miner
  /// (small spoke) vs. poorly connected ones (large spokes).
  static Topology star(const std::vector<double>& spoke_delays);

  /// Asymmetric star: node i announces through an `up` spoke and listens
  /// through a `down` spoke, so delay(i, j) = up[i] + down[j]. Models
  /// ADSL-style links (slow uplink, fast downlink) and connectivity
  /// advantages that differ by direction.
  static Topology star_asymmetric(const std::vector<double>& up,
                                  const std::vector<double>& down);

  /// Line (path graph): n = hop_delays.size() + 1 nodes chained
  /// 0 - 1 - ... - n-1, with hop_delays[i] on the (i, i+1) edge (both
  /// directions). The only non-complete builtin: gossip relays hop by
  /// hop; direct mode uses the summed shortest-path delays.
  static Topology line(const std::vector<double>& hop_delays);

  /// Explicit link matrix over a complete graph: matrix[i][j] = one-way
  /// delay of the edge from i to j (diagonal ignored). The *effective*
  /// direct-mode delays are the all-pairs shortest paths over these
  /// edges — a triangle-inequality-violating entry is tightened to its
  /// best relay route, keeping direct and gossip arrival times
  /// consistent (metric matrices round-trip unchanged).
  static Topology from_matrix(std::vector<std::vector<double>> matrix);

  /// Explicit *link* matrix: links[i][j] = one-way delay of the direct
  /// edge from i to j, or kNoLink for no edge. The effective per-pair
  /// delays are the all-pairs shortest paths; the graph must be strongly
  /// connected (every node reachable from every other).
  static Topology from_links(std::vector<std::vector<double>> links);

  std::size_t num_nodes() const { return nodes_; }

  /// Effective one-way delay from `from` to `to` (shortest path over the
  /// links) — what direct-broadcast mode charges per delivery.
  double delay(NodeId from, NodeId to) const {
    SM_REQUIRE(from < nodes_ && to < nodes_, "topology node out of range");
    return delays_[from * nodes_ + to];
  }

  /// One-hop delay of the direct edge from `from` to `to`; kNoLink when
  /// the nodes are not adjacent — what gossip mode charges per hop.
  double link_delay(NodeId from, NodeId to) const {
    SM_REQUIRE(from < nodes_ && to < nodes_, "topology node out of range");
    return links_[from * nodes_ + to];
  }

  bool has_link(NodeId from, NodeId to) const {
    return link_delay(from, to) != kNoLink;
  }

  /// Nodes adjacent to `from` (outgoing links), ascending.
  const std::vector<NodeId>& neighbors(NodeId from) const {
    SM_REQUIRE(from < nodes_, "topology node out of range");
    return neighbors_[from];
  }

  /// Largest pairwise effective delay (0 for <= 1 nodes) — used to size
  /// warmups.
  double max_delay() const;

  // ------------------------------------------------------- partitions

  /// Registers a split/heal window. Windows may overlap; an edge is cut
  /// whenever any active window separates its endpoints.
  void add_partition(PartitionWindow window);

  /// True when the edge from -> to is cut at time `at` by some window.
  bool cut(NodeId from, NodeId to, double at) const {
    if (partitions_.empty()) return false;
    return cut_slow(from, to, at);
  }

  const std::vector<PartitionWindow>& partitions() const {
    return partitions_;
  }

 private:
  static Topology complete(std::size_t nodes);
  void finish_links();  ///< Derives delays_ (shortest paths) + neighbors_.
  bool cut_slow(NodeId from, NodeId to, double at) const;

  std::size_t nodes_ = 0;
  std::vector<double> delays_;  ///< Row-major effective nodes_ x nodes_.
  std::vector<double> links_;   ///< Row-major per-edge; kNoLink = no edge.
  std::vector<std::vector<NodeId>> neighbors_;
  std::vector<PartitionWindow> partitions_;
};

}  // namespace net
