#include "net/topology.hpp"

#include <utility>

namespace net {

Topology Topology::complete(std::size_t nodes) {
  SM_REQUIRE(nodes > 0, "topology needs at least one node");
  Topology t;
  t.nodes_ = nodes;
  t.links_.assign(nodes * nodes, 0.0);
  return t;
}

Topology Topology::uniform(std::size_t nodes, double delay) {
  SM_REQUIRE(delay >= 0.0, "negative propagation delay");
  Topology t = complete(nodes);
  t.links_.assign(nodes * nodes, delay);
  for (std::size_t i = 0; i < nodes; ++i) t.links_[i * nodes + i] = 0.0;
  t.finish_links();
  return t;
}

Topology Topology::star(const std::vector<double>& spoke_delays) {
  return star_asymmetric(spoke_delays, spoke_delays);
}

Topology Topology::star_asymmetric(const std::vector<double>& up,
                                   const std::vector<double>& down) {
  const std::size_t nodes = up.size();
  SM_REQUIRE(down.size() == nodes,
             "asymmetric star needs matching up/down spoke lists, got ",
             up.size(), " vs ", down.size());
  Topology t = complete(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    SM_REQUIRE(up[i] >= 0.0 && down[i] >= 0.0, "negative spoke delay");
    for (std::size_t j = 0; j < nodes; ++j) {
      if (i != j) t.links_[i * nodes + j] = up[i] + down[j];
    }
  }
  t.finish_links();
  return t;
}

Topology Topology::line(const std::vector<double>& hop_delays) {
  const std::size_t nodes = hop_delays.size() + 1;
  Topology t;
  t.nodes_ = nodes;
  t.links_.assign(nodes * nodes, kNoLink);
  for (std::size_t i = 0; i < nodes; ++i) t.links_[i * nodes + i] = 0.0;
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    SM_REQUIRE(hop_delays[i] >= 0.0, "negative hop delay");
    t.links_[i * nodes + (i + 1)] = hop_delays[i];
    t.links_[(i + 1) * nodes + i] = hop_delays[i];
  }
  t.finish_links();
  return t;
}

Topology Topology::from_matrix(std::vector<std::vector<double>> matrix) {
  const std::size_t nodes = matrix.size();
  Topology t = complete(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    SM_REQUIRE(matrix[i].size() == nodes, "delay matrix must be square");
    for (std::size_t j = 0; j < nodes; ++j) {
      if (i == j) continue;
      SM_REQUIRE(matrix[i][j] >= 0.0 && matrix[i][j] != kNoLink,
                 "invalid propagation delay");
      t.links_[i * nodes + j] = matrix[i][j];
    }
  }
  t.finish_links();
  return t;
}

Topology Topology::from_links(std::vector<std::vector<double>> links) {
  const std::size_t nodes = links.size();
  SM_REQUIRE(nodes > 0, "topology needs at least one node");
  Topology t;
  t.nodes_ = nodes;
  t.links_.assign(nodes * nodes, kNoLink);
  for (std::size_t i = 0; i < nodes; ++i) {
    SM_REQUIRE(links[i].size() == nodes, "link matrix must be square");
    for (std::size_t j = 0; j < nodes; ++j) {
      if (i == j) {
        t.links_[i * nodes + j] = 0.0;
        continue;
      }
      SM_REQUIRE(links[i][j] >= 0.0, "negative propagation delay");
      t.links_[i * nodes + j] = links[i][j];
    }
  }
  t.finish_links();
  return t;
}

void Topology::finish_links() {
  const std::size_t n = nodes_;
  delays_ = links_;
  // Floyd–Warshall: the effective (direct-mode) delay is the cheapest
  // relay path — exactly what a store-and-forward network with instant
  // forwarding would achieve, so Direct and Gossip agree on arrival
  // times whenever no partition interferes.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double ik = delays_[i * n + k];
      if (ik == kNoLink) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double kj = delays_[k * n + j];
        if (kj == kNoLink) continue;
        double& ij = delays_[i * n + j];
        if (ik + kj < ij) ij = ik + kj;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      SM_REQUIRE(delays_[i * n + j] != kNoLink,
                 "topology is not strongly connected: no path from ", i,
                 " to ", j);
    }
  }
  neighbors_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && links_[i * n + j] != kNoLink) {
        neighbors_[i].push_back(static_cast<NodeId>(j));
      }
    }
  }
}

double Topology::max_delay() const {
  double worst = 0.0;
  for (double d : delays_) {
    if (d > worst) worst = d;
  }
  return worst;
}

void Topology::add_partition(PartitionWindow window) {
  SM_REQUIRE(window.group.size() == nodes_, "partition groups cover ",
             window.group.size(), " nodes, topology has ", nodes_);
  SM_REQUIRE(window.start >= 0.0 && window.end > window.start,
             "partition window must satisfy 0 <= start < end");
  partitions_.push_back(std::move(window));
}

bool Topology::cut_slow(NodeId from, NodeId to, double at) const {
  for (const PartitionWindow& w : partitions_) {
    if (at >= w.start && at < w.end && w.group[from] != w.group[to]) {
      return true;
    }
  }
  return false;
}

}  // namespace net
