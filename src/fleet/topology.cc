#include "fleet/topology.h"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "common/rng.h"

namespace dap::fleet {

namespace {
constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
}  // namespace

const char* topology_kind_name(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kTree:
      return "tree";
    case TopologyKind::kGrid:
      return "grid";
    case TopologyKind::kGossip:
      return "gossip";
    case TopologyKind::kFlood:
      return "flood";
  }
  return "unknown";
}

void Topology::validate() const {
  if (node_count == 0) {
    throw std::invalid_argument("topology: node_count must be >= 1");
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const auto& [from, to] : edges) {
    if (from >= to) {
      throw std::invalid_argument(
          "topology: edge must satisfy from < to (index order is the "
          "topological order)");
    }
    if (to >= node_count) {
      throw std::invalid_argument("topology: edge endpoint out of range");
    }
    if (!seen.emplace(from, to).second) {
      throw std::invalid_argument("topology: duplicate edge");
    }
  }
  const auto dist = depths();
  for (std::uint32_t v = 1; v < node_count; ++v) {
    if (dist[v] == kUnreached) {
      throw std::invalid_argument("topology: node unreachable from root");
    }
  }
}

std::vector<std::vector<std::uint32_t>> Topology::adjacency() const {
  std::vector<std::vector<std::uint32_t>> out(node_count);
  for (const auto& [from, to] : edges) {
    out[from].push_back(to);
  }
  for (auto& neighbours : out) {
    std::sort(neighbours.begin(), neighbours.end());
  }
  return out;
}

std::vector<std::uint32_t> Topology::depths() const {
  std::vector<std::uint32_t> dist(node_count, kUnreached);
  dist[0] = 0;
  // Edges sorted by destination: since from < to always holds, every
  // in-edge of v is final by the time v is relaxed.
  auto sorted = edges;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [from, to] : sorted) {
    if (dist[from] == kUnreached) continue;
    dist[to] = std::min(dist[to], dist[from] + 1);
  }
  return dist;
}

std::uint32_t Topology::depth() const {
  std::uint32_t max_depth = 0;
  for (const std::uint32_t d : depths()) {
    if (d != kUnreached) max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

std::vector<std::uint32_t> Topology::leaves() const {
  std::vector<bool> relays(node_count, false);
  for (const auto& [from, to] : edges) {
    (void)to;
    relays[from] = true;
  }
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; v < node_count; ++v) {
    if (!relays[v]) out.push_back(v);
  }
  return out;
}

Topology tree_topology(std::uint32_t depth, std::uint32_t fanout) {
  if (fanout == 0) {
    throw std::invalid_argument("tree_topology: fanout must be >= 1");
  }
  Topology topo;
  topo.kind = TopologyKind::kTree;
  // BFS indexing: level l starts right after all shallower levels.
  std::uint32_t level_start = 0;
  std::uint32_t level_size = 1;
  std::uint32_t next_index = 1;
  for (std::uint32_t level = 0; level < depth; ++level) {
    for (std::uint32_t p = 0; p < level_size; ++p) {
      const std::uint32_t parent = level_start + p;
      for (std::uint32_t c = 0; c < fanout; ++c) {
        topo.edges.emplace_back(parent, next_index);
        ++next_index;
      }
    }
    level_start += level_size;
    level_size *= fanout;
  }
  topo.node_count = next_index;
  topo.validate();
  return topo;
}

Topology grid_topology(std::uint32_t rows, std::uint32_t cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("grid_topology: rows and cols must be >= 1");
  }
  Topology topo;
  topo.kind = TopologyKind::kGrid;
  topo.node_count = rows * cols;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const std::uint32_t v = r * cols + c;
      if (c + 1 < cols) topo.edges.emplace_back(v, v + 1);
      if (r + 1 < rows) topo.edges.emplace_back(v, v + cols);
    }
  }
  topo.validate();
  return topo;
}

Topology gossip_topology(std::uint32_t relays, std::uint32_t fanin,
                         std::uint64_t seed) {
  if (relays == 0) {
    throw std::invalid_argument("gossip_topology: relays must be >= 1");
  }
  if (fanin == 0) {
    throw std::invalid_argument("gossip_topology: fanin must be >= 1");
  }
  Topology topo;
  topo.kind = TopologyKind::kGossip;
  topo.node_count = relays + 1;
  common::Rng rng(seed);
  for (std::uint32_t v = 1; v <= relays; ++v) {
    const std::uint32_t parents = std::min(fanin, v);
    std::set<std::uint32_t> chosen;
    while (chosen.size() < parents) {
      chosen.insert(static_cast<std::uint32_t>(rng.uniform(0, v - 1)));
    }
    for (const std::uint32_t parent : chosen) {
      topo.edges.emplace_back(parent, v);
    }
  }
  topo.validate();
  return topo;
}

Topology flood_topology(std::uint32_t receivers) {
  if (receivers == 0) {
    throw std::invalid_argument("flood_topology: receivers must be >= 1");
  }
  Topology topo;
  topo.kind = TopologyKind::kFlood;
  topo.node_count = receivers + 1;
  for (std::uint32_t v = 1; v <= receivers; ++v) {
    topo.edges.emplace_back(0, v);
  }
  topo.validate();
  return topo;
}

}  // namespace dap::fleet
