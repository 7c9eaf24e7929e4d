#pragma once
// Relay topologies for fleet-scale broadcast simulation.
//
// A Topology is a directed acyclic relay graph rooted at node 0 (the
// broadcast source). Every edge (u, v) satisfies u < v, so node index
// order IS a topological order: packets only ever flow "forward" and no
// relay loop can form by construction. The builders cover the shapes the
// fleet experiments sweep:
//
//   tree(depth, fanout)   — balanced k-ary distribution tree (BFS index)
//   grid(rows, cols)      — 2-D mesh, each node relays right and down
//   gossip(relays, fanin, seed) — each node picks `fanin` random earlier
//                           nodes as parents (seeded, reproducible)
//   flood(receivers)      — single-hop star: root fans out to everyone
//
// The graph is pure structure: link quality, latency and adversaries are
// attached per-edge by fleet::FleetSim.

#include <cstdint>
#include <utility>
#include <vector>

namespace dap::fleet {

enum class TopologyKind : std::uint8_t {
  kTree,
  kGrid,
  kGossip,
  kFlood,
};

/// Lowercase name used by scenario ids and CSV output ("tree", ...).
[[nodiscard]] const char* topology_kind_name(TopologyKind kind) noexcept;

struct Topology {
  TopologyKind kind = TopologyKind::kFlood;
  std::uint32_t node_count = 1;
  /// Directed edges (from, to); every edge has from < to (validated).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  /// Throws std::invalid_argument when an edge violates from < to, an
  /// endpoint is out of range, an edge repeats, or a non-root node is
  /// unreachable from node 0.
  void validate() const;

  /// Out-neighbour lists indexed by node.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> adjacency() const;

  /// Hop distance from the root for every node (root = 0). Because
  /// edges respect index order, one ascending relaxation pass is exact.
  [[nodiscard]] std::vector<std::uint32_t> depths() const;

  /// max(depths()): the longest shortest-path any packet travels.
  [[nodiscard]] std::uint32_t depth() const;

  /// Nodes with no out-edges (pure receivers, never relays).
  [[nodiscard]] std::vector<std::uint32_t> leaves() const;
};

/// Balanced `fanout`-ary tree with `depth` levels below the root
/// (depth 0 = just the root). Nodes are indexed breadth-first.
[[nodiscard]] Topology tree_topology(std::uint32_t depth,
                                     std::uint32_t fanout);

/// rows x cols mesh; node (r, c) has index r*cols + c, the root is
/// (0, 0), and each node relays to its right and down neighbours.
[[nodiscard]] Topology grid_topology(std::uint32_t rows, std::uint32_t cols);

/// `relays` + 1 nodes; node i >= 1 picks min(fanin, i) distinct parents
/// uniformly from [0, i) using a generator seeded with `seed`, so the
/// same (relays, fanin, seed) always yields the same graph.
[[nodiscard]] Topology gossip_topology(std::uint32_t relays,
                                       std::uint32_t fanin,
                                       std::uint64_t seed);

/// Single-hop star: the root relays directly to `receivers` nodes.
[[nodiscard]] Topology flood_topology(std::uint32_t receivers);

}  // namespace dap::fleet
