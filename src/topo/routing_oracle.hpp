// Routing oracles: closed-form answers to the questions the simulators ask
// the topology on their hot paths.
//
// Every structured family (HammingMesh, torus, HyperX, fat tree, Dragonfly)
// exposes enough coordinate structure to answer "how far is node u from
// destination endpoint d" and "which out-links of u move minimally toward
// d" without graph search. A RoutingOracle packages those answers behind
// one interface: node_dist() is the per-node closed form, fill() renders a
// whole distance field in O(V), and next_hops() enumerates the minimal
// next-hop candidates of a node *in out-link order* — the exact set, in the
// exact order, that filtering the adjacency through a reverse-BFS field
// yields. That ordering contract is what keeps packet-sim tie-breaks and
// path-sampling RNG consumption bit-identical to the BFS implementation the
// oracles replace; tests/test_routing_oracle.cpp enforces it against real
// BFS for every family.
//
// DegradedOracle serves faulted fabrics: it renders the family's healthy
// closed-form field and repairs exactly the nodes the failed links push
// farther away. BfsOracle is the executable fallback (and equivalence
// reference) for graphs without a closed form.
#pragma once

/// \file
/// \brief RoutingOracle — closed-form hop distances, O(V) dist-field
/// fills, and ordered minimal next-hop enumeration, with a decremental
/// repair for faulted fabrics, a BFS fallback and process-wide
/// observability counters.

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"

namespace hxmesh::topo {

/// \brief Process-wide counters of who computed distance fields how.
///
/// `oracle_fills` counts closed-form fills (repaired ones on faulted
/// fabrics included), `bfs_fills` counts whole-graph reverse-BFS fills
/// (graphs without a closed form and non-endpoint destinations), and
/// `dist_cache_hits` counts Topology::dist_field cache hits that avoided
/// any fill at all. They exist to make "BFS never runs on structured
/// topologies in the hot path" observable (`hxmesh cache stats`), not
/// assumed.
struct RoutingCounters {
  std::uint64_t oracle_fills = 0;
  std::uint64_t bfs_fills = 0;
  std::uint64_t dist_cache_hits = 0;
};

/// \brief Snapshot of the process-wide routing counters.
RoutingCounters routing_counters();

namespace detail {
/// Counts one dist-field fill: an oracle fill when `closed_form`, a
/// reverse-BFS fill otherwise.
void count_fill(bool closed_form);
void count_dist_cache_hit();
}  // namespace detail

/// \brief Answers minimal-hop routing queries toward endpoint nodes.
///
/// The contract for every implementation: node_dist(u, d) equals the
/// reverse-BFS hop distance from u to d (-1 when unreachable) for every
/// graph node u and every *endpoint* node d. fill() and next_hops() are
/// derived from that equality and must preserve it exactly.
class RoutingOracle {
 public:
  explicit RoutingOracle(const Graph& graph) : graph_(graph) {}
  virtual ~RoutingOracle() = default;

  RoutingOracle(const RoutingOracle&) = delete;
  RoutingOracle& operator=(const RoutingOracle&) = delete;

  /// \brief True when distances come from arithmetic, not search. Callers
  /// use it to pick between per-query loops (cheap closed forms) and
  /// field-at-a-time plans (BFS fallback).
  virtual bool closed_form() const { return true; }

  /// \brief Hop distance from any node to the endpoint node `dst_node`.
  virtual std::int32_t node_dist(NodeId from, NodeId dst_node) const = 0;

  /// \brief Fills `out[n] = node_dist(n, dst_node)` for every node — the
  /// O(V) replacement for a reverse BFS. Overridden by families that
  /// amortize per-destination precomputation across the fill.
  virtual void fill(NodeId dst_node, std::vector<std::int32_t>& out) const;

  /// \brief Appends the minimal next-hop links of `from` toward
  /// `dst_node`, in the graph's out-link order (empty when `from` is the
  /// destination or cannot reach it).
  virtual void next_hops(NodeId from, NodeId dst_node,
                         std::vector<LinkId>& out) const;

  /// \brief The candidate rule itself, factored out so every consumer
  /// (oracles, packet-sim route tables, deadlock analysis) shares one
  /// definition: out-links of `from` whose head is strictly one hop closer
  /// in `field`, appended in out-link order.
  static void next_hops_from_field(const Graph& graph,
                                   const std::vector<std::int32_t>& field,
                                   NodeId from, std::vector<LinkId>& out);

  const Graph& graph() const { return graph_; }

 protected:
  const Graph& graph_;
};

/// \brief Oracle of a faulted fabric built from a family's closed form.
///
/// fill() renders the healthy closed-form field, then repairs it in
/// place for the graph's failed links (Ramalingam–Reps decremental
/// update for unit weights): a node is *affected* iff none of its healthy
/// out-links reaches an unaffected node one hop closer. The candidates
/// start at the tails of failed links that lie on a minimal path and are
/// decided level by level in increasing distance; every affected node
/// makes its in-neighbours one hop farther candidates. The affected nodes
/// are then re-relaxed from their unaffected neighbours by a bucketed
/// unit-weight Dijkstra; nodes it cannot reach get -1. The result equals
/// Graph::dist_to exactly, at O(V) plus the size of the affected region
/// instead of a whole-graph search.
///
/// In-links are enumerated through the duplex partner `l ^ 1` of each
/// out-link, so the graph must be built from add_duplex pairs (every
/// family is). The failed-link set is read live from the graph.
class DegradedOracle final : public RoutingOracle {
 public:
  /// `healthy` must answer for the fabric as built; it stays owned by the
  /// caller and must outlive this oracle.
  explicit DegradedOracle(const RoutingOracle& healthy)
      : RoutingOracle(healthy.graph()), healthy_(healthy) {}

  /// False: a distance needs a (repaired) field, so callers keep their
  /// field-at-a-time plans.
  bool closed_form() const override { return false; }
  /// \brief O(V): renders a whole field per query. Use fill() (or the
  /// Topology::dist_field cache above it) for anything repeated.
  std::int32_t node_dist(NodeId from, NodeId dst_node) const override;
  void fill(NodeId dst_node, std::vector<std::int32_t>& out) const override;
  void next_hops(NodeId from, NodeId dst_node,
                 std::vector<LinkId>& out) const override;

 private:
  const RoutingOracle& healthy_;
};

/// \brief Reverse-BFS fallback oracle: correct on any graph, O(V+E) per
/// distance field. Doubles as the executable equivalence reference for the
/// closed-form oracles.
class BfsOracle final : public RoutingOracle {
 public:
  using RoutingOracle::RoutingOracle;

  bool closed_form() const override { return false; }
  /// \brief O(V+E): runs a full reverse BFS per query. Use fill() (or the
  /// Topology::dist_field cache above it) for anything repeated.
  std::int32_t node_dist(NodeId from, NodeId dst_node) const override;
  void fill(NodeId dst_node, std::vector<std::int32_t>& out) const override;
  void next_hops(NodeId from, NodeId dst_node,
                 std::vector<LinkId>& out) const override;
};

}  // namespace hxmesh::topo
