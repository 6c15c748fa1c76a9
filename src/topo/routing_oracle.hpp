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
// view() is the per-destination form of the same answers: whatever a
// family precomputes per destination (HammingMesh's cost tables), after
// which dist(n) is O(1) per node. DegradedOracle serves faulted fabrics:
// per destination it keeps the healthy view plus a sparse patch of the
// nodes the failed links push farther away, so a path walk costs O(path
// length) and never renders a whole field. BfsOracle is the executable
// fallback (and equivalence reference) for graphs without a closed form.
#pragma once

/// \file
/// \brief RoutingOracle — closed-form hop distances, O(V) dist-field
/// fills, per-destination views, and ordered minimal next-hop enumeration,
/// with a sparse decremental repair for faulted fabrics, a BFS fallback
/// and process-wide observability counters.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "topo/graph.hpp"

namespace hxmesh::topo {

/// \brief Process-wide counters of who computed distance fields how.
///
/// `oracle_fills` counts closed-form whole-field fills (patched ones on
/// faulted fabrics included), `bfs_fills` counts whole-graph reverse-BFS
/// fills (graphs without a closed form and non-endpoint destinations),
/// `fault_views` counts the per-destination repairs of a faulted fabric
/// (one per destination, kept for the fabric's lifetime). They exist to
/// make "BFS never runs on structured topologies in the hot path"
/// observable (`hxmesh cache stats`), not assumed.
struct RoutingCounters {
  std::uint64_t oracle_fills = 0;
  std::uint64_t bfs_fills = 0;
  std::uint64_t fault_views = 0;
};

/// \brief Snapshot of the process-wide routing counters.
RoutingCounters routing_counters();

namespace detail {
/// Counts one dist-field fill: an oracle fill when `closed_form`, a
/// reverse-BFS fill otherwise.
void count_fill(bool closed_form);
}  // namespace detail

/// \brief Hop distances toward one endpoint destination, from any node.
///
/// Built once per destination by RoutingOracle::view(); dist(n) then
/// equals node_dist(n, destination) for every graph node n.
class DistView {
 public:
  virtual ~DistView() = default;
  virtual std::int32_t dist(NodeId n) const = 0;
};

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

  /// \brief The distances toward `dst_node` as a view. The default
  /// forwards to node_dist; families that precompute per-destination
  /// tables (HammingMesh) build them here, once.
  virtual std::unique_ptr<DistView> view(NodeId dst_node) const;

  /// \brief Fills `out[n] = node_dist(n, dst_node)` for every node from
  /// view(dst_node) — the O(V) replacement for a reverse BFS.
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
/// Per destination it keeps a View: the healthy view plus a sparse patch
/// of the nodes the failed links push farther away (Ramalingam–Reps
/// decremental update for unit weights). A node is *affected* iff none of
/// its healthy out-links reaches an unaffected node one hop closer. The
/// candidates start at the tails of the tight failed links (on a minimal
/// path toward the destination), found at O(F) through the healthy view,
/// and are decided in increasing distance; every affected node makes its
/// in-neighbours one hop farther candidates. The affected nodes are then
/// re-relaxed from their unaffected neighbours by a unit-weight Dijkstra;
/// nodes it cannot reach get -1. Every distance equals Graph::dist_to, at
/// O(F + affected region) per destination and no O(V) state.
///
/// Views are built on first use and kept for every destination, in a
/// lock-free cache safe under concurrent queries. In-links are found
/// through the duplex partner `l ^ 1` of each out-link, so the graph must
/// be built from add_duplex pairs (every family is). The failed-link set
/// must be final before the first query.
class DegradedOracle final : public RoutingOracle {
 public:
  /// \brief Distances toward one destination on the faulted fabric.
  class View final : public DistView {
   public:
    std::int32_t dist(NodeId n) const override {
      return patch_.empty() ? healthy_->dist(n) : patched_dist(n);
    }
    /// The repaired nodes and their distances (-1: cut off), sorted by
    /// node id; every other node keeps its healthy distance.
    std::span<const std::pair<NodeId, std::int32_t>> patch() const {
      return patch_;
    }
    /// The lowest-numbered endpoint node that cannot reach the
    /// destination, kInvalidNode when every endpoint can.
    NodeId cut_off() const { return cut_off_; }
    /// Nonzero and unique among the views of the process, so callers can
    /// key per-thread memos by it.
    std::uint64_t serial() const { return serial_; }

   private:
    friend class DegradedOracle;
    std::int32_t patched_dist(NodeId n) const;

    std::unique_ptr<DistView> healthy_;
    std::vector<std::pair<NodeId, std::int32_t>> patch_;
    NodeId cut_off_ = kInvalidNode;
    std::uint64_t serial_ = 0;
  };

  /// `healthy` must answer for the fabric as built; it stays owned by the
  /// caller and must outlive this oracle.
  explicit DegradedOracle(const RoutingOracle& healthy);
  ~DegradedOracle() override;

  /// False: faulted distances are a repair, not arithmetic. Topology
  /// answers path sampling and hop_distance from patched().
  bool closed_form() const override { return false; }
  std::int32_t node_dist(NodeId from, NodeId dst_node) const override;
  /// The healthy fill with the destination's patch written over it.
  void fill(NodeId dst_node, std::vector<std::int32_t>& out) const override;

  /// \brief The cached view toward the endpoint node `dst_node`, built
  /// on first use. Valid for the oracle's lifetime.
  const View& patched(NodeId dst_node) const;

 private:
  std::unique_ptr<View> repair(NodeId dst_node) const;

  const RoutingOracle& healthy_;
  // One slot per graph node; only endpoint destinations are filled.
  mutable std::vector<std::atomic<const View*>> views_;
};

/// \brief Reverse-BFS fallback oracle: correct on any graph, O(V+E) per
/// distance field. Doubles as the executable equivalence reference for the
/// closed-form oracles.
class BfsOracle final : public RoutingOracle {
 public:
  using RoutingOracle::RoutingOracle;

  bool closed_form() const override { return false; }
  /// \brief O(V+E): runs a full reverse BFS per query. Use fill() for
  /// anything repeated.
  std::int32_t node_dist(NodeId from, NodeId dst_node) const override;
  void fill(NodeId dst_node, std::vector<std::int32_t>& out) const override;
  void next_hops(NodeId from, NodeId dst_node,
                 std::vector<LinkId>& out) const override;
};

}  // namespace hxmesh::topo
