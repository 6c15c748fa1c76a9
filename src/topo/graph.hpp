// Directed multigraph substrate for network topologies.
//
// Nodes are either accelerators ("endpoints", which in HammingMesh also
// forward packets like small switches) or switches. Links are directed and
// carry bandwidth, latency, and the cable technology used (PCB trace, DAC
// copper, AoC optical) so the cost model and the simulators share one
// description of the machine. Physical duplex cables are represented as two
// directed links created together by add_duplex().
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/units.hpp"

namespace hxmesh::topo {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;
inline constexpr LinkId kInvalidLink = 0xffffffffu;

enum class NodeKind : std::uint8_t { kEndpoint, kSwitch };

/// Physical cable technology; drives both latency defaults and pricing.
enum class CableKind : std::uint8_t {
  kPcb,  // on-board metal trace (free in the cost model)
  kDac,  // direct-attach copper, 5 m
  kAoc,  // active optical, 20 m
};

/// One directed link.
struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double bandwidth_bps = kLinkBandwidthBps;  // bytes per second
  picoseconds latency_ps = kCableLatencyPs;
  CableKind cable = CableKind::kDac;
};

/// Directed multigraph with per-node outgoing adjacency.
class Graph {
 public:
  /// Adds a node and returns its id (dense, starting at 0).
  NodeId add_node(NodeKind kind);

  /// Adds a directed link; returns its id (dense, starting at 0).
  LinkId add_link(NodeId src, NodeId dst, double bandwidth_bps,
                  picoseconds latency_ps, CableKind cable);

  /// Adds the two directed links of a duplex cable; returns the first id
  /// (the reverse direction is always `id + 1`).
  LinkId add_duplex(NodeId a, NodeId b, double bandwidth_bps,
                    picoseconds latency_ps, CableKind cable);

  std::size_t num_nodes() const { return kinds_.size(); }
  std::size_t num_links() const { return links_.size(); }

  NodeKind kind(NodeId n) const { return kinds_[n]; }
  const Link& link(LinkId l) const { return links_[l]; }

  /// Outgoing links of `n`.
  std::span<const LinkId> out_links(NodeId n) const {
    return {out_[n].data(), out_[n].size()};
  }

  /// All link ids from `a` to `b` (multi-edges included, possibly empty).
  std::vector<LinkId> links_between(NodeId a, NodeId b) const;

  /// Allocation-free links_between: a view of the parallel links a -> b in
  /// the same order links_between returns them. Served from a lazily built
  /// per-node bundle index (O(log out-neighbors) lookup), so routing hot
  /// paths can pick among parallel cables without a heap allocation per
  /// decision. Thread-safe; the graph must not gain links afterwards (all
  /// topologies finish construction before routing starts).
  std::span<const LinkId> bundle(NodeId a, NodeId b) const;

  /// First link from `a` to `b`, or kInvalidLink.
  LinkId find_link(NodeId a, NodeId b) const;

  /// Hop distance (number of links) from every node to `dst`; -1 when
  /// unreachable. Computed by reverse BFS over directed links, skipping
  /// failed ones.
  std::vector<std::int32_t> dist_to(NodeId dst) const;

  /// Hop distance from `src` to every node (forward BFS, failed links
  /// skipped).
  std::vector<std::int32_t> dist_from(NodeId src) const;

  // -- link faults ---------------------------------------------------------
  // A failed link still exists (ids, bundles, and out-link order are
  // unchanged — candidate-order contracts survive fault injection); it just
  // carries no traffic: every BFS and every candidate rule skips it.

  /// Marks one directed link failed (or healthy again).
  void set_link_failed(LinkId l, bool failed = true);

  /// True when `l` is marked failed. The has_failed_links() fast path keeps
  /// this free on healthy graphs — the overwhelmingly common case.
  bool link_failed(LinkId l) const {
    return !failed_list_.empty() && failed_[l] != 0;
  }

  /// True when any link is marked failed.
  bool has_failed_links() const { return !failed_list_.empty(); }

  /// Number of directed links currently marked failed.
  std::size_t num_failed_links() const { return failed_list_.size(); }

  /// The directed links currently marked failed, in the order they failed.
  std::span<const LinkId> failed_links() const { return failed_list_; }

 private:
  // Multi-edge index: per source node, the distinct out-neighbors sorted
  // by node id, each with its parallel links in out-link order.
  struct BundleIndex {
    std::vector<std::uint32_t> node_off;  // per node, into pair_dst
    std::vector<NodeId> pair_dst;         // sorted within each node's range
    std::vector<std::uint32_t> pair_off;  // per pair, into links
    std::vector<LinkId> links;
  };
  const BundleIndex& bundle_index() const;

  std::vector<NodeKind> kinds_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::vector<std::vector<LinkId>> in_;
  // Lazily sized on the first set_link_failed; empty on healthy graphs.
  std::vector<std::uint8_t> failed_;
  std::vector<LinkId> failed_list_;  // the links with failed_[l] set
  mutable std::once_flag bundle_once_;
  mutable std::unique_ptr<BundleIndex> bundles_;
};

}  // namespace hxmesh::topo
