#include "topo/routing_oracle.hpp"

#include <atomic>

namespace hxmesh::topo {

namespace {
std::atomic<std::uint64_t> g_oracle_fills{0};
std::atomic<std::uint64_t> g_bfs_fills{0};
std::atomic<std::uint64_t> g_dist_cache_hits{0};
}  // namespace

RoutingCounters routing_counters() {
  RoutingCounters c;
  c.oracle_fills = g_oracle_fills.load(std::memory_order_relaxed);
  c.bfs_fills = g_bfs_fills.load(std::memory_order_relaxed);
  c.dist_cache_hits = g_dist_cache_hits.load(std::memory_order_relaxed);
  return c;
}

namespace detail {
void count_fill(bool closed_form) {
  (closed_form ? g_oracle_fills : g_bfs_fills)
      .fetch_add(1, std::memory_order_relaxed);
}
void count_dist_cache_hit() {
  g_dist_cache_hits.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

void RoutingOracle::fill(NodeId dst_node,
                         std::vector<std::int32_t>& out) const {
  const std::size_t n = graph_.num_nodes();
  out.resize(n);
  for (NodeId u = 0; u < n; ++u) out[u] = node_dist(u, dst_node);
}

void RoutingOracle::next_hops(NodeId from, NodeId dst_node,
                              std::vector<LinkId>& out) const {
  out.clear();
  const std::int32_t d = node_dist(from, dst_node);
  if (d <= 0) return;
  for (LinkId l : graph_.out_links(from))
    if (!graph_.link_failed(l) &&
        node_dist(graph_.link(l).dst, dst_node) == d - 1)
      out.push_back(l);
}

void RoutingOracle::next_hops_from_field(const Graph& graph,
                                         const std::vector<std::int32_t>& field,
                                         NodeId from,
                                         std::vector<LinkId>& out) {
  if (field[from] <= 0) return;
  // Failed links are skipped: a dead link may still point at a node the
  // field puts one hop closer (reachable another way), but a packet cannot
  // take it.
  for (LinkId l : graph.out_links(from))
    if (!graph.link_failed(l) && field[graph.link(l).dst] == field[from] - 1)
      out.push_back(l);
}

void DegradedOracle::fill(NodeId dst_node,
                          std::vector<std::int32_t>& out) const {
  healthy_.fill(dst_node, out);
  const Graph& g = graph_;

  // Candidates bucketed by healthy distance. A failed link a -> b only
  // matters when it was tight (on a minimal path toward the destination).
  std::vector<std::vector<NodeId>> level;
  auto push = [](std::vector<std::vector<NodeId>>& buckets, std::int32_t k,
                 NodeId u) {
    if (buckets.size() <= static_cast<std::size_t>(k)) buckets.resize(k + 1);
    buckets[k].push_back(u);
  };
  for (LinkId l : g.failed_links()) {
    const Link& lnk = g.link(l);
    if (out[lnk.dst] >= 0 && out[lnk.src] == out[lnk.dst] + 1)
      push(level, out[lnk.src], lnk.src);
  }
  if (level.empty()) return;

  // Decide every candidate in increasing-distance order, so the nodes one
  // hop closer are final when a candidate is examined.
  enum : std::uint8_t { kUndecided = 0, kKept = 1, kAffected = 2 };
  std::vector<std::uint8_t> state(g.num_nodes(), kUndecided);
  std::vector<NodeId> affected;
  for (std::size_t k = 1; k < level.size(); ++k) {
    for (std::size_t i = 0; i < level[k].size(); ++i) {
      const NodeId u = level[k][i];
      if (state[u] != kUndecided) continue;
      bool kept = false;
      for (LinkId l : g.out_links(u)) {
        const NodeId v = g.link(l).dst;
        if (!g.link_failed(l) && out[v] + 1 == out[u] &&
            state[v] != kAffected) {
          kept = true;
          break;
        }
      }
      if (kept) {
        state[u] = kKept;
        continue;
      }
      state[u] = kAffected;
      affected.push_back(u);
      for (LinkId l : g.out_links(u)) {
        const NodeId w = g.link(l ^ 1u).src;  // in-neighbour: w -> u
        if (out[w] == out[u] + 1) push(level, out[w], w);
      }
    }
  }

  // Re-relax the affected region from its unaffected boundary (whose
  // distances are final), then inward over healthy in-links.
  std::vector<std::vector<NodeId>> bucket;
  for (NodeId u : affected) {
    std::int32_t best = -1;
    for (LinkId l : g.out_links(u)) {
      const NodeId v = g.link(l).dst;
      if (g.link_failed(l) || state[v] == kAffected || out[v] < 0) continue;
      if (best < 0 || out[v] + 1 < best) best = out[v] + 1;
    }
    out[u] = best;  // -1 until reached through another affected node
    if (best >= 0) push(bucket, best, u);
  }
  for (std::size_t k = 0; k < bucket.size(); ++k) {
    for (std::size_t i = 0; i < bucket[k].size(); ++i) {
      const NodeId u = bucket[k][i];
      if (out[u] != static_cast<std::int32_t>(k)) continue;  // stale entry
      const std::int32_t next = out[u] + 1;
      for (LinkId l : g.out_links(u)) {
        const LinkId in = l ^ 1u;  // w -> u
        const NodeId w = g.link(in).src;
        if (state[w] != kAffected || g.link_failed(in)) continue;
        if (out[w] < 0 || next < out[w]) {
          out[w] = next;
          push(bucket, next, w);
        }
      }
    }
  }
}

std::int32_t DegradedOracle::node_dist(NodeId from, NodeId dst_node) const {
  std::vector<std::int32_t> field;
  fill(dst_node, field);
  return field[from];
}

void DegradedOracle::next_hops(NodeId from, NodeId dst_node,
                               std::vector<LinkId>& out) const {
  out.clear();
  std::vector<std::int32_t> field;
  fill(dst_node, field);
  next_hops_from_field(graph_, field, from, out);
}

std::int32_t BfsOracle::node_dist(NodeId from, NodeId dst_node) const {
  return graph_.dist_to(dst_node)[from];
}

void BfsOracle::fill(NodeId dst_node, std::vector<std::int32_t>& out) const {
  out = graph_.dist_to(dst_node);
}

void BfsOracle::next_hops(NodeId from, NodeId dst_node,
                          std::vector<LinkId>& out) const {
  out.clear();
  next_hops_from_field(graph_, graph_.dist_to(dst_node), from, out);
}

}  // namespace hxmesh::topo
