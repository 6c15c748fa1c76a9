#include "topo/routing_oracle.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <unordered_map>

namespace hxmesh::topo {

namespace {
std::atomic<std::uint64_t> g_oracle_fills{0};
std::atomic<std::uint64_t> g_bfs_fills{0};
std::atomic<std::uint64_t> g_fault_views{0};
std::atomic<std::uint64_t> g_view_serial{0};

// The view every family without per-destination tables serves.
class NodeDistView final : public DistView {
 public:
  NodeDistView(const RoutingOracle& oracle, NodeId dst_node)
      : oracle_(oracle), dst_node_(dst_node) {}
  std::int32_t dist(NodeId n) const override {
    return oracle_.node_dist(n, dst_node_);
  }

 private:
  const RoutingOracle& oracle_;
  NodeId dst_node_;
};
}  // namespace

RoutingCounters routing_counters() {
  RoutingCounters c;
  c.oracle_fills = g_oracle_fills.load(std::memory_order_relaxed);
  c.bfs_fills = g_bfs_fills.load(std::memory_order_relaxed);
  c.fault_views = g_fault_views.load(std::memory_order_relaxed);
  return c;
}

namespace detail {
void count_fill(bool closed_form) {
  (closed_form ? g_oracle_fills : g_bfs_fills)
      .fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

std::unique_ptr<DistView> RoutingOracle::view(NodeId dst_node) const {
  return std::make_unique<NodeDistView>(*this, dst_node);
}

void RoutingOracle::fill(NodeId dst_node,
                         std::vector<std::int32_t>& out) const {
  const std::unique_ptr<DistView> v = view(dst_node);
  out.resize(graph_.num_nodes());
  for (NodeId u = 0; u < out.size(); ++u) out[u] = v->dist(u);
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

DegradedOracle::DegradedOracle(const RoutingOracle& healthy)
    : RoutingOracle(healthy.graph()),
      healthy_(healthy),
      views_(healthy.graph().num_nodes()) {}

DegradedOracle::~DegradedOracle() {
  for (const auto& slot : views_) delete slot.load(std::memory_order_relaxed);
}

std::int32_t DegradedOracle::View::patched_dist(NodeId n) const {
  auto it = std::lower_bound(
      patch_.begin(), patch_.end(), n,
      [](const std::pair<NodeId, std::int32_t>& e, NodeId v) {
        return e.first < v;
      });
  if (it != patch_.end() && it->first == n) return it->second;
  return healthy_->dist(n);
}

const DegradedOracle::View& DegradedOracle::patched(NodeId dst_node) const {
  std::atomic<const View*>& slot = views_[dst_node];
  if (const View* v = slot.load(std::memory_order_acquire)) return *v;
  std::unique_ptr<View> built = repair(dst_node);
  const View* expected = nullptr;
  // Racing builders compute the same view; the first one stays.
  if (!slot.compare_exchange_strong(expected, built.get(),
                                    std::memory_order_acq_rel))
    return *expected;
  g_fault_views.fetch_add(1, std::memory_order_relaxed);
  return *built.release();
}

std::unique_ptr<DegradedOracle::View> DegradedOracle::repair(
    NodeId dst_node) const {
  auto view = std::make_unique<View>();
  view->serial_ = g_view_serial.fetch_add(1, std::memory_order_relaxed) + 1;
  view->healthy_ = healthy_.view(dst_node);
  const DistView& healthy = *view->healthy_;
  const Graph& g = graph_;

  // Candidates as a min-heap of (healthy distance, node). A failed link
  // a -> b only matters when it was tight (on a minimal path toward the
  // destination).
  using Entry = std::pair<std::int32_t, NodeId>;
  std::vector<Entry> heap;
  auto push = [&heap](std::int32_t k, NodeId u) {
    heap.emplace_back(k, u);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  auto pop = [&heap] {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const Entry top = heap.back();
    heap.pop_back();
    return top;
  };
  for (LinkId l : g.failed_links()) {
    const Link& lnk = g.link(l);
    const std::int32_t d = healthy.dist(lnk.dst);
    if (d >= 0 && healthy.dist(lnk.src) == d + 1) push(d + 1, lnk.src);
  }
  if (heap.empty()) return view;

  // Decide the candidates in increasing-distance order, so the nodes one
  // hop closer are final when a candidate is examined (a candidate seen
  // twice is decided the same way twice). Only the affected ones are
  // recorded, in `repaired` with their new distance (-1 until reached).
  std::unordered_map<NodeId, std::int32_t> repaired;
  while (!heap.empty()) {
    const auto [k, u] = pop();
    if (repaired.count(u) != 0) continue;
    bool kept = false;
    for (LinkId l : g.out_links(u)) {
      const NodeId v = g.link(l).dst;
      if (!g.link_failed(l) && healthy.dist(v) + 1 == k &&
          (repaired.empty() || repaired.count(v) == 0)) {
        kept = true;
        break;
      }
    }
    if (kept) continue;
    repaired.emplace(u, -1);
    for (LinkId l : g.out_links(u)) {
      const NodeId w = g.link(l ^ 1u).src;  // in-neighbour: w -> u
      if (healthy.dist(w) == k + 1) push(k + 1, w);
    }
  }

  // Re-relax the affected region from its unaffected boundary (whose
  // distances are final), then inward over healthy in-links.
  for (auto& [u, du] : repaired) {
    for (LinkId l : g.out_links(u)) {
      const NodeId v = g.link(l).dst;
      if (g.link_failed(l) || repaired.count(v) != 0) continue;
      const std::int32_t dv = healthy.dist(v);
      if (dv >= 0 && (du < 0 || dv + 1 < du)) du = dv + 1;
    }
    if (du >= 0) push(du, u);
  }
  while (!heap.empty()) {
    const auto [k, u] = pop();
    if (repaired[u] != k) continue;  // stale entry
    for (LinkId l : g.out_links(u)) {
      const LinkId in = l ^ 1u;  // w -> u
      auto it = repaired.find(g.link(in).src);
      if (it == repaired.end() || g.link_failed(in)) continue;
      if (it->second < 0 || k + 1 < it->second) {
        it->second = k + 1;
        push(k + 1, it->first);
      }
    }
  }

  view->patch_.assign(repaired.begin(), repaired.end());
  std::sort(view->patch_.begin(), view->patch_.end());
  for (const auto& [n, d] : view->patch_)
    if (d < 0 && g.kind(n) == NodeKind::kEndpoint) {
      view->cut_off_ = n;
      break;
    }
  return view;
}

std::int32_t DegradedOracle::node_dist(NodeId from, NodeId dst_node) const {
  return patched(dst_node).dist(from);
}

void DegradedOracle::fill(NodeId dst_node,
                          std::vector<std::int32_t>& out) const {
  healthy_.fill(dst_node, out);
  for (const auto& [n, d] : patched(dst_node).patch()) out[n] = d;
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
