#include "topo/graph.hpp"

#include <algorithm>
#include <deque>

namespace hxmesh::topo {

NodeId Graph::add_node(NodeKind kind) {
  kinds_.push_back(kind);
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(kinds_.size() - 1);
}

LinkId Graph::add_link(NodeId src, NodeId dst, double bandwidth_bps,
                       picoseconds latency_ps, CableKind cable) {
  links_.push_back(Link{src, dst, bandwidth_bps, latency_ps, cable});
  auto id = static_cast<LinkId>(links_.size() - 1);
  out_[src].push_back(id);
  in_[dst].push_back(id);
  return id;
}

LinkId Graph::add_duplex(NodeId a, NodeId b, double bandwidth_bps,
                         picoseconds latency_ps, CableKind cable) {
  LinkId first = add_link(a, b, bandwidth_bps, latency_ps, cable);
  add_link(b, a, bandwidth_bps, latency_ps, cable);
  return first;
}

std::vector<LinkId> Graph::links_between(NodeId a, NodeId b) const {
  std::vector<LinkId> result;
  for (LinkId l : out_[a])
    if (links_[l].dst == b) result.push_back(l);
  return result;
}

LinkId Graph::find_link(NodeId a, NodeId b) const {
  for (LinkId l : out_[a])
    if (links_[l].dst == b) return l;
  return kInvalidLink;
}

const Graph::BundleIndex& Graph::bundle_index() const {
  std::call_once(bundle_once_, [this] {
    auto idx = std::make_unique<BundleIndex>();
    idx->node_off.resize(num_nodes() + 1, 0);
    idx->links.reserve(links_.size());
    std::vector<std::pair<NodeId, LinkId>> scratch;
    for (NodeId n = 0; n < num_nodes(); ++n) {
      idx->node_off[n] = static_cast<std::uint32_t>(idx->pair_dst.size());
      scratch.clear();
      for (LinkId l : out_[n]) scratch.emplace_back(links_[l].dst, l);
      // Group by destination, sorted by node id for binary search; the
      // stable sort keeps parallel links in out-link order, so a bundle
      // enumerates them exactly as links_between() does.
      std::stable_sort(scratch.begin(), scratch.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      for (std::size_t i = 0; i < scratch.size(); ++i) {
        if (i == 0 || scratch[i].first != scratch[i - 1].first) {
          idx->pair_dst.push_back(scratch[i].first);
          idx->pair_off.push_back(static_cast<std::uint32_t>(idx->links.size()));
        }
        idx->links.push_back(scratch[i].second);
      }
    }
    idx->node_off[num_nodes()] = static_cast<std::uint32_t>(idx->pair_dst.size());
    idx->pair_off.push_back(static_cast<std::uint32_t>(idx->links.size()));
    bundles_ = std::move(idx);
  });
  return *bundles_;
}

std::span<const LinkId> Graph::bundle(NodeId a, NodeId b) const {
  const BundleIndex& idx = bundle_index();
  const auto* first = idx.pair_dst.data() + idx.node_off[a];
  const auto* last = idx.pair_dst.data() + idx.node_off[a + 1];
  const auto* it = std::lower_bound(first, last, b);
  if (it == last || *it != b) return {};
  const std::size_t pair = static_cast<std::size_t>(it - idx.pair_dst.data());
  return {idx.links.data() + idx.pair_off[pair],
          idx.pair_off[pair + 1] - idx.pair_off[pair]};
}

void Graph::set_link_failed(LinkId l, bool failed) {
  if (failed_.size() < links_.size()) failed_.resize(links_.size(), 0);
  if ((failed_[l] != 0) == failed) return;
  failed_[l] = failed ? 1 : 0;
  if (failed)
    failed_list_.push_back(l);
  else
    failed_list_.erase(
        std::find(failed_list_.begin(), failed_list_.end(), l));
}

namespace {

std::vector<std::int32_t> bfs(
    NodeId start, std::size_t n,
    const std::vector<std::vector<LinkId>>& adjacency,
    const std::vector<Link>& links, bool follow_src,
    const std::vector<std::uint8_t>& failed) {
  std::vector<std::int32_t> dist(n, -1);
  std::deque<NodeId> queue;
  dist[start] = 0;
  queue.push_back(start);
  const bool any_failed = !failed.empty();
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (LinkId l : adjacency[u]) {
      if (any_failed && failed[l]) continue;
      NodeId v = follow_src ? links[l].src : links[l].dst;
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<std::int32_t> Graph::dist_to(NodeId dst) const {
  static const std::vector<std::uint8_t> kNoFailures;
  return bfs(dst, num_nodes(), in_, links_, /*follow_src=*/true,
             has_failed_links() ? failed_ : kNoFailures);
}

std::vector<std::int32_t> Graph::dist_from(NodeId src) const {
  static const std::vector<std::uint8_t> kNoFailures;
  return bfs(src, num_nodes(), out_, links_, /*follow_src=*/false,
             has_failed_links() ? failed_ : kNoFailures);
}

}  // namespace hxmesh::topo
