#include "topo/topology.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace hxmesh::topo {

namespace {
// Fixed substream index of the fault-victim draw: keeps fault RNG
// consumption disjoint from the per-flow substreams even when a sweep
// reuses one seed for both axes.
constexpr std::uint64_t kFaultStream = 0x0fa0'17ed;
}

const char* route_mode_name(RouteMode mode) {
  switch (mode) {
    case RouteMode::kMinimal:
      return "minimal";
    case RouteMode::kValiant:
      return "valiant";
    case RouteMode::kUgal:
      return "ugal";
  }
  return "?";
}

RouteMode parse_route_mode(const std::string& text) {
  if (text == "minimal") return RouteMode::kMinimal;
  if (text == "valiant") return RouteMode::kValiant;
  if (text == "ugal") return RouteMode::kUgal;
  throw std::invalid_argument("parse_route_mode: unknown mode '" + text +
                              "' (minimal, valiant, ugal)");
}

int Topology::add_endpoint() {
  NodeId n = graph_.add_node(NodeKind::kEndpoint);
  endpoints_.push_back(n);
  return static_cast<int>(endpoints_.size() - 1);
}

NodeId Topology::add_switch() { return graph_.add_node(NodeKind::kSwitch); }

void Topology::finalize() {
  rank_of_node_.assign(graph_.num_nodes(), -1);
  for (std::size_t r = 0; r < endpoints_.size(); ++r)
    rank_of_node_[endpoints_[r]] = static_cast<std::int32_t>(r);
}

const RoutingOracle& Topology::routing_oracle() const {
  if (oracle_ && !graph_.has_failed_links()) return *oracle_;
  // Faulted built-in fabric: the closed form plus decremental repair.
  // Graphs without a closed form: reverse BFS.
  std::call_once(oracle_once_, [&] {
    if (oracle_)
      degraded_ = std::make_unique<DegradedOracle>(*oracle_);
    else
      bfs_ = std::make_unique<BfsOracle>(graph_);
  });
  if (degraded_) return *degraded_;
  return *bfs_;
}

const DegradedOracle::View* Topology::fault_view(NodeId dst_node) const {
  if (!oracle_ || !graph_.has_failed_links()) return nullptr;
  routing_oracle();  // makes degraded_
  const DegradedOracle::View& view = degraded_->patched(dst_node);
  if (view.cut_off() != kInvalidNode)
    throw_disconnected(view.cut_off(), dst_node);
  return &view;
}

void Topology::throw_disconnected(NodeId from, NodeId dst_node) const {
  throw DisconnectedError(name() + ": link faults disconnect endpoint " +
                          std::to_string(rank_of_node_[from]) +
                          " from endpoint " +
                          std::to_string(rank_of_node_[dst_node]));
}

int Topology::hop_distance(int src, int dst) const {
  const RoutingOracle& oracle = routing_oracle();
  const NodeId from = endpoint_node(src), goal = endpoint_node(dst);
  if (oracle.closed_form()) return oracle.node_dist(from, goal);
  if (const auto* view = fault_view(goal)) return view->dist(from);
  return (*dist_field(goal))[from];
}

void Topology::fail_links(std::span<const LinkId> links) {
  for (LinkId l : links) {
    graph_.set_link_failed(l);
    graph_.set_link_failed(l ^ 1u);  // duplex partner (add_duplex pairs)
  }
  // Views of earlier queries describe the earlier fault set.
  if (degraded_) degraded_ = std::make_unique<DegradedOracle>(*oracle_);
}

void Topology::apply_faults(const FaultSpec& spec) {
  if (spec.empty()) return;
  fault_spec_ = spec;
  const std::size_t cables = graph_.num_links() / 2;
  Rng rng = Rng::substream(spec.seed, kFaultStream);

  // Eligibility against the progressively degraded graph: failing this
  // cable must leave both of its endpoints with at least one healthy
  // out-link, so no node (in particular no single-cable fat-tree or
  // Dragonfly endpoint) is severed outright. Partitions across healthy
  // links are still possible and surface as DisconnectedError at fill.
  auto healthy_out = [&](NodeId n) {
    int count = 0;
    for (LinkId l : graph_.out_links(n))
      if (!graph_.link_failed(l)) ++count;
    return count;
  };
  auto fail_cable_if_eligible = [&](std::size_t cable) {
    const LinkId fwd = static_cast<LinkId>(2 * cable);
    const Link& lnk = graph_.link(fwd);
    if (healthy_out(lnk.src) < 2 || healthy_out(lnk.dst) < 2) return false;
    const LinkId pair[] = {fwd};
    fail_links(pair);
    return true;
  };

  if (spec.mode == FaultSpec::Mode::kFraction) {
    // One uniform per cable in cable-id order — the victim draw is a pure
    // function of (seed, cable id), independent of eligibility outcomes.
    std::vector<std::size_t> victims;
    for (std::size_t c = 0; c < cables; ++c)
      if (rng.uniform_double() < spec.fraction) victims.push_back(c);
    for (std::size_t c : victims) fail_cable_if_eligible(c);
    return;
  }

  // kCount: seeded shuffle, first `count` eligible cables fail.
  std::vector<std::uint32_t> order(cables);
  for (std::size_t c = 0; c < cables; ++c)
    order[c] = static_cast<std::uint32_t>(c);
  rng.shuffle(order);
  int remaining = spec.count;
  for (std::uint32_t c : order) {
    if (remaining == 0) break;
    if (fail_cable_if_eligible(c)) --remaining;
  }
}

Topology::DistField Topology::dist_field(NodeId dst_node) const {
  // Endpoint destinations go through the oracle (closed form on every
  // built-in family, patched when faulted); switch destinations — which
  // no hot path requests — keep the reverse BFS.
  auto field = std::make_shared<std::vector<std::int32_t>>();
  if (graph_.kind(dst_node) == NodeKind::kEndpoint) {
    routing_oracle().fill(dst_node, *field);
    detail::count_fill(/*closed_form=*/oracle_ != nullptr);
    if (graph_.has_failed_links()) {
      // Faults may partition the fabric; surface that as a typed error at
      // fill time instead of letting -1 distances silently poison route
      // tables and rate solvers downstream.
      for (NodeId e : endpoints_)
        if ((*field)[e] < 0) throw_disconnected(e, dst_node);
    }
  } else {
    *field = graph_.dist_to(dst_node);
    detail::count_fill(false);
  }
  return field;
}

void Topology::sample_path(int src, int dst, Rng& rng,
                           std::vector<LinkId>& out, RouteMode mode) const {
  if (mode == RouteMode::kValiant) return sample_valiant_path(src, dst, rng, out);
  if (mode == RouteMode::kUgal && rng.uniform(2) != 0)
    return sample_valiant_path(src, dst, rng, out);
  // Minimal (also UGAL's minimal half): random minimal walk — at each node
  // pick uniformly among healthy links that strictly decrease the
  // distance, in out-link order.
  out.clear();
  NodeId cur = endpoint_node(src);
  const NodeId goal = endpoint_node(dst);
  if (cur == goal) return;
  // The subflows of one flow walk the same nodes toward the same
  // destination back to back, so each thread keeps the candidate lists of
  // the nodes it walked last, keyed by the serial of the view they came
  // from (0: a fresh field, not kept).
  struct Candidates {
    std::uint64_t serial = 0;
    NodeId node = kInvalidNode;
    std::vector<LinkId> links;
  };
  thread_local std::array<Candidates, 16> memo;
  auto walk = [&](auto&& dist, std::uint64_t serial) {
    std::int32_t d = dist(cur);
    assert(d >= 0 && "destination unreachable");
    for (; cur != goal; --d) {
      Candidates& c = memo[cur % memo.size()];
      if (serial == 0 || c.serial != serial || c.node != cur) {
        c.serial = serial;
        c.node = cur;
        c.links.clear();
        for (LinkId l : graph_.out_links(cur))
          if (!graph_.link_failed(l) && dist(graph_.link(l).dst) == d - 1)
            c.links.push_back(l);
      }
      assert(!c.links.empty());
      const LinkId pick = c.links[rng.uniform(c.links.size())];
      out.push_back(pick);
      cur = graph_.link(pick).dst;
    }
  };
  if (const auto* view = fault_view(goal))
    return walk([view](NodeId n) { return view->dist(n); }, view->serial());
  const DistField field = dist_field(goal);
  walk([&f = *field](NodeId n) { return f[n]; }, 0);
}

void Topology::sample_path_stratified(int src, int dst, int k, int num_strata,
                                      Rng& rng, std::vector<LinkId>& out,
                                      RouteMode mode) const {
  (void)num_strata;
  if (mode == RouteMode::kValiant)
    return sample_valiant_path(src, dst, rng, out);
  if (mode == RouteMode::kUgal) {
    // Deterministic 50/50 over the strata: odd subflows detour, even ones
    // stay minimal — the subflow ensemble realizes the mode's mix without
    // consuming an extra RNG draw per path.
    if ((k & 1) != 0) return sample_valiant_path(src, dst, rng, out);
    return sample_path_stratified(src, dst, k, num_strata, rng, out,
                                  RouteMode::kMinimal);
  }
  sample_path(src, dst, rng, out, RouteMode::kMinimal);
}

void Topology::sample_valiant_path(int src, int dst, Rng& rng,
                                   std::vector<LinkId>& out) const {
  out.clear();
  if (src == dst) return;
  const int n = num_endpoints();
  if (n <= 2) return sample_path(src, dst, rng, out, RouteMode::kMinimal);
  int mid = src;
  while (mid == src || mid == dst) mid = static_cast<int>(rng.uniform(n));
  sample_path(src, mid, rng, out, RouteMode::kMinimal);
  std::vector<LinkId> tail;
  sample_path(mid, dst, rng, tail, RouteMode::kMinimal);
  out.insert(out.end(), tail.begin(), tail.end());
}

int Topology::diameter(int exact_limit) const {
  int n = num_endpoints();
  std::vector<int> sources;
  if (n <= exact_limit) {
    sources.resize(n);
    for (int i = 0; i < n; ++i) sources[i] = i;
  } else {
    // Deterministic stratified sample. The +1 skew makes successive
    // sources sweep the intra-board/intra-leaf coordinate classes: a plain
    // stride is typically a multiple of the row length, which would alias
    // every source to one column and miss the true eccentricity on
    // families that are only transitive up to those classes (HammingMesh
    // boards, fat-tree leaves).
    int stride = std::max(1, n / 128) + 1;
    for (int i = 0; i < n; i += stride) sources.push_back(i);
  }
  int best = 0;
  const RoutingOracle& oracle = routing_oracle();
  if (oracle.closed_form()) {
    // O(1) per pair: no graph search at all.
    for (int s : sources) {
      const NodeId sn = endpoint_node(s);
      for (int t = 0; t < n; ++t)
        best = std::max(best,
                        static_cast<int>(oracle.node_dist(sn, endpoint_node(t))));
    }
    return best;
  }
  for (int s : sources) {
    auto dist = graph_.dist_from(endpoint_node(s));
    for (int t = 0; t < n; ++t)
      best = std::max(best, static_cast<int>(dist[endpoint_node(t)]));
  }
  return best;
}

}  // namespace hxmesh::topo
