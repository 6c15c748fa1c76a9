#include "topo/hyperx.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hxmesh::topo {

// Closed-form oracle of the healthy fabric. From an endpoint the distance
// is grid_distance() — never hop_distance(), which on a faulted fabric
// asks the served DegradedOracle, i.e. this oracle again. From a switch it
// is 1 (ejection) plus one hop per differing grid coordinate (rows and
// columns are fully connected).
class HyperX::Oracle final : public RoutingOracle {
 public:
  explicit Oracle(const HyperX& t) : RoutingOracle(t.graph()), t_(t) {
    sw_of_node_.assign(t.graph().num_nodes(), -1);
    for (std::size_t i = 0; i < t.switches_.size(); ++i)
      sw_of_node_[t.switches_[i]] = static_cast<std::int32_t>(i);
  }

  std::int32_t node_dist(NodeId from, NodeId dst_node) const override {
    const int dd = t_.rank_of(dst_node);
    const int r = t_.rank_of(from);
    if (r >= 0) return t_.grid_distance(r, dd);
    const int s = sw_of_node_[from];
    const int sd = dd / t_.params_.endpoints_per_switch;
    if (s == sd) return 1;
    return 1 + (s % t_.params_.x != sd % t_.params_.x) +
           (s / t_.params_.x != sd / t_.params_.x);
  }

 private:
  const HyperX& t_;
  std::vector<std::int32_t> sw_of_node_;
};

HyperX::HyperX(HyperXParams params) : params_(params) {
  const int x = params_.x, y = params_.y;
  if (x < 2 || y < 2 || params_.endpoints_per_switch < 1)
    throw std::invalid_argument("HyperX: bad parameters");
  for (int i = 0; i < x * y; ++i) switches_.push_back(add_switch());
  for (int s = 0; s < x * y; ++s)
    for (int t = 0; t < params_.endpoints_per_switch; ++t) {
      int rank = add_endpoint();
      graph_.add_duplex(endpoint_node(rank), switches_[s], kLinkBandwidthBps,
                        kCableLatencyPs, CableKind::kDac);
    }
  // Rows fully connected (DAC in-row), columns fully connected (AoC).
  for (int r = 0; r < y; ++r)
    for (int c1 = 0; c1 < x; ++c1)
      for (int c2 = c1 + 1; c2 < x; ++c2)
        graph_.add_duplex(switches_[switch_at(c1, r)],
                          switches_[switch_at(c2, r)], kLinkBandwidthBps,
                          kCableLatencyPs, CableKind::kDac);
  for (int c = 0; c < x; ++c)
    for (int r1 = 0; r1 < y; ++r1)
      for (int r2 = r1 + 1; r2 < y; ++r2)
        graph_.add_duplex(switches_[switch_at(c, r1)],
                          switches_[switch_at(c, r2)], kLinkBandwidthBps,
                          kCableLatencyPs, CableKind::kAoc);
  finalize();
  set_routing_oracle(std::make_unique<Oracle>(*this));
}

LinkId HyperX::switch_link(int from, int to) const {
  const int x = params_.x, y = params_.y;
  // Index of pair lo < hi among the n*(n-1)/2 upper-triangle pairs.
  auto pair = [](int lo, int hi, int n) {
    return static_cast<LinkId>(lo * (2 * n - lo - 1) / 2 + (hi - lo - 1));
  };
  const int c1 = from % x, r1 = from / x, c2 = to % x, r2 = to / x;
  const LinkId row_pairs = static_cast<LinkId>(x * (x - 1) / 2);
  LinkId cable, reverse;
  if (r1 == r2) {
    cable = r1 * row_pairs + pair(std::min(c1, c2), std::max(c1, c2), x);
    reverse = c1 > c2;
  } else {
    assert(c1 == c2 && "switches share neither row nor column");
    cable = y * row_pairs + c1 * static_cast<LinkId>(y * (y - 1) / 2) +
            pair(std::min(r1, r2), std::max(r1, r2), y);
    reverse = r1 > r2;
  }
  return uplink(num_endpoints()) + 2 * cable + reverse;
}

void HyperX::sample_path(int src, int dst, Rng& rng, std::vector<LinkId>& out,
                         RouteMode mode) const {
  if (faulted() || mode != RouteMode::kMinimal)
    return Topology::sample_path(src, dst, rng, out, mode);
  route(src, dst, static_cast<int>(rng.uniform(1 << 20)), rng, out);
}

void HyperX::sample_path_stratified(int src, int dst, int k, int num_strata,
                                    Rng& rng, std::vector<LinkId>& out,
                                    RouteMode mode) const {
  if (faulted() || mode != RouteMode::kMinimal)
    return Topology::sample_path_stratified(src, dst, k, num_strata, rng, out,
                                            mode);
  (void)num_strata;
  std::uint32_t h = static_cast<std::uint32_t>(src) * 2654435761u ^
                    static_cast<std::uint32_t>(dst) * 0x9e3779b9u;
  route(src, dst, static_cast<int>((h >> 8) & 0xffff) + k, rng, out);
}

void HyperX::route(int src, int dst, int stratum, Rng& rng,
                   std::vector<LinkId>& out) const {
  (void)rng;
  out.clear();
  if (src == dst) return;
  const int s1 = src / params_.endpoints_per_switch;
  const int s2 = dst / params_.endpoints_per_switch;
  out.push_back(uplink(src));
  if (s1 != s2) {
    const int c1 = s1 % params_.x, r1 = s1 / params_.x;
    const int c2 = s2 % params_.x, r2 = s2 / params_.x;
    int cur = s1;
    auto hop = [&](int next) {
      out.push_back(switch_link(cur, next));
      cur = next;
    };
    if ((stratum & 1) != 0) {  // x first
      if (c1 != c2) hop(switch_at(c2, r1));
      if (r1 != r2) hop(switch_at(c2, r2));
    } else {
      if (r1 != r2) hop(switch_at(c1, r2));
      if (c1 != c2) hop(switch_at(c2, r2));
    }
  }
  out.push_back(downlink(dst));
}

}  // namespace hxmesh::topo
