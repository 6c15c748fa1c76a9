#include "workload/comm_env.hpp"

#include <algorithm>
#include <cassert>

#include "engine/flow_engine.hpp"
#include "flow/patterns.hpp"

namespace hxmesh::workload {

namespace {
// Per-hop pipeline latency: cable + buffer + one packet serialization.
double per_hop_seconds() {
  return ps_to_s(kCableLatencyPs + kBufferLatencyPs) +
         static_cast<double>(kPacketBytes) / kLinkBandwidthBps;
}
}  // namespace

CommEnv::CommEnv(const topo::Topology& topology, flow::FlowSolverConfig config)
    : topology_(topology), config_(config) {
  plane_factor_ = topology.ports_per_endpoint() == 1 ? 4 : 1;
}

MappedRing CommEnv::measure(
    const std::vector<std::vector<int>>& rings) const {
  MappedRing result;
  if (rings.empty() || rings[0].size() < 2) {
    result.p = rings.empty() ? 0 : 1;
    result.rate_bps = kLinkBandwidthBps;
    result.alpha_s = 0.0;
    return result;
  }
  result.p = static_cast<int>(rings[0].size());
  std::vector<flow::Flow> flows;
  double dist_sum = 0.0;
  int steps = 0;
  for (const auto& ring : rings) {
    auto f = flow::ring_flows(ring, /*bidirectional=*/true);
    flows.insert(flows.end(), f.begin(), f.end());
    int n = static_cast<int>(ring.size());
    int stride = std::max(1, n / 64);
    for (int i = 0; i < n; i += stride) {
      dist_sum += topology_.hop_distance(ring[i], ring[(i + 1) % n]);
      ++steps;
    }
  }
  engine::FlowEngine(topology_, config_).solve(flows);
  double min_rate = flows.front().rate;
  for (const flow::Flow& f : flows) min_rate = std::min(min_rate, f.rate);
  result.rate_bps = min_rate;
  result.alpha_s = (steps ? dist_sum / steps : 1.0) * per_hop_seconds();
  return result;
}

MappedRing CommEnv::rings_consecutive(int n, int group_size) const {
  std::vector<std::vector<int>> rings;
  for (int base = 0; base + group_size <= n; base += group_size) {
    std::vector<int> ring(group_size);
    for (int i = 0; i < group_size; ++i) ring[i] = base + i;
    rings.push_back(std::move(ring));
  }
  return measure(rings);
}

MappedRing CommEnv::rings_strided(int n, int stride) const {
  std::vector<std::vector<int>> rings;
  for (int o = 0; o < stride; ++o) {
    std::vector<int> ring;
    for (int r = o; r < n; r += stride) ring.push_back(r);
    if (ring.size() >= 2) rings.push_back(std::move(ring));
  }
  return measure(rings);
}

double CommEnv::alltoall_rate(int n, bool* converged) const {
  engine::FlowEngine solver(topology_, config_);
  double total = 0.0;
  int samples = 0;
  int stride = std::max(1, (n - 1) / 8);
  for (int shift = 1; shift < n; shift += stride) {
    auto flows = flow::shift_pattern(n, shift);
    if (!solver.solve(flows) && converged) *converged = false;
    for (const flow::Flow& f : flows) total += f.rate;
    samples += n;
  }
  return samples ? total / samples : 0.0;
}

double CommEnv::alltoall_alpha(int n) const {
  // Average hop distance over a sampled shift.
  double dist = 0.0;
  int samples = 0;
  int stride = std::max(1, n / 64);
  for (int i = 0; i < n; i += stride) {
    dist += topology_.hop_distance(i, (i + n / 2 + 1) % n);
    ++samples;
  }
  return (samples ? dist / samples : 1.0) * per_hop_seconds();
}

double CommEnv::t_allreduce(const MappedRing& ring, double s_bytes) const {
  if (ring.p <= 1) return 0.0;
  // Bidirectional ring per plane; data split across planes.
  double per_plane = s_bytes / plane_factor_;
  return 2.0 * ring.p * ring.alpha_s + per_plane / ring.rate_bps;
}

double CommEnv::t_p2p(const MappedRing& ring, double s_bytes) const {
  double per_plane = s_bytes / plane_factor_;
  return ring.alpha_s + per_plane / ring.rate_bps;
}

double CommEnv::t_alltoall(int p, double per_pair_bytes) const {
  if (p <= 1) return 0.0;
  double rate = alltoall_rate(p);  // per plane; data splits across planes
  double alpha = alltoall_alpha(p);
  return (p - 1) * (alpha + per_pair_bytes / plane_factor_ / rate);
}

}  // namespace hxmesh::workload
