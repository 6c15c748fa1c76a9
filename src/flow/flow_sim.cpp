#include "flow/flow_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <utility>

#include "core/thread_pool.hpp"

namespace hxmesh::flow {

namespace {
// Flows per sampling job: big enough that the parallel_for dispatch is
// noise, small enough to load-balance uneven path lengths.
constexpr std::size_t kSampleChunk = 256;
// Below this many flows a pool spin-up costs more than it saves; the
// sampled paths are identical either way (per-flow substreams), so the
// threshold shapes only wall-clock.
constexpr std::size_t kParallelSamplingMin = 2048;
}  // namespace

FlowSolver::FlowSolver(const topo::Topology& topology, FlowSolverConfig config)
    : topology_(topology), config_(config) {}

// Progressive filling, restructured to O(active) per round.
//
// The classic formulation rescans every link and every subflow each round.
// Here the scan set shrinks as the solve converges: an active-link array
// carries exactly the links still crossed by unfrozen subflows, and a
// link -> crossing-subflows index freezes exactly the subflows of a link
// the moment it saturates. Because every subflow is active from round 0
// until it freezes, its rate equals the global running sum of deltas at
// freeze time — the same left-to-right float additions the per-subflow
// accumulation performed — so the computed rates are bit-identical to the
// full-rescan formulation, round for round.
bool FlowSolver::solve(std::vector<Flow>& flows,
                       topo::RouteMode route) const {
  const topo::Graph& g = topology_.graph();

  // Sample subflow paths. Each flow draws from its own counter-seeded RNG
  // substream, so chunks of flows are independent jobs: the fan-out over
  // the pool produces exactly the serial paths for every worker count.
  // Chunks land in per-chunk buffers and are flattened in flow order
  // below, which keeps the downstream filling identical to a serial
  // sampling loop.
  struct Chunk {
    std::vector<topo::LinkId> links;  // concatenated sampled paths
    std::vector<std::pair<int, std::uint32_t>> subs;  // (flow, path length)
  };
  const std::size_t nchunks =
      (flows.size() + kSampleChunk - 1) / kSampleChunk;
  std::vector<Chunk> chunks(nchunks);
  auto sample_chunk = [&](std::size_t c) {
    Chunk& chunk = chunks[c];
    std::vector<topo::LinkId> path;
    const std::size_t lo = c * kSampleChunk;
    const std::size_t hi = std::min(flows.size(), lo + kSampleChunk);
    for (std::size_t f = lo; f < hi; ++f) {
      if (flows[f].src == flows[f].dst) continue;
      Rng rng = Rng::substream(config_.seed, f);
      for (int k = 0; k < config_.paths_per_flow; ++k) {
        topology_.sample_path_stratified(flows[f].src, flows[f].dst, k,
                                         config_.paths_per_flow, rng, path,
                                         route);
        chunk.subs.emplace_back(static_cast<int>(f),
                                static_cast<std::uint32_t>(path.size()));
        chunk.links.insert(chunk.links.end(), path.begin(), path.end());
      }
    }
  };
  if (config_.sample_threads != 1 && flows.size() >= kParallelSamplingMin) {
    ThreadPool pool(config_.sample_threads);
    pool.parallel_for(nchunks, sample_chunk);
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) sample_chunk(c);
  }

  // Flatten in flow order. Each link gets a dense local id the first time
  // a path crosses it, and path_links holds local ids from here on, so
  // every per-link array below is sized by the links this solve touches.
  // The per-subflow state is SoA — flow id / first link / link count here,
  // rate and the frozen flag below — so the fused round passes and the
  // final rate accumulation stream through flat arrays.
  for (Flow& f : flows) f.rate = 0.0;
  std::vector<int> sub_flow;
  std::vector<std::uint32_t> sub_first;
  std::vector<std::uint32_t> sub_count;
  std::vector<std::uint32_t> path_links;
  std::vector<topo::LinkId> touched;        // local id -> link id
  std::vector<std::uint32_t> active_count;  // local id -> unfrozen crossers
  {
    std::size_t total_subs = 0, total_links = 0;
    for (const Chunk& chunk : chunks) {
      total_subs += chunk.subs.size();
      total_links += chunk.links.size();
    }
    sub_flow.reserve(total_subs);
    sub_first.reserve(total_subs);
    sub_count.reserve(total_subs);
    path_links.reserve(total_links);
  }
  {
    std::lock_guard<std::mutex> lock(local_mu_);
    if (!local_id_) {
      local_id_.reset(static_cast<std::uint32_t*>(
          std::calloc(g.num_links(), sizeof(std::uint32_t))));
      if (!local_id_) throw std::bad_alloc();
    }
    std::uint32_t* const local_id = local_id_.get();
    // Leaves the map all-zero for the next solve, also if a push throws.
    struct Clear {
      std::uint32_t* local_id;
      const std::vector<topo::LinkId>& touched;
      ~Clear() {
        for (topo::LinkId l : touched) local_id[l] = 0;
      }
    } clear{local_id, touched};
    for (const Chunk& chunk : chunks) {
      std::size_t pos = 0;
      for (const auto& [f, count] : chunk.subs) {
        sub_flow.push_back(f);
        sub_first.push_back(static_cast<std::uint32_t>(path_links.size()));
        sub_count.push_back(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          std::uint32_t& slot = local_id[chunk.links[pos + i]];
          if (slot == 0) {
            touched.push_back(chunk.links[pos + i]);
            active_count.push_back(0);
            slot = static_cast<std::uint32_t>(touched.size());
          }
          ++active_count[slot - 1];
          path_links.push_back(slot - 1);
        }
        pos += count;
      }
    }
  }
  const std::size_t num_subs = sub_flow.size();
  const std::size_t num_local = touched.size();

  std::vector<double> residual(num_local);
  for (std::size_t l = 0; l < num_local; ++l)
    residual[l] = g.link(touched[l]).bandwidth_bps;
  // Link -> crossing subflows (CSR). A subflow appears in a link's row
  // once per crossing, so the row width starts out equal to the link's
  // active-crosser count.
  std::vector<std::uint32_t> link_off(num_local + 1, 0);
  for (std::size_t l = 0; l < num_local; ++l)
    link_off[l + 1] = link_off[l] + active_count[l];
  // Uninitialized on purpose: the scatter below writes every slot (the
  // offsets were counted from exactly these path links). Like all state
  // here it is sized by this solve's paths, one entry per crossing, and
  // zero-filling it first is measurable at hx2mesh:64x64 scale.
  std::unique_ptr<std::uint32_t[]> link_subs(
      new std::uint32_t[path_links.size()]);
  {
    std::vector<std::uint32_t> fill(link_off.begin(), link_off.end() - 1);
    for (std::size_t si = 0; si < num_subs; ++si)
      for (std::uint32_t i = 0; i < sub_count[si]; ++i)
        link_subs[fill[path_links[sub_first[si] + i]]++] =
            static_cast<std::uint32_t>(si);
  }

  // The compacted active set: links still carrying unfrozen subflows.
  // Every touched link starts in it. Its order (first touch, not link id)
  // is invisible: the rounds take a minimum over it and freeze every
  // subflow of a round at the same fill level.
  std::vector<std::uint32_t> active_links(num_local);
  for (std::size_t l = 0; l < num_local; ++l)
    active_links[l] = static_cast<std::uint32_t>(l);

  std::vector<std::uint8_t> active(num_subs, 1);
  // Uninitialized on purpose: every subflow's slot is written exactly once
  // — at freeze time, or by the leftover sweep after the filling loop.
  std::unique_ptr<double[]> rate(new double[num_subs]);
  double cum = 0.0;  // sum of all deltas so far == rate of an active subflow
  const double eps = 1e-6 * kLinkBandwidthBps;
  std::size_t remaining = num_subs;

  auto freeze = [&](std::uint32_t si) {
    active[si] = 0;
    rate[si] = cum;
    --remaining;
    const std::uint32_t first = sub_first[si];
    const std::uint32_t count = sub_count[si];
    for (std::uint32_t i = 0; i < count; ++i)
      --active_count[path_links[first + i]];
  };

  // Each round is two passes over the active links: (1) apply the fill
  // delta and collect the links it saturated, (2) drop the links whose
  // crossers all froze while computing the next round's fair-share
  // minimum from the surviving values. Both use exactly the per-link
  // arithmetic of the one-pass-per-phase formulation, so deltas — and
  // therefore every rate — are bit-identical to it.
  std::vector<std::uint32_t> saturated;
  double delta = std::numeric_limits<double>::infinity();
  for (std::uint32_t l : active_links)
    delta = std::min(delta, residual[l] / active_count[l]);

  for (int round = 0; round < config_.max_filling_rounds && remaining > 0;
       ++round) {
    if (!std::isfinite(delta)) break;
    cum += delta;

    // A link is saturated when its residual share is (numerically) gone;
    // every unfrozen subflow crossing it freezes this round. The frozen
    // subflows' other links lose active crossers and may drop out of the
    // compaction below without ever saturating themselves.
    saturated.clear();
    for (std::uint32_t l : active_links) {
      const double r = residual[l] - delta * active_count[l];
      residual[l] = r;
      if (r <= eps) saturated.push_back(l);
    }
    // Freezing is O(frozen subflows' path links), which sums to the total
    // incidence count over the whole solve; its active_count decrements
    // feed the very next pass.
    for (std::uint32_t l : saturated)
      for (std::uint32_t i = link_off[l]; i < link_off[l + 1]; ++i)
        if (active[link_subs[i]]) freeze(link_subs[i]);

    double next = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (std::uint32_t l : active_links) {
      if (active_count[l] == 0) continue;
      active_links[kept++] = l;
      next = std::min(next, residual[l] / active_count[l]);
    }
    active_links.resize(kept);
    delta = next;
  }

  // Non-finite delta (the unfrozen subflows cross no link) or the round
  // cap: unfrozen subflows keep the current fill. Only the cap leaves a
  // finite share on the table, so only it counts as not converged.
  const bool converged = remaining == 0 || !std::isfinite(delta);
  for (std::uint32_t si = 0; si < num_subs; ++si)
    if (active[si]) rate[si] = cum;

  for (std::size_t si = 0; si < num_subs; ++si)
    flows[sub_flow[si]].rate += rate[si];
  return converged;
}

}  // namespace hxmesh::flow
