// Flow-level steady-state network simulator.
//
// Computes max-min fair bandwidth shares for a set of flows with infinite
// demand. Each flow is spread over `paths_per_flow` randomly sampled minimal
// paths (approximating the packet-level adaptive routing the paper assumes);
// progressive filling then raises all subflow rates together, freezing
// subflows as links saturate. The filling is incremental — each round
// touches only the links still crossed by unfrozen subflows, and a
// saturating link freezes exactly its crossers through a link->subflows
// index — but produces bit-identical rates to the classic full-rescan
// formulation (tests/test_determinism.cpp keeps that reference alive).
//
// Every per-solve array is sized by the links the sampled paths cross,
// not by the graph: each crossed link gets a dense local id in first-touch
// order, and only those links' bandwidths are read. A Table II HyperX
// (hyperx:128x128) has 4.2M directed links; one alltoall shift crosses
// 1-2% of them.
//
// Path sampling draws each flow's paths from its own counter-seeded RNG
// substream (Rng::substream(seed, flow index)), which makes flows
// independent: large flow sets sample in parallel over a thread pool with
// rates that are bit-identical for every worker count, including one.
// The paths themselves come from Topology::sample_path_stratified: closed
// forms on healthy built-in families, and on a faulted one a walk over the
// destination's view (closed form plus a sparse patch), so a path costs
// O(path length) and no whole distance field is rendered.
//
// This reproduces the steady-state bandwidth numbers of Table II and
// Figures 11-13/17 for large messages; the packet-level simulator
// (src/sim) cross-validates it at small scale.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "core/rng.hpp"
#include "topo/topology.hpp"

namespace hxmesh::flow {

/// One flow between two accelerators. `rate` is filled in by solve().
struct Flow {
  int src = 0;
  int dst = 0;
  double rate = 0.0;  // bytes/s, output of the solver
};

struct FlowSolverConfig {
  int paths_per_flow = 8;
  std::uint64_t seed = 0x5eed;
  // Progressive-filling safety cap. A solve that reaches it gives its
  // still-unfrozen subflows the current fill level and reports that it
  // did not converge (solve() returns false).
  int max_filling_rounds = 400;
  // Worker threads for the path-sampling fan-out: 0 uses $HXMESH_THREADS
  // (else the hardware concurrency), 1 forces serial sampling. Never
  // changes the computed rates — only wall-clock.
  int sample_threads = 0;
  // Path selection mode handed to sample_path_stratified: minimal,
  // Valiant (random-intermediate detours), or UGAL (deterministic 50/50
  // minimal/detour mix over the subflow strata).
  topo::RouteMode route = topo::RouteMode::kMinimal;
};

class FlowSolver {
 public:
  explicit FlowSolver(const topo::Topology& topology,
                      FlowSolverConfig config = {});

  /// Computes max-min fair rates for all flows (bytes/s, written into
  /// flows[i].rate). Flows with src == dst get rate 0 and are ignored.
  /// Returns false when the filling stopped at `max_filling_rounds` with
  /// subflows still unfrozen: those rates are a lower bound, not the
  /// max-min answer. Safe to call concurrently on one solver.
  bool solve(std::vector<Flow>& flows) const {
    return solve(flows, config_.route);
  }
  /// Same, with the routing mode overridden per call (engines route one
  /// solver instance under every TrafficSpec of a sweep).
  bool solve(std::vector<Flow>& flows, topo::RouteMode route) const;

  const topo::Topology& topology() const { return topology_; }
  const FlowSolverConfig& config() const { return config_; }

 private:
  struct FreeDeleter {
    void operator()(std::uint32_t* p) const { std::free(p); }
  };

  const topo::Topology& topology_;
  FlowSolverConfig config_;
  // Link id -> local id + 1 of the solve holding the lock, 0 when unset.
  // Calloc'd on the first solve, so zeroing it is left to the allocator,
  // and all-zero between solves: each solve clears exactly what it set.
  mutable std::mutex local_mu_;
  mutable std::unique_ptr<std::uint32_t[], FreeDeleter> local_id_;
};

}  // namespace hxmesh::flow
