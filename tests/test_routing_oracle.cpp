// Oracle-vs-BFS equivalence: every closed-form routing oracle must agree
// with a real reverse BFS on hop distances (all nodes, including rail and
// tree switches), minimal next-hop candidate sets (membership AND order),
// and sampled-path minimality — for every topology family, including
// asymmetric boards and degenerate 1-wide meshes. These tests are what
// license the hot paths (path sampling, dist_field) to skip BFS.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/factory.hpp"
#include "flow/patterns.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/hyperx.hpp"
#include "topo/routing_oracle.hpp"
#include "topo/torus.hpp"

namespace hxmesh::topo {
namespace {

using Instance = std::pair<std::string, std::unique_ptr<Topology>>;

// Every family instance under test, chosen to cover the structural
// variants: single-switch and fat-tree rails, tapered rails, two- and
// three-level fat trees, asymmetric and 1-wide boards, single-board
// dimensions, odd torus rings.
std::vector<Instance> oracle_zoo() {
  std::vector<Instance> out;
  auto add = [&](std::string name, std::unique_ptr<Topology> t) {
    out.emplace_back(std::move(name), std::move(t));
  };
  add("hx2mesh:4x4", std::make_unique<HammingMesh>(
                         HxMeshParams{.a = 2, .b = 2, .x = 4, .y = 4}));
  add("hx2mesh rail trees",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 2, .b = 2, .x = 6, .y = 6, .radix = 8}));
  add("hx2mesh tapered rail trees",
      std::make_unique<HammingMesh>(HxMeshParams{
          .a = 2, .b = 2, .x = 6, .y = 6, .radix = 8, .rail_taper = 0.5}));
  add("hxmesh:2x4:3x3 asymmetric board",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 2, .b = 4, .x = 3, .y = 3}));
  add("hxmesh:1x4:4x2 one-wide board",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 1, .b = 4, .x = 4, .y = 2}));
  add("hxmesh:3x2:4x3", std::make_unique<HammingMesh>(
                            HxMeshParams{.a = 3, .b = 2, .x = 4, .y = 3}));
  add("hxmesh:1x1 HyperX degenerate",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 1, .b = 1, .x = 6, .y = 6}));
  add("hxmesh single board column",
      std::make_unique<HammingMesh>(
          HxMeshParams{.a = 2, .b = 2, .x = 1, .y = 5}));
  add("torus:8x6", std::make_unique<Torus>(
                       TorusParams{.width = 8, .height = 6}));
  add("torus:5x7 odd rings", std::make_unique<Torus>(
                                 TorusParams{.width = 5, .height = 7}));
  add("torus:2x4 wrapless dimension",
      std::make_unique<Torus>(TorusParams{.width = 2, .height = 4}));
  add("hyperx:4x3", std::make_unique<HyperX>(HyperXParams{.x = 4, .y = 3}));
  add("fattree two-level", std::make_unique<FatTree>(FatTreeParams{
                               .num_endpoints = 96, .radix = 8}));
  add("fattree two-level tapered",
      std::make_unique<FatTree>(
          FatTreeParams{.num_endpoints = 96, .radix = 8, .taper = 0.5}));
  // 100 endpoints at radix 8: 7 pods, within the radix-8 core budget
  // (ceil(pods/2) <= radix/2 — the builder's three-level precondition).
  add("fattree three-level", std::make_unique<FatTree>(FatTreeParams{
                                 .num_endpoints = 100, .radix = 8}));
  add("dragonfly", std::make_unique<Dragonfly>(
                       DragonflyParams{.routers_per_group = 8,
                                       .endpoints_per_router = 4,
                                       .global_per_router = 4,
                                       .groups = 5}));
  return out;
}

// A modest stride keeps the quadratic sweeps fast while still touching
// every coordinate class (strides are coprime to the board sizes in use).
int dst_stride(const Topology& t) {
  return std::max(1, t.num_endpoints() / 40) | 1;
}

TEST(RoutingOracle, EveryFamilyInstallsAClosedForm) {
  for (const auto& [name, t] : oracle_zoo())
    EXPECT_TRUE(t->routing_oracle().closed_form()) << name;
}

// node_dist and fill must equal reverse BFS for every node of the graph —
// endpoints, rail leaves, rail spines, tree switches, routers — toward
// every sampled destination endpoint.
TEST(RoutingOracle, NodeDistancesAndFillsMatchBfsEverywhere) {
  for (const auto& [name, t] : oracle_zoo()) {
    const Graph& g = t->graph();
    const RoutingOracle& oracle = t->routing_oracle();
    std::vector<std::int32_t> field;
    for (int dst = 0; dst < t->num_endpoints(); dst += dst_stride(*t)) {
      const NodeId goal = t->endpoint_node(dst);
      const auto bfs = g.dist_to(goal);
      oracle.fill(goal, field);
      ASSERT_EQ(field.size(), bfs.size()) << name;
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        ASSERT_EQ(field[n], bfs[n])
            << name << ": fill diverged at node " << n << " (kind "
            << (g.kind(n) == NodeKind::kEndpoint ? "endpoint" : "switch")
            << ") toward endpoint " << dst;
        ASSERT_EQ(oracle.node_dist(n, goal), bfs[n])
            << name << ": node_dist diverged at node " << n << " toward "
            << dst;
      }
    }
  }
}

// Candidate sets must match the BFS-field filter exactly — same links, in
// the same (out-link) order. Order is what keeps packet-sim tie-breaking
// and sample_path RNG consumption bit-identical.
TEST(RoutingOracle, NextHopCandidatesMatchBfsMembershipAndOrder) {
  for (const auto& [name, t] : oracle_zoo()) {
    const Graph& g = t->graph();
    const RoutingOracle& oracle = t->routing_oracle();
    std::vector<LinkId> got, want;
    for (int dst = 0; dst < t->num_endpoints(); dst += dst_stride(*t) * 2) {
      const NodeId goal = t->endpoint_node(dst);
      const auto bfs = g.dist_to(goal);
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        want.clear();
        RoutingOracle::next_hops_from_field(g, bfs, n, want);
        oracle.next_hops(n, goal, got);
        ASSERT_EQ(got, want) << name << ": candidates of node " << n
                             << " toward endpoint " << dst;
        if (bfs[n] > 0)
          ASSERT_FALSE(want.empty())
              << name << ": no minimal hop out of node " << n;
      }
    }
  }
}

// dist_field must serve oracle-rendered fields that are still exact, and
// hop_distance must agree with the oracle for endpoint pairs.
TEST(RoutingOracle, DistFieldAndHopDistanceAgreeWithBfs) {
  for (const auto& [name, t] : oracle_zoo()) {
    const int n = t->num_endpoints();
    for (int dst = 0; dst < n; dst += dst_stride(*t) * 2) {
      const NodeId goal = t->endpoint_node(dst);
      const auto bfs = t->graph().dist_to(goal);
      const auto field = t->dist_field(goal);
      for (NodeId u = 0; u < t->graph().num_nodes(); ++u)
        ASSERT_EQ((*field)[u], bfs[u]) << name << " node " << u;
      for (int src = 0; src < n; src += 3)
        ASSERT_EQ(t->hop_distance(src, dst), bfs[t->endpoint_node(src)])
            << name << " " << src << "->" << dst;
    }
  }
}

// Sampled paths must be connected, minimal (length == oracle distance),
// and end at the destination — across every family and both sampling
// entry points.
TEST(RoutingOracle, SampledPathsAreMinimalUnderTheOracle) {
  for (const auto& [name, t] : oracle_zoo()) {
    const RoutingOracle& oracle = t->routing_oracle();
    Rng rng(17);
    std::vector<LinkId> path;
    const int n = t->num_endpoints();
    for (int trial = 0; trial < 60; ++trial) {
      const int src = static_cast<int>(rng.uniform(n));
      const int dst = static_cast<int>(rng.uniform(n));
      if (src == dst) continue;
      if (trial % 2 == 0)
        t->sample_path(src, dst, rng, path);
      else
        t->sample_path_stratified(src, dst, trial % 8, 8, rng, path);
      NodeId cur = t->endpoint_node(src);
      int non_minimal_budget =
          trial % 2 == 1 ? 1 << 20 : 0;  // stratified may detour (Valiant)
      for (LinkId l : path) {
        ASSERT_EQ(t->graph().link(l).src, cur) << name << ": disconnected";
        cur = t->graph().link(l).dst;
      }
      ASSERT_EQ(cur, t->endpoint_node(dst)) << name;
      const int minimal =
          oracle.node_dist(t->endpoint_node(src), t->endpoint_node(dst));
      if (non_minimal_budget == 0)
        ASSERT_EQ(static_cast<int>(path.size()), minimal)
            << name << ": sample_path not minimal for " << src << "->"
            << dst;
      else
        ASSERT_GE(static_cast<int>(path.size()), minimal) << name;
    }
  }
}

// The BFS fallback oracle is the executable reference: it must agree with
// a closed-form oracle on a shared instance, and report itself as such.
TEST(RoutingOracle, BfsFallbackMatchesClosedFormOracle) {
  HammingMesh hx({.a = 2, .b = 2, .x = 4, .y = 4});
  BfsOracle bfs(hx.graph());
  EXPECT_FALSE(bfs.closed_form());
  const RoutingOracle& oracle = hx.routing_oracle();
  std::vector<std::int32_t> a, b;
  std::vector<LinkId> ha, hb;
  for (int dst = 0; dst < hx.num_endpoints(); dst += 7) {
    const NodeId goal = hx.endpoint_node(dst);
    oracle.fill(goal, a);
    bfs.fill(goal, b);
    ASSERT_EQ(a, b) << "dst " << dst;
    for (NodeId n = 0; n < hx.graph().num_nodes(); n += 3) {
      oracle.next_hops(n, goal, ha);
      bfs.next_hops(n, goal, hb);
      ASSERT_EQ(ha, hb) << "node " << n << " dst " << dst;
    }
  }
}

// Observability: oracle fills must show up in the process-wide counters,
// and closed-form topologies must not add BFS fills through dist_field.
TEST(RoutingOracle, CountersObserveFills) {
  const RoutingCounters before = routing_counters();
  HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  const NodeId goal = hx.endpoint_node(5);
  hx.dist_field(goal);
  hx.dist_field(goal);
  const RoutingCounters after = routing_counters();
  EXPECT_EQ(after.oracle_fills, before.oracle_fills + 2);
  EXPECT_EQ(after.bfs_fills, before.bfs_fills);
}

// ---------------------------------------------------- degraded fabrics --
// Independent reference BFS over the faulted graph: plain queue sweep over
// an in-link table built from the link list, skipping failed links and
// sharing no code with Graph::dist_to or the oracles.
std::vector<std::int32_t> reference_bfs_to(const Graph& g, NodeId goal) {
  std::vector<std::vector<NodeId>> in(g.num_nodes());
  for (std::size_t l = 0; l < g.num_links(); ++l)
    if (!g.link_failed(static_cast<LinkId>(l)))
      in[g.link(static_cast<LinkId>(l)).dst].push_back(
          g.link(static_cast<LinkId>(l)).src);
  std::vector<std::int32_t> dist(g.num_nodes(), -1);
  std::vector<NodeId> queue{goal};
  dist[goal] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    // Reverse BFS: relax over in-links (v -> u means dist[v] <= dist[u]+1).
    for (NodeId v : in[u]) {
      if (dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

// After seeded faults every family must route over the degraded graph:
// the served oracle's distances and candidate sets (membership AND order)
// must match the reference BFS that skips failed links.
TEST(RoutingOracle, DegradedGraphsMatchReferenceBfs) {
  for (int nfaults = 1; nfaults <= 5; ++nfaults) {
    for (const auto& [name, t] : oracle_zoo()) {
      t->apply_faults(FaultSpec::parse(
          "faults=links:" + std::to_string(nfaults) + ":seed=" +
          std::to_string(17 + nfaults)));
      ASSERT_TRUE(t->faulted()) << name;
      const Graph& g = t->graph();
      const RoutingOracle& oracle = t->routing_oracle();
      std::vector<std::int32_t> field;
      std::vector<LinkId> got, want;
      for (int dst = 0; dst < t->num_endpoints();
           dst += dst_stride(*t) * 4) {
        const NodeId goal = t->endpoint_node(dst);
        const auto ref = reference_bfs_to(g, goal);
        oracle.fill(goal, field);
        for (NodeId n = 0; n < g.num_nodes(); ++n) {
          ASSERT_EQ(field[n], ref[n])
              << name << " (" << nfaults << " faults): distance diverged "
              << "at node " << n << " toward endpoint " << dst;
          want.clear();
          if (ref[n] > 0)
            for (LinkId l : g.out_links(n))
              if (!g.link_failed(l) && ref[g.link(l).dst] == ref[n] - 1)
                want.push_back(l);
          oracle.next_hops(n, goal, got);
          ASSERT_EQ(got, want)
              << name << " (" << nfaults << " faults): candidates of node "
              << n << " toward endpoint " << dst;
        }
      }
    }
  }
}

// Fraction faults knock out 5% and 10% of all cables, so failed links
// sit on each other's repaired paths and repairs cascade through regions
// of several nodes. Every destination of every family is checked against
// the reference BFS — partitioned remnants included, where the repaired
// field must say -1 exactly where the BFS does.
TEST(RoutingOracle, DegradedFieldsMatchReferenceBfsAtEveryDestination) {
  for (const char* fraction : {"0.05", "0.1"}) {
    for (int seed : {3, 7}) {
      for (const auto& [name, t] : oracle_zoo()) {
        const std::string spec = std::string("faults=links:") + fraction +
                                 ":seed=" + std::to_string(seed);
        t->apply_faults(FaultSpec::parse(spec));
        if (!t->faulted()) continue;  // no cable drew a fault
        const RoutingOracle& oracle = t->routing_oracle();
        ASSERT_NE(dynamic_cast<const DegradedOracle*>(&oracle), nullptr)
            << name << ": a faulted family must keep its closed form";
        std::vector<std::int32_t> field;
        for (int dst = 0; dst < t->num_endpoints(); ++dst) {
          const NodeId goal = t->endpoint_node(dst);
          oracle.fill(goal, field);
          ASSERT_EQ(field, reference_bfs_to(t->graph(), goal))
              << name << " (" << spec << "): repaired field toward endpoint "
              << dst << " diverged from the reference BFS";
        }
      }
    }
  }
}

// The HyperX oracle once asked the virtual hop_distance, which on a faulted
// HyperX routes back into the served oracle without bound. Distances on a
// faulted HyperX must terminate and be exact.
TEST(RoutingOracle, FaultedHyperXDistancesTerminateAndMatchBfs) {
  auto t = engine::make_topology("hyperx:16x16:faults=links:40:seed=5");
  ASSERT_TRUE(t->faulted());
  for (int dst = 0; dst < t->num_endpoints(); dst += 37) {
    const auto ref = reference_bfs_to(t->graph(), t->endpoint_node(dst));
    for (int src = 0; src < t->num_endpoints(); src += 11)
      ASSERT_EQ(t->hop_distance(src, dst), ref[t->endpoint_node(src)])
          << src << "->" << dst;
  }
}

// A faulted flow cell samples its paths and hop distances from the
// patched per-destination views: no whole field is rendered, closed-form
// or BFS, and the repairs show up as fault views.
TEST(RoutingOracle, FaultedFlowCellRunsWithoutBfsFills) {
  auto t = engine::make_topology("hx2mesh:8x8:faults=links:8:seed=3");
  ASSERT_TRUE(t->faulted());
  auto engine = engine::make_engine("flow", *t);
  const RoutingCounters before = routing_counters();
  for (const char* pattern : {"allreduce", "perm"})
    EXPECT_TRUE(engine->run(flow::parse_traffic(pattern)).numerics_ok)
        << pattern;
  const RoutingCounters after = routing_counters();
  EXPECT_GT(after.fault_views, before.fault_views);
  EXPECT_EQ(after.oracle_fills, before.oracle_fills)
      << "a faulted flow cell rendered whole distance fields";
  EXPECT_EQ(after.bfs_fills, before.bfs_fills)
      << "a faulted HammingMesh fell back to whole-graph BFS";
}

// Faults flip the serving oracle to the repaired closed form; sampled
// minimal paths stay valid (connected, healthy links only, reference-BFS
// length).
TEST(RoutingOracle, DegradedSampledPathsAvoidFailedLinks) {
  for (const auto& [name, t] : oracle_zoo()) {
    t->apply_faults(FaultSpec::parse("faults=links:3:seed=5"));
    EXPECT_FALSE(t->routing_oracle().closed_form()) << name;
    const Graph& g = t->graph();
    Rng rng(23);
    std::vector<LinkId> path;
    const int n = t->num_endpoints();
    for (int trial = 0; trial < 24; ++trial) {
      const int src = static_cast<int>(rng.uniform(n));
      const int dst = static_cast<int>(rng.uniform(n));
      if (src == dst) continue;
      t->sample_path(src, dst, rng, path);
      NodeId cur = t->endpoint_node(src);
      for (LinkId l : path) {
        ASSERT_FALSE(g.link_failed(l)) << name << ": path uses failed link";
        ASSERT_EQ(g.link(l).src, cur) << name << ": disconnected path";
        cur = g.link(l).dst;
      }
      ASSERT_EQ(cur, t->endpoint_node(dst)) << name;
      const auto ref = reference_bfs_to(g, t->endpoint_node(dst));
      ASSERT_EQ(static_cast<int>(path.size()), ref[t->endpoint_node(src)])
          << name << ": degraded sample_path not minimal " << src << "->"
          << dst;
    }
  }
}

// The walk sample_path documents, over a reference BFS: uniform among the
// healthy out-links one hop closer, in out-link order.
std::vector<LinkId> reference_walk(const Topology& t, int src, int dst,
                                   Rng& rng) {
  const Graph& g = t.graph();
  const auto dist = reference_bfs_to(g, t.endpoint_node(dst));
  std::vector<LinkId> path, cand;
  for (NodeId cur = t.endpoint_node(src); cur != t.endpoint_node(dst);) {
    cand.clear();
    for (LinkId l : g.out_links(cur))
      if (!g.link_failed(l) && dist[g.link(l).dst] == dist[cur] - 1)
        cand.push_back(l);
    path.push_back(cand[rng.uniform(cand.size())]);
    cur = g.link(path.back()).dst;
  }
  return path;
}

// A thread keeps the candidate lists of the nodes it walked last. A new
// fabric, built where an old one was freed, must not be served the old
// fabric's lists: instances alternate between one failed cable and that
// cable plus one their walks take, and every walk must be the reference.
TEST(RoutingOracle, SampledPathsFollowTheFabricTheyWalk) {
  const HxMeshParams p{.a = 2, .b = 2, .x = 4, .y = 4};
  HammingMesh probe(p);
  const int src = probe.num_endpoints() - 1;  // several hops from 0
  const LinkId first = probe.graph().out_links(probe.endpoint_node(9))[1];
  probe.fail_links(std::span(&first, 1));
  Rng probe_rng(7);
  const LinkId second = reference_walk(probe, src, 0, probe_rng)[1];
  for (int round = 0; round < 6; ++round) {
    auto t = std::make_unique<HammingMesh>(p);
    t->fail_links(std::span(&first, 1));
    if (round % 2 == 1) t->fail_links(std::span(&second, 1));
    Rng rng(7), ref_rng(7);
    std::vector<LinkId> path;
    for (int walk = 0; walk < 16; ++walk) {
      t->sample_path(src, 0, rng, path);
      ASSERT_EQ(path, reference_walk(*t, src, 0, ref_rng))
          << "round " << round << " walk " << walk;
    }
  }
}

// Reachability loss must surface as the typed DisconnectedError — never
// as silent -1 distances in a served field.
TEST(RoutingOracle, DegradedUnreachableEndpointThrowsTypedError) {
  HammingMesh hx({.a = 2, .b = 2, .x = 2, .y = 2});
  const NodeId victim = hx.endpoint_node(3);
  std::vector<LinkId> cut(hx.graph().out_links(victim).begin(),
                          hx.graph().out_links(victim).end());
  hx.fail_links(cut);
  EXPECT_THROW((void)hx.dist_field(hx.endpoint_node(0)), DisconnectedError);
  EXPECT_THROW((void)hx.dist_field(hx.endpoint_node(3)), DisconnectedError);
}

// Cutting a whole board off its rails partitions the machine: the repair
// must leave -1 on every node of the cut-off side (exactly where the
// reference BFS does), and dist_field must raise the typed error on both
// sides of the cut.
TEST(RoutingOracle, RepairedFieldOfAPartitionThrowsTypedError) {
  HammingMesh hx({.a = 2, .b = 2, .x = 3, .y = 3});
  const Graph& g = hx.graph();
  std::vector<LinkId> cut;
  for (int rank = 0; rank < hx.num_endpoints(); ++rank) {
    if (hx.board_x_of(rank) != 0 || hx.board_y_of(rank) != 0) continue;
    for (LinkId l : g.out_links(hx.endpoint_node(rank)))
      if (g.kind(g.link(l).dst) == NodeKind::kSwitch) cut.push_back(l);
  }
  ASSERT_FALSE(cut.empty());
  hx.fail_links(cut);

  const NodeId outside = hx.endpoint_node(hx.num_endpoints() - 1);
  std::vector<std::int32_t> field;
  hx.routing_oracle().fill(outside, field);
  EXPECT_EQ(field, reference_bfs_to(g, outside));
  EXPECT_EQ(field[hx.endpoint_node(0)], -1);
  EXPECT_THROW((void)hx.dist_field(outside), DisconnectedError);
  EXPECT_THROW((void)hx.dist_field(hx.endpoint_node(0)), DisconnectedError);
}

}  // namespace
}  // namespace hxmesh::topo
