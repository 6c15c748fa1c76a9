// Regenerates Table II: capital cost, global (alltoall) bandwidth as % of
// injection, allreduce bandwidth as % of peak (injection/2), the
// corresponding cost savings relative to the nonblocking fat tree, and the
// network diameter — for the small (~1k) and large (~16k) clusters. Both
// bandwidth columns come from one flow-engine harness grid per cluster.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "cost/cost_model.hpp"

using namespace hxmesh;

namespace {

std::vector<engine::SweepRow> run_cluster(engine::ExperimentHarness& harness,
                                          topo::ClusterSize size,
                                          const char* label) {
  std::printf("== %s cluster ==\n", label);
  const bool small = size == topo::ClusterSize::kSmall;

  engine::SweepConfig sweep;
  sweep.topologies = benchutil::paper_specs(size);
  sweep.engines = {"flow"};
  flow::TrafficSpec alltoall;
  alltoall.kind = flow::PatternKind::kAlltoall;
  alltoall.samples = small ? 32 : 8;
  flow::TrafficSpec allreduce;
  allreduce.kind = flow::PatternKind::kAllreduce;
  allreduce.message_bytes = 4 * GiB;
  sweep.patterns = {alltoall, allreduce};
  auto rows = benchutil::run_grid(harness, sweep, benchutil::paper_labels());

  struct Extra {
    double cost_musd;
    int diameter;
  };
  auto extras = harness.map<Extra>(sweep.topologies.size(), [&](std::size_t i) {
    auto t = engine::make_topology(sweep.topologies[i]);
    return Extra{cost::bom_for(*t).total_musd(), t->diameter_formula()};
  });

  Table table({"Topology", "cost [M$]", "glob BW [%inj]", "glob saving",
               "ared BW [%peak]", "ared saving", "diameter"});
  double ft_cost = 0, ft_glob = 0, ft_ared = 0;
  bool any_capped = false;
  // A bandwidth whose max-min solve stopped at the filling-round cap is a
  // lower bound; it is printed with a mark.
  auto percent = [&](double fraction, const engine::SweepRow& row) {
    any_capped |= !row.result.numerics_ok;
    return fmt(fraction * 100, 1) + (row.result.numerics_ok ? "" : " *");
  };
  for (std::size_t ti = 0; ti < sweep.topologies.size(); ++ti) {
    double cost = extras[ti].cost_musd;
    double glob = rows[2 * ti + 0].result.aggregate_fraction;
    double ared = rows[2 * ti + 1].result.fraction_of_peak;
    if (ti == 0) {  // row 0 is the nonblocking fat tree
      ft_cost = cost;
      ft_glob = glob;
      ft_ared = ared;
    }
    double glob_saving = (glob / cost) / (ft_glob / ft_cost);
    double ared_saving = (ared / cost) / (ft_ared / ft_cost);
    table.add_row({rows[2 * ti].label, fmt(cost, cost < 100 ? 1 : 0),
                   percent(glob, rows[2 * ti]), fmt(glob_saving, 1) + "x",
                   percent(ared, rows[2 * ti + 1]), fmt(ared_saving, 1) + "x",
                   std::to_string(extras[ti].diameter)});
  }
  table.print();
  if (any_capped)
    std::printf("* the max-min solve stopped at the filling-round cap "
                "(numerics_ok=false): a lower bound, not the model's "
                "answer; the savings built on it are as uncertain.\n");
  std::printf("\n");
  return rows;
}

}  // namespace

int main() {
  std::printf("Table II: cost / bandwidth / diameter overview\n");
  std::printf("(bandwidths from the flow-level solver at large messages; "
              "savings relative to the nonblocking fat tree)\n\n");
  engine::ExperimentHarness harness(benchutil::threads());
  auto rows = run_cluster(harness, topo::ClusterSize::kSmall,
                          "Small (~1,024 accelerators)");
  auto large = run_cluster(harness, topo::ClusterSize::kLarge,
                           "Large (~16,384 accelerators)");
  rows.insert(rows.end(), large.begin(), large.end());
  engine::write_json("BENCH_table2.json", rows);
  return 0;
}
