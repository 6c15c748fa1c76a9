// Regenerates Figure 15 and the Section V-B runtime numbers: per-iteration
// runtimes of ResNet-152, GPT-3, GPT-3 MoE, CosmoFlow and DLRM on every
// topology, and the HxMesh cost savings relative to the other topologies
// (cost ratio times the inverse ratio of communication overheads). The
// per-topology model evaluations fan across the harness pool.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "cost/cost_model.hpp"
#include "workload/dnn.hpp"

using namespace hxmesh;

int main() {
  std::printf("Section V-B: DNN iteration times [ms] (compute + exposed "
              "communication)\n\n");
  engine::ExperimentHarness harness(benchutil::threads());
  auto specs = benchutil::paper_specs(topo::ClusterSize::kSmall);
  auto labels = benchutil::paper_labels();

  struct PerTopology {
    std::vector<workload::ModelResult> results;
    double cost_musd = 0;
  };
  auto evals = harness.map<PerTopology>(specs.size(), [&](std::size_t i) {
    auto t = engine::make_topology(specs[i]);
    workload::CommEnv env(*t);
    return PerTopology{workload::eval_all_models(env),
                       cost::bom_for(*t).total_musd()};
  });

  std::vector<std::string> model_names;
  for (const auto& r : evals.front().results) model_names.push_back(r.model);

  // A result built on a ring or alltoall solve that stopped at the
  // filling-round cap is an upper bound on the time; it is printed with a
  // mark, and so is every saving computed from it.
  bool any_capped = false;
  auto mark = [&](bool converged) {
    any_capped |= !converged;
    return converged ? "" : " *";
  };
  auto footnote = [&] {
    if (any_capped)
      std::printf("* a max-min solve stopped at the filling-round cap "
                  "(numerics_ok=false): the communication time is an upper "
                  "bound, not the model's answer.\n");
  };

  Table runtimes({"Topology", "ResNet-152", "GPT-3", "GPT-3 MoE",
                  "CosmoFlow", "DLRM"});
  std::vector<JsonObject> json;
  for (std::size_t ti = 0; ti < specs.size(); ++ti) {
    std::vector<std::string> row = {labels[ti]};
    for (const auto& r : evals[ti].results) {
      row.push_back(fmt(r.iteration_ms, 2) + mark(r.converged));
      JsonObject obj;
      obj.add("topology", specs[ti])
          .add("label", labels[ti])
          .add("model", r.model)
          .add("iteration_ms", r.iteration_ms)
          .add("compute_ms", r.compute_ms)
          .add("overhead_ms", r.overhead_ms())
          .add("numerics_ok", r.converged)
          .add("cost_musd", evals[ti].cost_musd);
      json.push_back(std::move(obj));
    }
    runtimes.add_row(row);
  }
  runtimes.print();
  footnote();

  auto index_of = [&](topo::PaperTopology which) {
    auto list = topo::paper_topology_list();
    return static_cast<std::size_t>(
        std::find(list.begin(), list.end(), which) - list.begin());
  };
  for (std::size_t hx : {index_of(topo::PaperTopology::kHx2Mesh),
                         index_of(topo::PaperTopology::kHx4Mesh)}) {
    std::printf("\nFigure 15: %s cost savings vs other topologies\n"
                "(network cost ratio x inverse communication-overhead "
                "ratio)\n\n",
                labels[hx].c_str());
    std::vector<std::string> headers = {"vs topology"};
    for (const auto& m : model_names) headers.push_back(m);
    Table table(headers);
    for (std::size_t other = 0; other < specs.size(); ++other) {
      if (other == hx) continue;
      std::vector<std::string> row = {labels[other]};
      for (std::size_t m = 0; m < model_names.size(); ++m) {
        double cost_ratio = evals[other].cost_musd / evals[hx].cost_musd;
        double hx_over = std::max(1e-6, evals[hx].results[m].overhead_ms());
        double other_over =
            std::max(1e-6, evals[other].results[m].overhead_ms());
        row.push_back(fmt(cost_ratio * other_over / hx_over, 1) +
                      mark(evals[hx].results[m].converged &&
                           evals[other].results[m].converged));
      }
      table.add_row(row);
    }
    table.print();
    footnote();
  }
  benchutil::write_json_objects("BENCH_fig15.json", json);
  return 0;
}
