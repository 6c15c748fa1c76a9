// Layer probe of the sweep benchmark: drives one workload grid through the
// library's public entry points in process and times each call.
//
//   sweepbench_probe info
//   sweepbench_probe plan  GRID.json OUT.json
//   sweepbench_probe setup GRID.json
//   sweepbench_probe trace GRID.json WORKDIR TRACE.json
//
// `plan` writes the identity row of every cell, the list run.py checks
// sweep output against. `setup` builds each distinct topology of the grid
// once, as a sweep process does, and prints the seconds. `trace` runs the grid cold on this
// thread three times (a warm-up, then without spans, then with), replays it
// warm from the filled cache, then runs it cold once more through
// ExperimentHarness::run_grids on one thread. Spans stay in memory
// and are written to TRACE.json as Chrome trace events at the end; the
// rows of each pass go to WORKDIR for run.py to compare with the CLI's.
//
// GRID.json is the `hxmesh sweep --config` format with a "grids" array.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fsio.hpp"
#include "core/json.hpp"
#include "core/json_parse.hpp"
#include "engine/factory.hpp"
#include "engine/grid_plan.hpp"
#include "engine/harness.hpp"
#include "engine/result_cache.hpp"

namespace {

using namespace hxmesh;
using Clock = std::chrono::steady_clock;

std::vector<engine::GridSpec> read_grids(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw std::runtime_error("cannot read " + path);
  const JsonValue doc = parse_json(*text);
  const JsonValue* grids = doc.get("grids");
  if (!grids || !grids->is_array())
    throw std::runtime_error(path + ": no \"grids\" array");
  std::vector<engine::GridSpec> out;
  for (const JsonValue& grid : grids->array) {
    auto strings = [&](const char* key) {
      std::vector<std::string> items;
      if (const JsonValue* array = grid.get(key))
        for (const JsonValue& item : array->array) items.push_back(item.str);
      return items;
    };
    engine::GridSpec spec;
    spec.config.topologies = strings("topologies");
    spec.config.engines = strings("engines");
    for (const std::string& p : strings("patterns"))
      spec.config.patterns.push_back(flow::parse_traffic(p));
    spec.config.seeds.clear();
    if (const JsonValue* seeds = grid.get("seeds"))
      for (const JsonValue& s : seeds->array)
        spec.config.seeds.push_back(s.as_u64());
    out.push_back(std::move(spec));
  }
  return out;
}

/// Spans of one probe run, kept in memory until write().
class Trace {
 public:
  /// Records span `name` of grid cell `cell` (-1: not a cell). `args` are
  /// extra members of the event's "args" object, already rendered.
  void add(const std::string& name, long cell, Clock::time_point begin,
           Clock::time_point end, std::string args = {}) {
    events_.push_back({name, cell, micros(begin), micros(end) - micros(begin),
                       std::move(args)});
  }

  /// Writes the spans as Chrome trace-event JSON ("X" events, one track).
  void write(const std::string& path) const {
    std::string out =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"sweepbench_probe\"}}";
    char num[64];
    for (const Event& e : events_) {
      out += ",\n{\"name\":\"" + JsonObject::escape(e.name) + "\",\"cat\":\"" +
             e.name.substr(0, e.name.find('.')) + "\",\"ph\":\"X\"";
      std::snprintf(num, sizeof(num), ",\"ts\":%.3f,\"dur\":%.3f", e.ts_us,
                    e.dur_us);
      out += num;
      out += ",\"pid\":1,\"tid\":1,\"args\":{\"cell\":" +
             std::to_string(e.cell) + (e.args.empty() ? "" : ",") + e.args +
             "}}";
    }
    write_file_atomic(path, out + "\n]}\n");
  }

 private:
  struct Event {
    std::string name;
    long cell;
    double ts_us, dur_us;
    std::string args;
  };
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
};

/// Start of a span: the clock is read only when tracing.
Clock::time_point tick(const Trace* trace) {
  return trace ? Clock::now() : Clock::time_point{};
}

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += JsonObject::escape(s);
  out += '"';
  return out;
}

/// Span name of one engine->run call. The first allreduce of a flow engine
/// measures its ring, later ones only evaluate the model. Every other flow
/// cell on a faulted topology routes through the degraded (BFS) oracle.
std::string run_span(const std::string& engine_name,
                     const flow::TrafficSpec& pattern, bool faulted,
                     bool first_allreduce) {
  if (engine_name != "flow") return "sim.run";
  const bool allreduce = pattern.kind == flow::PatternKind::kAllreduce;
  if (allreduce && !first_allreduce) return "flow.allreduce_model";
  if (faulted) return "flow.degraded";
  if (allreduce) return "flow.allreduce_ring";
  return pattern.kind == flow::PatternKind::kAlltoall ? "flow.alltoall"
                                                      : "flow.perm";
}

void require_empty(const engine::ResultCache& cache) {
  ensure_dir(cache.dir());
  if (!list_files(cache.dir()).empty())
    throw std::runtime_error("cache directory " + cache.dir() +
                             " is not empty before a cold pass");
}

/// One cold pass over every cell on this thread. Mirrors
/// ExperimentHarness::run_cells: one topology per distinct spec, one engine
/// per (topology, engine name), cells in plan order, and for each cell a
/// cache probe, the run, and the store.
std::vector<engine::SweepRow> cold_pass(const engine::GridPlan& plan,
                                        engine::ResultCache& cache,
                                        Trace* trace) {
  require_empty(cache);
  std::vector<engine::SweepRow> rows(plan.total_cells());
  for (std::size_t b = 0; b < plan.num_topo_batches(); ++b) {
    const std::string& spec = plan.topo_batch_spec(b);
    const bool faulted = spec.find("faults=") != std::string::npos;
    Clock::time_point t0 = tick(trace);
    const std::unique_ptr<topo::Topology> topology = engine::make_topology(spec);
    if (trace)
      trace->add("topo.build", -1, t0, Clock::now(), "\"spec\":" + quoted(spec));
    std::map<std::string, std::unique_ptr<engine::SimEngine>> engines;
    std::set<std::pair<std::string, int>> rings;  // (engine, route) measured
    for (std::size_t j = 0; j < plan.num_jobs(); ++j) {
      if (plan.job_topo_batch(j) != b) continue;
      const std::string& engine_name = plan.job_engine(j);
      std::unique_ptr<engine::SimEngine>& sim = engines[engine_name];
      if (!sim) {
        t0 = tick(trace);
        sim = engine::make_engine(engine_name, *topology);
        if (trace) trace->add("engine.make", -1, t0, Clock::now());
      }
      const auto [lo, hi] = plan.job_range(j);
      for (std::size_t c = lo; c < hi; ++c) {
        const long cell = static_cast<long>(c);
        engine::SweepRow row = plan.cell_row(c);
        const std::string key = plan.cell_key(c);
        t0 = tick(trace);
        const bool hit = cache.load(key).has_value();
        if (trace) trace->add("cache.probe", cell, t0, Clock::now());
        if (hit)
          throw std::runtime_error("cold pass: cell " + std::to_string(c) +
                                   " was already cached");
        const bool first_allreduce =
            row.pattern.kind == flow::PatternKind::kAllreduce &&
            rings.emplace(engine_name, static_cast<int>(row.pattern.route))
                .second;
        const std::string name =
            run_span(engine_name, row.pattern, faulted, first_allreduce);
        t0 = tick(trace);
        row.result = sim->run(row.pattern);
        if (trace) {
          char sim_s[64];
          std::snprintf(sim_s, sizeof(sim_s), "\"sim_s\":%.17g",
                        row.result.completion_s);
          trace->add(name, cell, t0, Clock::now(), sim_s);
        }
        t0 = tick(trace);
        cache.store(key, row.result);
        if (trace) {
          const Clock::time_point t1 = Clock::now();
          // Entry layout <dir>/<key>.json, as documented in result_cache.hpp.
          const std::uint64_t bytes =
              file_size(cache.dir() + "/" + key + ".json");
          trace->add("cache.store", cell, t0, t1,
                     "\"bytes\":" + std::to_string(bytes));
        }
        rows[c] = std::move(row);
      }
    }
  }
  return rows;
}

/// Replays every cell from the cache a cold pass filled.
std::vector<engine::SweepRow> warm_pass(const engine::GridPlan& plan,
                                        engine::ResultCache& cache,
                                        Trace* trace) {
  std::vector<engine::SweepRow> rows(plan.total_cells());
  for (std::size_t c = 0; c < plan.total_cells(); ++c) {
    rows[c] = plan.cell_row(c);
    const Clock::time_point t0 = tick(trace);
    std::optional<engine::RunResult> hit = cache.load(plan.cell_key(c));
    if (trace) trace->add("cache.load", static_cast<long>(c), t0, Clock::now());
    if (!hit)
      throw std::runtime_error("warm pass: cell " + std::to_string(c) +
                               " missing from the cache");
    rows[c].result = std::move(*hit);
  }
  return rows;
}

int cmd_trace(const std::string& grid_path, const std::string& workdir,
              const std::string& trace_path) {
  const std::vector<engine::GridSpec> grids = read_grids(grid_path);
  Trace trace;
  Clock::time_point t0 = Clock::now();
  const engine::GridPlan plan(grids);
  trace.add("plan.build", -1, t0, Clock::now());

  // The first pass of a process pays for heap growth and lazily built
  // state that later passes reuse; a warm-up pass keeps that out of the
  // comparisons below.
  engine::ResultCache warmup_cache(workdir + "/cache-warmup");
  t0 = Clock::now();
  const auto warmup = cold_pass(plan, warmup_cache, nullptr);
  trace.add("pass.warmup", -1, t0, Clock::now());

  // The same cold pass without spans: its wall is the base of the span
  // recording overhead.
  engine::ResultCache untraced_cache(workdir + "/cache-untraced");
  t0 = Clock::now();
  const auto untraced = cold_pass(plan, untraced_cache, nullptr);
  trace.add("pass.cold_untraced", -1, t0, Clock::now());

  engine::ResultCache cache(workdir + "/cache-traced");
  t0 = Clock::now();
  const auto traced = cold_pass(plan, cache, &trace);
  trace.add("pass.cold_traced", -1, t0, Clock::now());
  t0 = Clock::now();
  const auto warm = warm_pass(plan, cache, &trace);
  trace.add("pass.warm", -1, t0, Clock::now());

  engine::ResultCache harness_cache(workdir + "/cache-harness");
  require_empty(harness_cache);
  engine::ExperimentHarness harness(1);
  t0 = Clock::now();
  const auto harness_rows = harness.run_grids(grids, &harness_cache);
  trace.add("harness.run_grids", -1, t0, Clock::now());

  engine::write_json(workdir + "/rows-warmup.json", warmup);
  engine::write_json(workdir + "/rows-untraced.json", untraced);
  engine::write_json(workdir + "/rows-traced.json", traced);
  engine::write_json(workdir + "/rows-warm.json", warm);
  engine::write_json(workdir + "/rows-harness.json", harness_rows);
  trace.write(trace_path);
  return 0;
}

int cmd_setup(const std::string& grid_path) {
  const engine::GridPlan plan(read_grids(grid_path));
  double total = 0.0;
  for (std::size_t b = 0; b < plan.num_topo_batches(); ++b) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<topo::Topology> topology =
        engine::make_topology(plan.topo_batch_spec(b));
    total += seconds_since(t0);
    topology.reset();  // teardown is not set-up time
  }
  std::printf("%.9f\n", total);
  return 0;
}

int cmd_plan(const std::string& grid_path, const std::string& out_path) {
  const engine::GridPlan plan(read_grids(grid_path));
  std::vector<engine::SweepRow> rows;
  rows.reserve(plan.total_cells());
  for (std::size_t c = 0; c < plan.total_cells(); ++c)
    rows.push_back(plan.cell_row(c));
  engine::write_json(out_path, rows);
  return 0;
}

int run(const std::vector<std::string>& args) {
  const std::string cmd = args.empty() ? "" : args[0];
  if (cmd == "info" && args.size() == 1) {
    std::cout << "{\"compiler\":" << quoted(SWEEPBENCH_COMPILER)
              << ",\"build_type\":" << quoted(SWEEPBENCH_BUILD_TYPE) << "}\n";
    return 0;
  }
  if (cmd == "plan" && args.size() == 3) return cmd_plan(args[1], args[2]);
  if (cmd == "setup" && args.size() == 2) return cmd_setup(args[1]);
  if (cmd == "trace" && args.size() == 4)
    return cmd_trace(args[1], args[2], args[3]);
  std::cerr << "usage: sweepbench_probe info | plan GRID OUT | setup GRID"
               " | trace GRID WORKDIR TRACE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << "sweepbench_probe: " << e.what() << "\n";
    return 1;
  }
}
