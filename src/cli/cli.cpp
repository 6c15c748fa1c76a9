#include "cli/cli.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/chaos.hpp"
#include "core/fsio.hpp"
#include "core/hash.hpp"
#include "core/parse_num.hpp"
#include "core/json.hpp"
#include "core/json_parse.hpp"
#include "core/stats.hpp"
#include "core/subprocess.hpp"
#include "engine/harness.hpp"
#include "engine/shard.hpp"
#include "flow/flow_sim.hpp"
#include "topo/routing_oracle.hpp"

namespace hxmesh::cli {

namespace {

const char* kUsage = R"(hxmesh — HammingMesh simulation front-end

usage: hxmesh <subcommand> [options]

subcommands:
  run    --topo SPEC --pattern SPEC [--engine NAME] [--seed N]
         run one grid cell; prints its JSON row
  sweep  (--topo SPEC)+ (--pattern SPEC)+ [(--engine NAME)+] [(--seed N)+]
         [--label L]* [--config FILE.json] [--json PATH]
         [--shards N] [--workers K] [--retries R]
         [--shard-timeout SEC] [--retry-backoff SEC] [--progress]
         run the full topology x engine x pattern x seed grid
         (no --seed: each pattern's own seed= applies, default 1).
         With --shards: partition the grid into N equal-count contiguous
         shards, fork/exec one 'hxmesh shard' worker per shard from a
         queue over K process slots (N > K splits the work finer;
         failed shards are retried R extra times with seeded
         exponential backoff; a shard exiting 2 is a permanent config
         error and fails the sweep immediately), then merge through
         the shared result cache into the byte-identical single-process
         row order. --shard-timeout arms a watchdog: a shard past its
         deadline gets SIGTERM, then SIGKILL after a grace period, and
         reports 'timed-out'. --progress reports each shard attempt as
         it completes (stderr)
  shard  --shards N --shard I [grid flags as for sweep] [--attempt A]
         run one shard of the grid: simulate its cells, store them as
         result-cache entries, and write a coverage manifest under the
         cache directory (honors the HXMESH_CHAOS fault-injection spec,
         see below)
  ls     [engines|topologies|patterns]
         list registered engines, topology families, pattern grammar
  cache  stats|clear|prune [--cache-dir DIR]
         inspect, empty, or age/LRU-evict the result cache
         (prune: --max-age AGE[s|m|h|d] and/or --max-entries N;
         stats also reports quarantined-entry counts and this
         process's routing-oracle counters)

environment:
  HXMESH_CACHE_DIR  result cache location when --cache-dir is not given
  HXMESH_CHAOS      deterministic fault injection. kill:<p> and hang:<p>
                    make 'hxmesh shard' workers self-SIGKILL or hang.
                    Every decision is a pure function of the spec (plus
                    seed=S), shard and attempt, so a fixed seed replays
                    the same fault schedule

common options:
  --json PATH       write rows as a JSON array to PATH ('-' = stdout)
  --cache-dir DIR   result cache location (default $HXMESH_CACHE_DIR,
                    else .hxmesh-cache)
  --no-cache        bypass the result cache entirely
  --threads N       worker threads (default: $HXMESH_THREADS, else hardware)
  --config FILE     sweep axes from a JSON object with keys "topologies",
                    "engines", "patterns", "seeds", "labels" (flags append),
                    or several grids at once as {"grids": [{...}, {...}]}

examples:
  hxmesh run --topo hx2mesh:8x8 --pattern alltoall:msg=1MiB
  hxmesh sweep --topo hx2mesh:8x8 --topo torus:16x16 \
               --pattern perm:msg=256KiB --seed 1 --seed 2 --json rows.json
  hxmesh sweep --config bench/baselines/regression_grid.json \
               --shards 4 --workers 2 --json rows.json
)";

[[noreturn]] void usage_error(const std::string& why) {
  throw std::invalid_argument(why + " (see 'hxmesh --help')");
}

std::string need_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) usage_error("flag " + args[i] + " needs a value");
  return args[++i];
}

std::uint64_t parse_u64(const std::string& flag, const std::string& token) {
  const std::optional<std::uint64_t> v = parse_u64_strict(token);
  if (!v) usage_error(flag + ": bad number '" + token + "'");
  return *v;
}

/// Bounded flag value: rejects anything a later narrowing cast would
/// silently wrap (e.g. --shards 4294967296 becoming 0 shards).
std::uint64_t parse_bounded(const std::string& flag, const std::string& token,
                            std::uint64_t max) {
  const std::uint64_t v = parse_u64(flag, token);
  if (v > max)
    usage_error(flag + ": " + token + " is out of range (max " +
                std::to_string(max) + ")");
  return v;
}

/// Duration token for cache prune: integer seconds, or an integer with an
/// s/m/h/d suffix ("90s", "10m", "6h", "7d").
std::int64_t parse_age(const std::string& flag, const std::string& token) {
  std::string digits = token;
  std::int64_t scale = 1;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'd': scale = 86400; digits.pop_back(); break;
      case 'h': scale = 3600; digits.pop_back(); break;
      case 'm': scale = 60; digits.pop_back(); break;
      case 's': scale = 1; digits.pop_back(); break;
      default: break;
    }
  }
  const std::optional<std::uint64_t> v = parse_u64_strict(digits);
  if (!v || *v > static_cast<std::uint64_t>(INT64_MAX / scale))
    usage_error(flag + ": bad duration '" + token +
                "' (an integer with an optional s/m/h/d suffix)");
  return static_cast<std::int64_t>(*v) * scale;
}

/// Non-negative seconds value (fractions allowed: "0.25").
double parse_seconds(const std::string& flag, const std::string& token) {
  char* end = nullptr;
  const double v = token.empty() ? -1.0 : std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size() ||
      !(v >= 0.0 && v <= 1e9))
    usage_error(flag + ": bad duration '" + token + "' (seconds, >= 0)");
  return v;
}

struct SweepOptions {
  engine::SweepConfig config;       // axes accumulated from flags
  std::vector<std::string> labels;  // labels accumulated from flags
  std::vector<engine::GridSpec> config_grids;  // a "grids" config file
  std::string json_path;  // empty or "-": stdout
  std::string cache_dir = engine::ResultCache::default_dir();
  bool no_cache = false;
  int threads = 0;
  // Sharded execution (sweep --shards / the shard subcommand).
  unsigned shards = 0;        // 0: single-process sweep
  int shard_index = -1;       // shard subcommand only
  unsigned workers = 0;       // 0: min(shards, hardware)
  unsigned retries = 1;       // extra attempts per failed shard
  bool progress = false;      // per-shard completion reporting (stderr)
  double shard_timeout_s = 0;    // sweep: per-shard watchdog (0 = off)
  double retry_backoff_s = 0.25; // sweep: base retry delay
  int attempt = 0;               // shard: attempt number (0 = unset -> 1)
};

// Reads one string-array member of a config object into `out` (appending).
void read_string_array(const JsonValue& doc, const std::string& key,
                       std::vector<std::string>* out) {
  const JsonValue* v = doc.get(key);
  if (!v) return;
  if (!v->is_array()) usage_error("config: \"" + key + "\" must be an array");
  for (const JsonValue& item : v->array) {
    if (!item.is_string())
      usage_error("config: \"" + key + "\" must contain strings");
    out->push_back(item.str);
  }
}

// Reads the flat axis keys of one config object into config/labels.
void read_axes(const JsonValue& doc, engine::SweepConfig* config,
               std::vector<std::string>* labels) {
  read_string_array(doc, "topologies", &config->topologies);
  read_string_array(doc, "labels", labels);
  std::vector<std::string> engines, patterns;
  read_string_array(doc, "engines", &engines);
  read_string_array(doc, "patterns", &patterns);
  for (const std::string& e : engines) config->engines.push_back(e);
  for (const std::string& p : patterns)
    config->patterns.push_back(flow::parse_traffic(p));
  if (const JsonValue* seeds = doc.get("seeds")) {
    if (!seeds->is_array()) usage_error("config: \"seeds\" must be an array");
    for (const JsonValue& s : seeds->array)
      config->seeds.push_back(s.as_u64());
  }
}

void merge_config_file(const std::string& path, SweepOptions* opt) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw std::runtime_error("cannot read config file " + path);
  const JsonValue doc = parse_json(*text);
  if (!doc.is_object()) usage_error("config: " + path + " is not an object");
  if (const JsonValue* grids = doc.get("grids")) {
    if (!grids->is_array() || grids->array.empty())
      usage_error("config: \"grids\" must be a non-empty array");
    for (const JsonValue& grid : grids->array) {
      if (!grid.is_object())
        usage_error("config: \"grids\" must contain objects");
      engine::GridSpec spec;
      spec.config.engines.clear();
      spec.config.seeds.clear();
      read_axes(grid, &spec.config, &spec.labels);
      opt->config_grids.push_back(std::move(spec));
    }
    return;
  }
  read_axes(doc, &opt->config, &opt->labels);
}

/// The grids a sweep/shard invocation describes: either the "grids" array
/// of its config file, or the single grid accumulated from flags (and a
/// flat config file). Validates and applies the engine default.
std::vector<engine::GridSpec> final_grids(const SweepOptions& opt) {
  std::vector<engine::GridSpec> grids;
  if (!opt.config_grids.empty()) {
    if (!opt.config.topologies.empty() || !opt.config.patterns.empty() ||
        !opt.config.engines.empty() || !opt.config.seeds.empty() ||
        !opt.labels.empty())
      usage_error("a config with \"grids\" cannot be combined with axis flags");
    grids = opt.config_grids;
  } else {
    grids.push_back({opt.config, opt.labels});
  }
  for (engine::GridSpec& grid : grids) {
    if (grid.config.topologies.empty())
      usage_error("need at least one --topo (or a --config file)");
    if (grid.config.patterns.empty())
      usage_error("need at least one --pattern (or a --config file)");
    if (grid.config.engines.empty()) grid.config.engines = {"flow"};
    // An empty seed axis stays empty: each pattern's embedded seed applies.
  }
  return grids;
}

/// Canonical "grids" config document for `grids` — what the orchestrator
/// hands to its shard workers so parent and children agree on the plan.
std::string render_grids_json(const std::vector<engine::GridSpec>& grids) {
  auto string_array = [](const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i ? "," : "");
      out += "\"" + JsonObject::escape(items[i]) + "\"";
    }
    return out + "]";
  };
  std::string out = "{\"grids\":[";
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const engine::GridSpec& grid = grids[g];
    out += (g ? "," : "");
    out += "{\"topologies\":" + string_array(grid.config.topologies);
    if (!grid.labels.empty())
      out += ",\"labels\":" + string_array(grid.labels);
    out += ",\"engines\":" + string_array(grid.config.engines);
    std::vector<std::string> patterns;
    patterns.reserve(grid.config.patterns.size());
    for (const flow::TrafficSpec& p : grid.config.patterns)
      patterns.push_back(flow::pattern_spec(p));
    out += ",\"patterns\":" + string_array(patterns);
    if (!grid.config.seeds.empty()) {
      out += ",\"seeds\":[";
      for (std::size_t i = 0; i < grid.config.seeds.size(); ++i) {
        out += (i ? "," : "");
        out += std::to_string(grid.config.seeds[i]);
      }
      out += "]";
    }
    out += "}";
  }
  return out + "]}\n";
}

void emit_rows(const std::vector<engine::SweepRow>& rows,
               const std::string& json_path, std::ostream& out,
               std::ostream& err) {
  if (json_path.empty() || json_path == "-") {
    engine::write_json(out, rows);
    return;
  }
  engine::write_json(json_path, rows);
  err << "wrote " << rows.size() << " rows to " << json_path << "\n";
}

// One line of routing-oracle observability (process-wide counters): how
// distance fields and faulted-fabric views were produced in this process.
// On structured topologies the hot path must show "0 bfs fills" — the
// closed-form oracles carry all of it.
void report_routing(std::ostream& out) {
  const topo::RoutingCounters c = topo::routing_counters();
  out << "routing: " << c.oracle_fills << " oracle fills, " << c.bfs_fills
      << " bfs fills, " << c.fault_views << " fault views (this process)\n";
}

// Batched-execution observability: how much per-cell setup the topology
// groups amortized (builds + engine setup reused by co-scheduled cells).
void report_batching(std::ostream& out) {
  const engine::BatchCounters b = engine::batch_counters();
  out << "batch: " << b.topo_groups << " topology groups, "
      << b.topo_builds_saved << " builds saved, " << b.engines_saved
      << " engine setups reused, " << b.cells_executed
      << " cells executed (this process)\n";
}

void report_cache(const engine::ResultCache& cache, std::ostream& err) {
  const std::size_t hits = cache.hits();
  const std::size_t misses = cache.misses();
  const std::size_t total = hits + misses;
  const double pct =
      total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / total;
  err << "cache: " << hits << " hits, " << misses << " misses (" << fmt(pct, 1)
      << "% hit rate) in " << cache.dir() << "\n";
  err << "integrity: " << cache.verified_hits() << " verified hits, "
      << cache.quarantined() << " quarantined (this process)\n";
  report_routing(err);
  report_batching(err);
}

/// Last non-empty line of a text block, trimmed — where a crashing
/// child's "hxmesh: <what>" message lands.
std::string last_line(const std::string& text) {
  const std::size_t end = text.find_last_not_of(" \t\r\n");
  if (end == std::string::npos) return "";
  std::size_t start = text.find_last_of('\n', end);
  start = start == std::string::npos ? 0 : start + 1;
  return text.substr(start, end - start + 1);
}

/// Short status word for one shard attempt: "ok", "failed (exit N)", or
/// the outcome name ("timed-out", "signaled", "spawn-failed", "skipped").
std::string describe_run(const engine::ShardRun& run) {
  if (run.ok()) return "ok";
  if (run.outcome == engine::ShardOutcome::kExited)
    return "failed (exit " + std::to_string(run.exit_code) + ")";
  return engine::outcome_name(run.outcome);
}

std::string shard_meta_dir(const std::string& cache_dir) {
  return cache_dir + "/" + engine::ResultCache::kShardMetaSubdir;
}

std::string default_manifest_path(const std::string& cache_dir,
                                  const std::string& fingerprint,
                                  unsigned shard, unsigned shards) {
  return shard_meta_dir(cache_dir) + "/" + fingerprint + "." +
         std::to_string(shard) + "-of-" + std::to_string(shards) + ".json";
}

int do_sweep_sharded(const SweepOptions& opt,
                     const std::vector<engine::GridSpec>& grids,
                     std::ostream& out, std::ostream& err) {
  if (opt.no_cache)
    usage_error("sweep: --shards needs the result cache (drop --no-cache)");
  const engine::GridPlan plan(grids);
  const std::string fingerprint = plan.fingerprint();
  ensure_dir(shard_meta_dir(opt.cache_dir));

  // Parent and children must agree on the grid byte for byte, so the
  // orchestrator writes the canonical grids document and every worker
  // parses that file instead of re-receiving axis flags.
  const std::string grid_file =
      shard_meta_dir(opt.cache_dir) + "/" + fingerprint + ".grid.json";
  write_file_atomic(grid_file, render_grids_json(grids));

  // Each worker writes its manifest to default_manifest_path, derived from
  // the same fingerprint, so the paths need not be passed down.
  std::vector<std::string> manifest_paths;
  manifest_paths.reserve(opt.shards);
  for (unsigned i = 0; i < opt.shards; ++i) {
    manifest_paths.push_back(
        default_manifest_path(opt.cache_dir, fingerprint, i, opt.shards));
    // Stale manifests from an aborted run must not stand in for a worker
    // that failed this time around.
    remove_file(manifest_paths.back());
  }

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  unsigned workers = opt.workers ? opt.workers : hardware;
  if (workers > opt.shards) workers = opt.shards;

  // Each worker child gets an explicit thread budget: the user's --threads
  // verbatim, else the hardware split across the concurrent workers — K
  // children must not each default to a full hardware-width pool.
  const int child_threads =
      opt.threads > 0 ? opt.threads
                      : static_cast<int>(std::max(1u, hardware / workers));

  const std::string exe = self_exe_path();
  auto launch = [&](unsigned shard, int attempt) {
    std::vector<std::string> argv = {exe,
                                     "shard",
                                     "--config",
                                     grid_file,
                                     "--shards",
                                     std::to_string(opt.shards),
                                     "--shard",
                                     std::to_string(shard),
                                     "--cache-dir",
                                     opt.cache_dir,
                                     "--threads",
                                     std::to_string(child_threads),
                                     "--attempt",
                                     std::to_string(attempt)};
    CommandOptions options;
    options.timeout_s = opt.shard_timeout_s;
    options.capture_stderr = true;
    const CommandResult r = run_command_watched(argv, options);

    engine::ShardAttempt a;
    switch (r.status) {
      case CommandStatus::kExited:
        a.outcome = engine::ShardOutcome::kExited;
        a.exit_code = r.exit_code;
        break;
      case CommandStatus::kSignaled:
        a.outcome = engine::ShardOutcome::kSignaled;
        a.exit_code = r.shell_code();
        break;
      case CommandStatus::kTimedOut:
        a.outcome = engine::ShardOutcome::kTimedOut;
        a.exit_code = r.shell_code();
        break;
      case CommandStatus::kSpawnFailed:
        a.outcome = engine::ShardOutcome::kSpawnFailed;
        a.exit_code = -1;
        break;
    }
    if (!a.ok()) {
      // The child's last stderr line is usually "hxmesh: <what>" — the
      // message that used to vanish into a bare exit code.
      a.error = r.error;
      const std::string tail = last_line(r.stderr_tail);
      if (!tail.empty()) a.error += a.error.empty() ? tail : " — " + tail;
    }
    return a;
  };

  engine::ShardProgress progress;
  std::mutex progress_mutex;  // err is also written after the join
  if (opt.progress)
    progress = [&err, &progress_mutex](const engine::ShardRun& run,
                                       unsigned completed, unsigned total) {
      std::lock_guard lock(progress_mutex);
      err << "progress: shard " << run.shard << " " << describe_run(run)
          << " (attempt " << run.attempts << ") — " << completed << "/"
          << total << " shards done\n";
      err.flush();
    };

  engine::RetryPolicy policy;
  policy.max_attempts = 1 + opt.retries;
  policy.backoff_base_s = opt.retry_backoff_s;
  // Jitter seeded from the grid identity: reruns of the same sweep replay
  // the same backoff schedule.
  policy.seed = Fnv1a().update(fingerprint).digest();

  const auto runs =
      engine::run_shard_jobs(opt.shards, workers, policy, launch, progress);
  unsigned failed = 0;
  for (const engine::ShardRun& run : runs) {
    if (run.ok() && run.attempts > 1)
      err << "shard " << run.shard << ": succeeded on attempt "
          << run.attempts << " [" << engine::history_names(run) << "]\n";
    if (!run.ok()) {
      ++failed;
      err << "shard " << run.shard << ": ";
      if (run.outcome == engine::ShardOutcome::kExited) {
        err << "failed with exit code " << run.exit_code;
        if (run.exit_code == 2) err << " (permanent config error, not retried)";
      } else {
        err << engine::outcome_name(run.outcome);
      }
      err << " after " << run.attempts << " attempt(s)";
      if (!run.history.empty())
        err << " [" << engine::history_names(run) << "]";
      if (!run.error.empty()) err << ": " << run.error;
      err << "\n";
    }
  }
  if (failed > 0)
    throw std::runtime_error("sweep: " + std::to_string(failed) +
                             " of " + std::to_string(opt.shards) +
                             " shards failed");

  std::vector<engine::ShardManifest> manifests;
  manifests.reserve(opt.shards);
  for (const std::string& path : manifest_paths) {
    const std::optional<std::string> text = read_file(path);
    if (!text)
      throw std::runtime_error("sweep: shard manifest missing: " + path);
    manifests.push_back(engine::parse_manifest(*text));
  }
  if (const std::string problem = engine::merge_error(plan, manifests);
      !problem.empty())
    throw std::runtime_error("sweep: shard merge failed: " + problem);

  std::uint64_t hits = 0, computed = 0;
  for (const engine::ShardManifest& m : manifests) {
    hits += m.hits;
    computed += m.computed;
  }
  err << "shards: " << opt.shards << " ok over " << workers
      << " worker(s); cells: " << hits << " hits, " << computed
      << " computed\n";

  // Merge: re-read the whole plan through the cache the workers filled.
  // Every cell hits, and %.17g entry rendering makes the merged rows
  // byte-identical to a single-process run of the same grid.
  engine::ExperimentHarness harness(opt.threads);
  engine::ResultCache cache(opt.cache_dir);
  const auto rows = harness.run_cells(plan, 0, plan.total_cells(), &cache);
  emit_rows(rows, opt.json_path, out, err);
  report_cache(cache, err);
  return 0;
}

int do_sweep(SweepOptions opt, std::ostream& out, std::ostream& err) {
  if (opt.attempt != 0)
    usage_error("sweep: --attempt applies to the shard subcommand");
  if (opt.shards == 0 && opt.shard_timeout_s > 0)
    usage_error("sweep: --shard-timeout needs --shards");
  const auto grids = final_grids(opt);
  if (opt.shards > 0) return do_sweep_sharded(opt, grids, out, err);

  engine::ExperimentHarness harness(opt.threads);
  std::optional<engine::ResultCache> cache;
  if (!opt.no_cache) cache.emplace(opt.cache_dir);
  auto rows = harness.run_grids(grids, cache ? &*cache : nullptr);
  emit_rows(rows, opt.json_path, out, err);
  if (cache) report_cache(*cache, err);
  return 0;
}

int do_shard(SweepOptions opt, std::ostream& out, std::ostream& err) {
  (void)out;  // a shard's data output is the cache, not stdout
  if (opt.shards == 0) usage_error("shard: need --shards N (N >= 1)");
  if (opt.shard_index < 0) usage_error("shard: need --shard I");
  if (static_cast<unsigned>(opt.shard_index) >= opt.shards)
    usage_error("shard: --shard " + std::to_string(opt.shard_index) +
                " out of range for --shards " + std::to_string(opt.shards));
  if (opt.no_cache)
    usage_error("shard: the result cache is the shard's output "
                "(drop --no-cache)");
  if (opt.progress)
    usage_error("shard: --progress applies to the sweep orchestrator");
  if (opt.shard_timeout_s > 0)
    usage_error("shard: --shard-timeout applies to the sweep orchestrator");
  const int attempt = opt.attempt > 0 ? opt.attempt : 1;

  // Deterministic fault injection: a malformed spec is a config error
  // (exit 2 via invalid_argument — permanent, never retried); a kill or
  // hang decision executes before any work so the orchestrator's retry
  // and watchdog paths see a worker that genuinely died or genuinely
  // hangs, not a simulated flag.
  if (const char* env = std::getenv("HXMESH_CHAOS"); env && *env) {
    const ChaosSpec chaos = parse_chaos(env);
    const ChaosAction action = chaos_action(
        chaos, static_cast<unsigned>(opt.shard_index), attempt);
    if (action != ChaosAction::kNone) {
      err << "chaos: shard " << opt.shard_index << " attempt " << attempt
          << ": " << chaos_action_name(action) << "\n";
      err.flush();
    }
    if (action == ChaosAction::kKill) ::raise(SIGKILL);
    if (action == ChaosAction::kHang)
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
  }

  const auto grids = final_grids(opt);
  const engine::GridPlan plan(grids);
  engine::ExperimentHarness harness(opt.threads);
  engine::ResultCache cache(opt.cache_dir);
  const engine::ShardManifest manifest =
      engine::run_shard(harness, plan, static_cast<unsigned>(opt.shard_index),
                        opt.shards, cache);

  const std::string path = default_manifest_path(
      opt.cache_dir, plan.fingerprint(), manifest.shard, manifest.shards);
  write_file_atomic(path, engine::render_manifest(manifest));
  err << "shard " << manifest.shard << "/" << manifest.shards << ": cells ["
      << manifest.cell_lo << ", " << manifest.cell_hi << ") — "
      << manifest.hits << " hits, " << manifest.computed
      << " computed; manifest " << path << "\n";
  return 0;
}

// `run` is a one-cell sweep sharing the whole cached pipeline; the only
// difference is output shape (one object, not an array).
int do_run(SweepOptions opt, std::ostream& out, std::ostream& err) {
  if (opt.shards != 0 || opt.shard_index >= 0 || opt.shard_timeout_s > 0 ||
      opt.attempt != 0)
    usage_error("run: sharding flags apply to sweep and shard only");
  if (opt.progress)
    usage_error("run: --progress applies to the sweep orchestrator");
  if (!opt.config_grids.empty())
    usage_error("run: a \"grids\" config applies to sweep only");
  if (opt.config.topologies.size() != 1)
    usage_error("run: need exactly one --topo");
  if (opt.config.patterns.size() != 1)
    usage_error("run: need exactly one --pattern");
  if (opt.config.engines.size() > 1 || opt.config.seeds.size() > 1)
    usage_error("run: takes a single --engine/--seed (use sweep for grids)");
  if (opt.config.engines.empty()) opt.config.engines = {"flow"};
  // Empty seeds: the pattern's own seed= (default 1) applies.

  engine::ExperimentHarness harness(opt.threads);
  std::optional<engine::ResultCache> cache;
  if (!opt.no_cache) cache.emplace(opt.cache_dir);
  auto rows =
      harness.run_grid(opt.config, opt.labels, cache ? &*cache : nullptr);
  if (!opt.json_path.empty() && opt.json_path != "-") {
    engine::write_json(opt.json_path, rows);
    err << "wrote 1 row to " << opt.json_path << "\n";
  } else {
    out << engine::row_json(rows.at(0)) << "\n";
  }
  if (cache) report_cache(*cache, err);
  return 0;
}

SweepOptions parse_grid_flags(const std::vector<std::string>& args,
                              std::size_t start) {
  SweepOptions opt;
  // SweepConfig carries defaults ("flow", seed 1); flags and config files
  // must replace them, not append to them. final_grids/do_run re-default
  // any axis that stays empty.
  opt.config.engines.clear();
  opt.config.seeds.clear();
  std::string config_path;
  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--topo" || flag == "--topology")
      opt.config.topologies.push_back(need_value(args, i));
    else if (flag == "--engine")
      opt.config.engines.push_back(need_value(args, i));
    else if (flag == "--pattern")
      opt.config.patterns.push_back(flow::parse_traffic(need_value(args, i)));
    else if (flag == "--seed")
      opt.config.seeds.push_back(parse_u64(flag, need_value(args, i)));
    else if (flag == "--label")
      opt.labels.push_back(need_value(args, i));
    else if (flag == "--config")
      config_path = need_value(args, i);
    else if (flag == "--json")
      opt.json_path = need_value(args, i);
    else if (flag == "--cache-dir")
      opt.cache_dir = need_value(args, i);
    else if (flag == "--no-cache")
      opt.no_cache = true;
    else if (flag == "--threads")
      opt.threads = static_cast<int>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--shards")
      opt.shards = static_cast<unsigned>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--shard")
      opt.shard_index = static_cast<int>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--workers")
      opt.workers = static_cast<unsigned>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--retries")
      opt.retries = static_cast<unsigned>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else if (flag == "--progress")
      opt.progress = true;
    else if (flag == "--shard-timeout")
      opt.shard_timeout_s = parse_seconds(flag, need_value(args, i));
    else if (flag == "--retry-backoff")
      opt.retry_backoff_s = parse_seconds(flag, need_value(args, i));
    else if (flag == "--attempt")
      opt.attempt = static_cast<int>(
          parse_bounded(flag, need_value(args, i), 1 << 20));
    else
      usage_error("unknown flag '" + flag + "'");
  }
  if (!config_path.empty()) merge_config_file(config_path, &opt);
  return opt;
}

int do_ls(const std::vector<std::string>& args, std::size_t start,
          std::ostream& out) {
  std::string what = "all";
  if (start < args.size()) what = args[start];
  if (start + 1 < args.size()) usage_error("ls: too many arguments");
  const bool all = what == "all";
  if (!all && what != "engines" && what != "topologies" && what != "patterns")
    usage_error("ls: unknown section '" + what +
                "' (engines, topologies, patterns)");
  if (all || what == "engines") {
    out << "engines:\n";
    for (const std::string& name : engine::engine_names())
      out << "  " << name << "\n";
  }
  if (all || what == "topologies") {
    out << "topologies:\n";
    for (const std::string& line : engine::topology_grammar())
      out << "  " << line << "\n";
  }
  if (all || what == "patterns") {
    out << "patterns:\n";
    for (const std::string& line : flow::traffic_grammar())
      out << "  " << line << "\n";
  }
  return 0;
}

int do_cache(const std::vector<std::string>& args, std::size_t start,
             std::ostream& out) {
  std::string action;
  std::string dir = engine::ResultCache::default_dir();
  std::optional<std::int64_t> max_age_s;
  std::optional<std::size_t> max_entries;
  for (std::size_t i = start; i < args.size(); ++i) {
    if (args[i] == "--cache-dir")
      dir = need_value(args, i);
    else if (args[i] == "--max-age")
      max_age_s = parse_age(args[i], need_value(args, i));
    else if (args[i] == "--max-entries")
      max_entries = static_cast<std::size_t>(
          parse_u64(args[i], need_value(args, i)));
    else if (action.empty() && args[i][0] != '-')
      action = args[i];
    else
      usage_error("cache: unknown argument '" + args[i] + "'");
  }
  engine::ResultCache cache(dir);
  if (action == "stats") {
    const auto stats = cache.stats();
    out << "dir: " << cache.dir() << "\n"
        << "entries: " << stats.entries << "\n"
        << "bytes: " << stats.bytes << "\n"
        << "quarantined: " << stats.quarantined << "\n";
    report_routing(out);
    report_batching(out);
    const topo::RoutingCounters c = topo::routing_counters();
    if (c.oracle_fills + c.bfs_fills + c.fault_views == 0)
      out << "  (counters are per-process: run or sweep in the same "
             "process to populate them)\n";
    return 0;
  }
  if (action == "clear") {
    out << "removed " << cache.clear() << " entries from " << cache.dir()
        << "\n";
    return 0;
  }
  if (action == "prune") {
    if (!max_age_s && !max_entries)
      usage_error("cache prune: need --max-age and/or --max-entries");
    const auto pruned = cache.prune(max_age_s, max_entries);
    out << "pruned " << pruned.removed << " entries (" << pruned.kept
        << " kept) in " << cache.dir() << "; quarantine: "
        << pruned.quarantine_removed << " blob(s) aged out\n";
    return 0;
  }
  usage_error("cache: need an action (stats, clear, or prune)");
}

int dispatch(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& cmd = args[0];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    out << kUsage;
    return 0;
  }
  if (cmd == "run") return do_run(parse_grid_flags(args, 1), out, err);
  if (cmd == "sweep") return do_sweep(parse_grid_flags(args, 1), out, err);
  if (cmd == "shard") return do_shard(parse_grid_flags(args, 1), out, err);
  if (cmd == "ls") return do_ls(args, 1, out);
  if (cmd == "cache") return do_cache(args, 1, out);
  usage_error("unknown subcommand '" + cmd + "'");
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    return dispatch(args, out, err);
  } catch (const std::invalid_argument& e) {
    // Bad flags, unparsable topology/pattern specs, unknown engines.
    err << "hxmesh: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "hxmesh: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace hxmesh::cli
