// Sharded grid execution: the shard partition covers every cell exactly
// once for awkward shard counts, a sharded run merges byte-identically to
// a single-process run, manifests round-trip and gate merges, and the
// orchestrator retries failed shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "core/fsio.hpp"
#include "engine/grid_plan.hpp"
#include "engine/harness.hpp"
#include "engine/shard.hpp"

namespace hxmesh {
namespace {

using engine::ExperimentHarness;
using engine::GridPlan;
using engine::GridSpec;
using engine::ResultCache;
using engine::ShardManifest;
using engine::SweepConfig;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<GridSpec> tiny_grids() {
  SweepConfig a;
  a.topologies = {"hx2mesh:2x2", "torus:4x4"};
  a.engines = {"flow"};
  a.patterns = {flow::parse_traffic("shift:1:msg=64KiB"),
                flow::parse_traffic("perm:msg=64KiB")};
  a.seeds = {1, 2};
  SweepConfig b;  // a second grid with its own axes, exercising multi-grid
  b.topologies = {"hx2mesh:2x2"};
  b.engines = {"flow", "packet"};
  b.patterns = {flow::parse_traffic("allreduce:msg=256KiB")};
  b.seeds = {1};
  return {GridSpec{a, {"alpha", "beta"}}, GridSpec{b, {}}};
}

std::string rows_json(const std::vector<engine::SweepRow>& rows) {
  std::ostringstream out;
  engine::write_json(out, rows);
  return out.str();
}

TEST(ShardRange, CoversEveryCellExactlyOnceForAwkwardCounts) {
  for (std::size_t total : {0u, 1u, 5u, 12u, 17u, 100u}) {
    for (unsigned shards : {1u, 2u, 3u, 5u, 7u, 16u, 40u}) {
      std::size_t expect_lo = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const auto [lo, hi] = GridPlan::shard_range(total, s, shards);
        EXPECT_EQ(lo, expect_lo) << total << " cells, shard " << s << "/"
                                 << shards;
        EXPECT_LE(lo, hi);
        expect_lo = hi;
      }
      EXPECT_EQ(expect_lo, total) << total << " cells over " << shards;
    }
  }
  EXPECT_THROW(GridPlan::shard_range(10, 3, 3), std::invalid_argument);
  EXPECT_THROW(GridPlan::shard_range(10, 0, 0), std::invalid_argument);
}

TEST(GridPlanTest, EnumeratesMultiGridCellsInRowOrder) {
  const auto grids = tiny_grids();
  const GridPlan plan(grids);
  // 2*1*2*2 + 1*2*1*1 cells.
  EXPECT_EQ(plan.total_cells(), 10u);
  EXPECT_EQ(plan.num_jobs(), 4u);       // 2 flow jobs + flow/packet pair
  EXPECT_EQ(plan.num_topo_slots(), 3u); // hx2mesh:2x2 appears per grid

  // The plan's rows must equal the harness's concatenated grid rows.
  ExperimentHarness harness(2);
  const auto rows = harness.run_grids(grids);
  ASSERT_EQ(rows.size(), plan.total_cells());
  for (std::size_t c = 0; c < rows.size(); ++c) {
    const engine::SweepRow row = plan.cell_row(c);
    EXPECT_EQ(row.topology, rows[c].topology) << c;
    EXPECT_EQ(row.label, rows[c].label) << c;
    EXPECT_EQ(row.engine, rows[c].engine) << c;
    EXPECT_EQ(row.seed, rows[c].seed) << c;
    EXPECT_EQ(flow::pattern_spec(row.pattern),
              flow::pattern_spec(rows[c].pattern))
        << c;
  }
  // First grid is labeled, second falls back to the spec.
  EXPECT_EQ(plan.cell_row(0).label, "alpha");
  EXPECT_EQ(plan.cell_row(8).label, "hx2mesh:2x2");

  // Fingerprints: stable for equal grids, different once an axis changes.
  EXPECT_EQ(plan.fingerprint(), GridPlan(tiny_grids()).fingerprint());
  auto other = tiny_grids();
  other[1].config.seeds = {2};
  EXPECT_NE(plan.fingerprint(), GridPlan(other).fingerprint());
}

TEST(GridPlanTest, LabelMismatchThrowsNamingBothSizes) {
  auto grids = tiny_grids();
  grids[0].labels = {"only-one"};
  try {
    GridPlan plan(grids);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 labels"), std::string::npos) << what;
    EXPECT_NE(what.find("2 topologies"), std::string::npos) << what;
  }
}

TEST(ShardExecution, ShardedRunMergesByteIdenticalToSingleProcess) {
  const auto grids = tiny_grids();
  ExperimentHarness harness(2);
  const std::string single = rows_json(harness.run_grids(grids, nullptr));

  const GridPlan plan(grids);
  ResultCache cache(fresh_dir("shard_merge_cache"));
  const unsigned shards = 3;  // does not divide 10 cells
  std::vector<ShardManifest> manifests;
  for (unsigned s = 0; s < shards; ++s)
    manifests.push_back(engine::run_shard(harness, plan, s, shards, cache));

  EXPECT_EQ(engine::merge_error(plan, manifests), "");
  std::uint64_t computed = 0;
  for (const ShardManifest& m : manifests) computed += m.computed;
  EXPECT_EQ(computed, plan.total_cells());

  const auto merged =
      harness.run_cells(plan, 0, plan.total_cells(), &cache);
  EXPECT_EQ(rows_json(merged), single);
  // The merge itself must have been served entirely from the cache.
  EXPECT_EQ(cache.misses(), plan.total_cells());  // only the shard misses
  EXPECT_EQ(cache.hits(), plan.total_cells());

  // A second full sharded pass is all hits.
  const ShardManifest warm = engine::run_shard(harness, plan, 1, shards, cache);
  EXPECT_EQ(warm.computed, 0u);
  EXPECT_EQ(warm.hits, warm.cell_hi - warm.cell_lo);
}

TEST(ShardManifestTest, RendersAndParsesRoundTrip) {
  ShardManifest manifest;
  manifest.fingerprint = "00ff00ff00ff00ff";
  manifest.shard = 2;
  manifest.shards = 5;
  manifest.cell_lo = 4;
  manifest.cell_hi = 6;
  manifest.hits = 1;
  manifest.computed = 1;
  manifest.keys = {"0123456789abcdef", "fedcba9876543210"};

  const ShardManifest parsed =
      engine::parse_manifest(engine::render_manifest(manifest));
  EXPECT_EQ(parsed.fingerprint, manifest.fingerprint);
  EXPECT_EQ(parsed.shard, manifest.shard);
  EXPECT_EQ(parsed.shards, manifest.shards);
  EXPECT_EQ(parsed.cell_lo, manifest.cell_lo);
  EXPECT_EQ(parsed.cell_hi, manifest.cell_hi);
  EXPECT_EQ(parsed.hits, manifest.hits);
  EXPECT_EQ(parsed.computed, manifest.computed);
  EXPECT_EQ(parsed.keys, manifest.keys);

  EXPECT_THROW(engine::parse_manifest("[]"), std::invalid_argument);
  EXPECT_THROW(engine::parse_manifest("{\"schema\":99}"),
               std::invalid_argument);
  // A key list that disagrees with the declared range is rejected.
  manifest.keys.pop_back();
  EXPECT_THROW(engine::parse_manifest(engine::render_manifest(manifest)),
               std::invalid_argument);
}

TEST(ShardMerge, RejectsIncompleteOrForeignManifests) {
  const auto grids = tiny_grids();
  const GridPlan plan(grids);
  ExperimentHarness harness(2);
  ResultCache cache(fresh_dir("shard_reject_cache"));
  std::vector<ShardManifest> manifests;
  for (unsigned s = 0; s < 2; ++s)
    manifests.push_back(engine::run_shard(harness, plan, s, 2, cache));

  EXPECT_EQ(engine::merge_error(plan, manifests), "");

  auto missing = manifests;
  missing.pop_back();
  EXPECT_NE(engine::merge_error(plan, missing), "");

  auto duplicated = manifests;
  duplicated[1] = duplicated[0];
  EXPECT_NE(engine::merge_error(plan, duplicated).find("covered twice"),
            std::string::npos);

  auto foreign = manifests;
  foreign[0].fingerprint = "deadbeefdeadbeef";
  EXPECT_NE(engine::merge_error(plan, foreign).find("fingerprint"),
            std::string::npos);

  auto tampered = manifests;
  tampered[1].keys.back() = "0000000000000000";
  EXPECT_NE(engine::merge_error(plan, tampered).find("key mismatch"),
            std::string::npos);

  // The check does not assume the equal-count split: moving one cell
  // across the boundary is still an exact cover and merges...
  auto shifted = manifests;
  shifted[1].keys.insert(shifted[1].keys.begin(), shifted[0].keys.back());
  shifted[0].keys.pop_back();
  shifted[0].cell_hi -= 1;
  shifted[1].cell_lo -= 1;
  EXPECT_EQ(engine::merge_error(plan, shifted), "");
  // ...while pulling a cell out of a manifest leaves a hole and does not.
  auto holed = manifests;
  holed[0].cell_hi -= 1;
  holed[0].keys.pop_back();
  EXPECT_NE(engine::merge_error(plan, holed).find("gap or overlap"),
            std::string::npos);
  auto truncated = manifests;
  truncated[1].cell_hi -= 1;
  truncated[1].keys.pop_back();
  EXPECT_NE(engine::merge_error(plan, truncated).find("coverage ends"),
            std::string::npos);
}

// Exited launcher attempt with the given code, as the CLI would report it.
engine::ShardAttempt exited(int code, std::string error = "") {
  engine::ShardAttempt attempt;
  attempt.outcome = engine::ShardOutcome::kExited;
  attempt.exit_code = code;
  attempt.error = std::move(error);
  return attempt;
}

// Fast retry policy for unit tests: no backoff sleeping.
engine::RetryPolicy attempts_policy(unsigned max_attempts) {
  engine::RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.backoff_base_s = 0.0;
  return policy;
}

TEST(ShardOrchestrator, RunsEveryShardAndRetriesFailures) {
  // Shard 1 fails twice before succeeding; shard 3 never succeeds.
  std::mutex mutex;
  std::map<unsigned, int> calls;
  auto launch = [&](unsigned shard, int attempt) {
    {
      std::lock_guard lock(mutex);
      EXPECT_EQ(++calls[shard], attempt);  // attempts are 1-based, in order
    }
    if (shard == 1 && attempt <= 2) return exited(7, "transient failure");
    if (shard == 3) return exited(9, "persistent failure");
    return exited(0);
  };
  const auto runs = engine::run_shard_jobs(5, 2, attempts_policy(3), launch);
  ASSERT_EQ(runs.size(), 5u);
  for (unsigned s = 0; s < 5; ++s) EXPECT_EQ(runs[s].shard, s);
  EXPECT_TRUE(runs[0].ok());
  EXPECT_EQ(runs[0].attempts, 1);
  EXPECT_TRUE(runs[1].ok());
  EXPECT_EQ(runs[1].attempts, 3);  // two failures, then success
  EXPECT_EQ(runs[1].error, "");    // the last attempt succeeded
  EXPECT_EQ(runs[3].exit_code, 9);
  EXPECT_EQ(runs[3].outcome, engine::ShardOutcome::kExited);
  EXPECT_EQ(runs[3].error, "persistent failure");  // what() survives
  EXPECT_EQ(runs[3].attempts, 3);  // exhausted max_attempts
  EXPECT_EQ(calls[1], 3);
  EXPECT_EQ(calls[3], 3);
}

TEST(ShardOrchestrator, PermanentConfigErrorAbortsWithoutBurningRetries) {
  // Exit code 2 is the CLI's usage/config contract: deterministic, so the
  // orchestrator must not retry it, and every shard still waiting in the
  // queue is skipped instead of tripping over the same config.
  std::mutex mutex;
  std::map<unsigned, int> calls;
  auto launch = [&](unsigned shard, int) {
    std::lock_guard lock(mutex);
    ++calls[shard];
    return shard == 0 ? exited(2, "bad --pattern spec") : exited(0);
  };
  // One worker: shard 0 is dispatched first, so the outcome is exact.
  const auto runs = engine::run_shard_jobs(4, 1, attempts_policy(5), launch);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].attempts, 1);  // never retried
  EXPECT_EQ(runs[0].exit_code, 2);
  EXPECT_EQ(runs[0].error, "bad --pattern spec");
  EXPECT_EQ(calls[0], 1);
  for (unsigned s = 1; s < 4; ++s) {
    EXPECT_EQ(runs[s].outcome, engine::ShardOutcome::kSkipped) << s;
    EXPECT_EQ(runs[s].attempts, 0) << s;
    EXPECT_EQ(calls.count(s), 0u) << s;
  }
}

TEST(RetryBackoff, DeterministicBoundedAndGrowing) {
  engine::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.backoff_base_s = 0.25;
  policy.backoff_max_s = 2.0;
  policy.seed = 42;
  for (unsigned shard = 0; shard < 4; ++shard) {
    double prev_cap = 0.0;
    for (int attempt = 1; attempt <= 6; ++attempt) {
      const double a = engine::retry_backoff_s(policy, shard, attempt);
      const double b = engine::retry_backoff_s(policy, shard, attempt);
      EXPECT_EQ(a, b) << "same inputs must wait the same time";
      const double cap =
          std::min(policy.backoff_max_s,
                   policy.backoff_base_s * static_cast<double>(1 << (attempt - 1)));
      EXPECT_GE(a, cap * 0.5) << shard << "/" << attempt;
      EXPECT_LE(a, cap) << shard << "/" << attempt;
      EXPECT_GE(cap, prev_cap);
      prev_cap = cap;
    }
  }
  // Different seeds jitter differently (with overwhelming probability).
  engine::RetryPolicy other = policy;
  other.seed = 43;
  EXPECT_NE(engine::retry_backoff_s(policy, 0, 1),
            engine::retry_backoff_s(other, 0, 1));
  // Zero base disables the delay entirely.
  other.backoff_base_s = 0.0;
  EXPECT_EQ(engine::retry_backoff_s(other, 0, 3), 0.0);
}

TEST(ShardOrchestrator, ProgressObservesEveryAttemptAndCompletion) {
  // Shard 1 fails once before succeeding, so attempts exceed shards: the
  // callback must fire once per attempt, with a monotonically
  // non-decreasing completed count that ends exactly at the shard total.
  std::mutex mutex;
  std::map<unsigned, int> calls;
  auto launch = [&](unsigned shard, int) {
    std::lock_guard lock(mutex);
    return shard == 1 && ++calls[shard] == 1 ? exited(3) : exited(0);
  };
  struct Event {
    unsigned shard;
    int attempts;
    int exit_code;
    unsigned completed;
    unsigned total;
  };
  std::vector<Event> events;
  auto progress = [&](const engine::ShardRun& run, unsigned completed,
                      unsigned total) {
    // Serialized by the orchestrator lock: no extra synchronization.
    events.push_back({run.shard, run.attempts, run.exit_code, completed,
                      total});
  };
  const auto runs =
      engine::run_shard_jobs(4, 2, attempts_policy(3), launch, progress);
  ASSERT_EQ(runs.size(), 4u);
  ASSERT_EQ(events.size(), 5u);  // 4 shards + 1 retried attempt
  unsigned last_completed = 0;
  std::vector<char> terminal_seen(4, 0);
  for (const Event& e : events) {
    EXPECT_EQ(e.total, 4u);
    EXPECT_GE(e.completed, last_completed);
    last_completed = e.completed;
    if (e.exit_code == 0) terminal_seen[e.shard] = 1;
  }
  EXPECT_EQ(events.back().completed, 4u);
  for (char seen : terminal_seen) EXPECT_TRUE(seen);
  // The retried shard surfaced its failed first attempt to the observer.
  const bool saw_failure =
      std::any_of(events.begin(), events.end(),
                  [](const Event& e) { return e.exit_code != 0; });
  EXPECT_TRUE(saw_failure);
}

TEST(ShardOrchestrator, LauncherExceptionsCountAsFailedAttempts) {
  std::atomic<int> calls{0};
  auto launch = [&](unsigned, int) -> engine::ShardAttempt {
    ++calls;
    throw std::runtime_error("spawn blew up");
  };
  const auto runs = engine::run_shard_jobs(1, 4, attempts_policy(2), launch);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].outcome, engine::ShardOutcome::kSpawnFailed);
  EXPECT_EQ(runs[0].exit_code, -1);
  EXPECT_EQ(runs[0].error, "spawn blew up");  // what() survives to the report
  EXPECT_EQ(runs[0].attempts, 2);
  EXPECT_EQ(calls.load(), 2);
}

TEST(ShardOrchestrator, HistoryNamesRenderTheRetryReport) {
  // One shard, one worker: signaled, then timed-out, then success — the
  // report string the CLI prints must spell out all three classifications.
  auto launch = [](unsigned, int attempt) {
    engine::ShardAttempt result;
    if (attempt == 1) {
      result.outcome = engine::ShardOutcome::kSignaled;
      result.error = "killed by signal 9";
    } else if (attempt == 2) {
      result.outcome = engine::ShardOutcome::kTimedOut;
      result.error = "watchdog timeout";
    } else {
      result = exited(0);
    }
    return result;
  };
  const auto runs = engine::run_shard_jobs(1, 1, attempts_policy(3), launch);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].ok());
  EXPECT_EQ(runs[0].attempts, 3);
  EXPECT_EQ(engine::history_names(runs[0]), "signaled, timed-out, exited");
  // Zero attempts (skipped shards) render empty, not a stray separator.
  engine::ShardRun untouched;
  EXPECT_EQ(engine::history_names(untouched), "");
}

TEST(ShardManifestTest, MalformedDocumentsThrowTypedErrors) {
  // Every malformed manifest must surface as std::invalid_argument — the
  // merge layer catches exactly that type and refuses the merge; a crash
  // here would take the whole sweep down on one bad file.
  ShardManifest good;
  good.fingerprint = "00ff00ff00ff00ff";
  good.shard = 1;
  good.shards = 3;
  good.cell_lo = 2;
  good.cell_hi = 4;
  good.keys = {"0123456789abcdef", "fedcba9876543210"};
  const std::string text = engine::render_manifest(good);

  // Truncated documents (torn writes, partial transfers) at every length.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, text.size() / 2,
                          text.rfind('}')})
    EXPECT_THROW(engine::parse_manifest(text.substr(0, cut)),
                 std::invalid_argument)
        << "cut at " << cut;

  auto rendered = [&](void (*mutate)(ShardManifest&)) {
    ShardManifest m = good;
    mutate(m);
    return engine::render_manifest(m);
  };
  // Zero shard count, shard index out of range, inverted cell range: all
  // representable in valid JSON, all semantically impossible.
  EXPECT_THROW(engine::parse_manifest(rendered([](ShardManifest& m) {
                 m.shards = 0;
                 m.shard = 0;
               })),
               std::invalid_argument);
  EXPECT_THROW(
      engine::parse_manifest(rendered([](ShardManifest& m) { m.shard = 3; })),
      std::invalid_argument);
  EXPECT_THROW(engine::parse_manifest(rendered([](ShardManifest& m) {
                 m.cell_lo = 5;
                 m.cell_hi = 4;
                 m.keys = {};
               })),
               std::invalid_argument);
  // Non-string entries in the key list.
  std::string doctored = text;
  const auto pos = doctored.find("\"0123456789abcdef\"");
  ASSERT_NE(pos, std::string::npos);
  doctored.replace(pos, 18, "42");
  EXPECT_THROW(engine::parse_manifest(doctored), std::invalid_argument);

  // Duplicate *keys* are legal (a multi-grid sweep can repeat a cell
  // under two labels); duplicate *coverage* is the merge's error domain —
  // see ShardMerge.RejectsIncompleteOrForeignManifests ("covered twice").
  ShardManifest dup = good;
  dup.keys = {"0123456789abcdef", "0123456789abcdef"};
  EXPECT_EQ(engine::parse_manifest(engine::render_manifest(dup)).keys,
            dup.keys);
}

// The CLI shard subcommand is the worker the orchestrator launches; drive
// it in-process against a shared cache and verify the merged sweep output
// equals an uncached single-process sweep of the same config.
TEST(ShardCli, ShardWorkersPlusSweepReproduceSingleProcessRows) {
  const std::string dir = fresh_dir("shard_cli");
  ensure_dir(dir);
  const std::string config = dir + "/grid.json";
  write_file_atomic(config, R"({
    "grids": [
      {"topologies": ["hx2mesh:2x2", "torus:4x4"],
       "patterns": ["shift:1:msg=64KiB", "perm:msg=64KiB"],
       "seeds": [1, 2]},
      {"topologies": ["hx2mesh:2x2"], "engines": ["flow", "packet"],
       "patterns": ["allreduce:msg=256KiB"]}
    ]
  })");

  auto cli = [&](const std::vector<std::string>& args) {
    std::ostringstream out, err;
    const int code = cli::run_cli(args, out, err);
    EXPECT_EQ(code, 0) << err.str();
    return out.str();
  };

  const std::string single = cli({"sweep", "--config", config, "--no-cache",
                                  "--threads", "2"});

  const std::string cache_dir = dir + "/cache";
  for (unsigned s = 0; s < 4; ++s)
    cli({"shard", "--config", config, "--shards", "4", "--shard",
         std::to_string(s), "--cache-dir", cache_dir, "--threads", "1"});

  std::ostringstream out, err;
  ASSERT_EQ(cli::run_cli({"sweep", "--config", config, "--cache-dir",
                          cache_dir, "--threads", "2"},
                         out, err),
            0)
      << err.str();
  EXPECT_EQ(out.str(), single);
  EXPECT_NE(err.str().find("10 hits, 0 misses (100.0% hit rate)"),
            std::string::npos)
      << err.str();
}

}  // namespace
}  // namespace hxmesh
