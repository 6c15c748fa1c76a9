// Sharded grid execution: split one GridPlan across N worker processes.
//
// A shard is a contiguous block of the plan's cell index space, taken
// from the equal-count split GridPlan::shard_range (the one partition;
// ask for more shards than workers to split the sweep finer). Each
// worker executes its block with ExperimentHarness::run_cells, which
// stores every computed cell into the shared content-addressed
// ResultCache, and then writes a small JSON manifest naming the cells it
// covered. The cache is the wire format: merging is just re-reading the
// full plan through the cache (every cell hits), so a merged sharded run
// renders byte-identical rows to a single-process run. The manifest layer
// exists to make coverage checkable — a merge refuses to proceed unless
// the manifests prove that every cell of this exact grid (by fingerprint)
// was covered exactly once.
//
// The orchestrator half (run_shard_jobs) is process-agnostic: it drives
// any launcher callback with a bounded worker pool fed from one dynamic
// queue, and per-shard retries.
// The CLI wires it to fork/exec'd `hxmesh shard` children.
#pragma once

/// \file
/// \brief Sharded grid execution: shard manifests, single-shard
/// execution, merge verification, and the retrying shard orchestrator.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/grid_plan.hpp"
#include "engine/harness.hpp"

namespace hxmesh::engine {

/// \brief What one shard covered: the cell range, its cache keys, and the
/// session hit/computed split. Serialized as one JSON file per shard.
struct ShardManifest {
  /// Manifest format version; bump when fields change meaning.
  static constexpr int kSchemaVersion = 1;

  std::string fingerprint;        ///< GridPlan::fingerprint of the grid
  unsigned shard = 0;             ///< this shard's index, in [0, shards)
  unsigned shards = 1;            ///< total shard count of the partition
  std::uint64_t cell_lo = 0;      ///< first covered cell (inclusive)
  std::uint64_t cell_hi = 0;      ///< one past the last covered cell
  std::uint64_t hits = 0;         ///< cells served from the cache
  std::uint64_t computed = 0;     ///< cells simulated and stored
  std::vector<std::string> keys;  ///< cache key of every covered cell
};

/// \brief Renders a manifest as its canonical JSON document.
std::string render_manifest(const ShardManifest& manifest);

/// \brief Parses a manifest document.
/// \throws std::invalid_argument on malformed input or a schema mismatch.
ShardManifest parse_manifest(const std::string& text);

/// \brief Executes shard `shard` of `shards` of `plan`: runs the shard's
/// cell block through `harness` with `cache` (storing every miss) and
/// returns the manifest describing the coverage. The block is
/// GridPlan::shard_cells(shard, shards).
ShardManifest run_shard(ExperimentHarness& harness, const GridPlan& plan,
                        unsigned shard, unsigned shards, ResultCache& cache);

/// \brief Checks that `manifests` together cover `plan` exactly.
///
/// Verifies shard count consistency, the presence of every shard index
/// exactly once, matching fingerprints, that the manifests' cell ranges —
/// ordered by shard index — form one exact contiguous cover of
/// `[0, total_cells())`, and that each manifest's keys equal the plan's
/// keys for its range. The check does not assume the equal-count split:
/// any contiguous exact cover merges, and a gap, overlap or truncated
/// shard does not. Returns an empty string when the merge is sound, else
/// a human-readable reason.
std::string merge_error(const GridPlan& plan,
                        const std::vector<ShardManifest>& manifests);

/// \brief How one shard (or one launch attempt) terminated.
enum class ShardOutcome {
  kPending,      ///< never launched (initial state)
  kExited,       ///< ran to an exit code (0 = success)
  kSignaled,     ///< killed by a signal (e.g. a chaos SIGKILL)
  kTimedOut,     ///< the watchdog deadline reaped it
  kSpawnFailed,  ///< the launcher threw or could not start a process
  kSkipped,      ///< never (re)tried: the sweep aborted on a permanent error
};

/// \brief Stable lowercase name ("exited", "timed-out", ...) used
/// verbatim in progress lines and retry reports.
const char* outcome_name(ShardOutcome outcome);

/// \brief Result of one launch attempt, as reported by the launcher.
struct ShardAttempt {
  ShardOutcome outcome = ShardOutcome::kSpawnFailed;
  int exit_code = -1;  ///< meaningful when outcome == kExited
  std::string error;   ///< human-readable failure text ("" on success)

  bool ok() const { return outcome == ShardOutcome::kExited && exit_code == 0; }
};

/// \brief Outcome of driving one shard through the orchestrator.
struct ShardRun {
  unsigned shard = 0;  ///< shard index
  int attempts = 0;    ///< launch attempts consumed (>= 1 unless skipped)
  int exit_code = -1;  ///< last attempt's exit code (0 = success)
  ShardOutcome outcome = ShardOutcome::kPending;  ///< last attempt's class
  std::string error;   ///< last attempt's error text ("" on success)
  /// Watchdog classification of every consumed attempt, in order (the
  /// last element equals `outcome`). This is what the final retry report
  /// prints, so a post-mortem can see "signaled, timed-out, exited"
  /// without digging through intermediate progress lines.
  std::vector<ShardOutcome> history;

  bool ok() const { return outcome == ShardOutcome::kExited && exit_code == 0; }
};

/// \brief Renders a run's attempt history as "signaled, timed-out,
/// exited" for the final per-shard retry report. Empty for zero attempts.
std::string history_names(const ShardRun& run);

/// \brief Retry discipline of the orchestrator.
struct RetryPolicy {
  unsigned max_attempts = 1;    ///< total launches per shard (>= 1)
  double backoff_base_s = 0.25; ///< first retry's mean delay; 0 = none
  double backoff_max_s = 2.0;   ///< exponential growth cap
  std::uint64_t seed = 0;       ///< jitter seed (deterministic per run)
};

/// \brief Deterministic backoff before retry `attempt` of `shard`
/// (attempt is the 1-based count already consumed, so the first retry
/// passes 1). Exponential — min(max, base * 2^(attempt-1)) — with
/// multiplicative jitter in [0.5, 1.0] hashed from (seed, shard,
/// attempt): retries spread out instead of stampeding, and the same
/// inputs always wait the same time, keeping soak tests reproducible.
double retry_backoff_s(const RetryPolicy& policy, unsigned shard, int attempt);

/// \brief Per-attempt progress callback of the orchestrator.
///
/// Invoked after every launch attempt resolves, with the shard's current
/// ShardRun state, the number of shards that have reached a terminal
/// outcome (success, or retries exhausted), and the total shard count.
/// Calls are serialized under the orchestrator's lock, so implementations
/// may write to a stream without their own synchronization; a shard is
/// counted completed in the same call that reports its terminal attempt.
using ShardProgress =
    std::function<void(const ShardRun&, unsigned completed, unsigned total)>;

/// \brief Launcher callback: runs `shard`'s attempt number `attempt`
/// (1-based) and reports how it ended. Must be thread-safe: up to
/// `workers` invocations run concurrently.
using ShardLauncher = std::function<ShardAttempt(unsigned shard, int attempt)>;

/// \brief Drives `launch` for every shard over `workers` concurrent
/// slots, retrying failures under `policy`.
///
/// Failed attempts are retried — after the deterministic retry_backoff_s
/// delay — until the shard succeeds or has consumed
/// `policy.max_attempts` launches, with one exception: an attempt that
/// exits with code 2 (the CLI's usage/config contract) is a *permanent*
/// error that retrying cannot fix, so it is never retried and the whole
/// run aborts — every shard still queued is marked kSkipped instead of
/// burning attempts on the same deterministic failure. A launcher that
/// throws records kSpawnFailed with the exception's what() as the error.
/// Shards are dispatched in index order; retries rejoin the queue's end.
/// Returns one ShardRun per shard, indexed by shard. `progress`, when
/// set, observes every attempt (see ShardProgress).
std::vector<ShardRun> run_shard_jobs(unsigned shards, unsigned workers,
                                     const RetryPolicy& policy,
                                     const ShardLauncher& launch,
                                     const ShardProgress& progress = nullptr);

}  // namespace hxmesh::engine
