#include "engine/shard.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/hash.hpp"
#include "core/json_parse.hpp"

namespace hxmesh::engine {

std::string render_manifest(const ShardManifest& manifest) {
  std::string out =
      "{\"schema\":" + std::to_string(ShardManifest::kSchemaVersion);
  out += ",\"grid\":\"" + manifest.fingerprint + "\"";
  out += ",\"shard\":" + std::to_string(manifest.shard);
  out += ",\"shards\":" + std::to_string(manifest.shards);
  out += ",\"cell_lo\":" + std::to_string(manifest.cell_lo);
  out += ",\"cell_hi\":" + std::to_string(manifest.cell_hi);
  out += ",\"hits\":" + std::to_string(manifest.hits);
  out += ",\"computed\":" + std::to_string(manifest.computed);
  out += ",\"keys\":[";
  for (std::size_t i = 0; i < manifest.keys.size(); ++i) {
    out += (i ? "," : "");
    out += "\"" + manifest.keys[i] + "\"";
  }
  out += "]}\n";
  return out;
}

ShardManifest parse_manifest(const std::string& text) {
  const JsonValue doc = parse_json(text);
  if (!doc.is_object())
    throw std::invalid_argument("shard manifest: not a JSON object");
  const JsonValue* schema = doc.get("schema");
  if (!schema || schema->as_int() != ShardManifest::kSchemaVersion)
    throw std::invalid_argument("shard manifest: schema mismatch");

  auto u64 = [&](const char* key) {
    const JsonValue* v = doc.get(key);
    if (!v)
      throw std::invalid_argument(std::string("shard manifest: missing ") +
                                  key);
    return v->as_u64();
  };

  ShardManifest manifest;
  const JsonValue* grid = doc.get("grid");
  if (!grid || !grid->is_string())
    throw std::invalid_argument("shard manifest: missing grid fingerprint");
  manifest.fingerprint = grid->str;
  manifest.shard = static_cast<unsigned>(u64("shard"));
  manifest.shards = static_cast<unsigned>(u64("shards"));
  manifest.cell_lo = u64("cell_lo");
  manifest.cell_hi = u64("cell_hi");
  manifest.hits = u64("hits");
  manifest.computed = u64("computed");
  if (manifest.shards < 1)
    throw std::invalid_argument("shard manifest: zero shard count");
  if (manifest.shard >= manifest.shards)
    throw std::invalid_argument("shard manifest: shard index out of range");
  if (manifest.cell_lo > manifest.cell_hi)
    throw std::invalid_argument("shard manifest: inverted cell range");
  const JsonValue* keys = doc.get("keys");
  if (!keys || !keys->is_array())
    throw std::invalid_argument("shard manifest: missing keys");
  manifest.keys.reserve(keys->array.size());
  for (const JsonValue& k : keys->array) {
    if (!k.is_string())
      throw std::invalid_argument("shard manifest: non-string key");
    manifest.keys.push_back(k.str);
  }
  if (manifest.keys.size() != manifest.cell_hi - manifest.cell_lo)
    throw std::invalid_argument("shard manifest: key count mismatches range");
  // NOTE: duplicate *keys* are legal here — a multi-grid sweep may carry
  // the same (topology, engine, pattern, seed) cell under two labels.
  // Duplicate *coverage* (two manifests claiming one shard index, ranges
  // overlapping, cells past the plan) is merge_error's domain, where the
  // plan is in hand to judge against.
  return manifest;
}

ShardManifest run_shard(ExperimentHarness& harness, const GridPlan& plan,
                        unsigned shard, unsigned shards, ResultCache& cache) {
  const auto [lo, hi] = plan.shard_cells(shard, shards);
  const std::size_t hits_before = cache.hits();
  const std::size_t misses_before = cache.misses();
  harness.run_cells(plan, lo, hi, &cache);

  ShardManifest manifest;
  manifest.fingerprint = plan.fingerprint();
  manifest.shard = shard;
  manifest.shards = shards;
  manifest.cell_lo = lo;
  manifest.cell_hi = hi;
  manifest.hits = cache.hits() - hits_before;
  manifest.computed = cache.misses() - misses_before;
  manifest.keys.reserve(hi - lo);
  for (std::size_t c = lo; c < hi; ++c)
    manifest.keys.push_back(plan.cell_key(c));
  return manifest;
}

std::string merge_error(const GridPlan& plan,
                        const std::vector<ShardManifest>& manifests) {
  if (manifests.empty()) return "no shard manifests";
  const unsigned shards = manifests.front().shards;
  if (manifests.size() != shards)
    return "expected " + std::to_string(shards) + " manifests, got " +
           std::to_string(manifests.size());
  std::vector<const ShardManifest*> by_index(shards, nullptr);
  for (const ShardManifest& m : manifests) {
    const std::string who = "shard " + std::to_string(m.shard);
    if (m.shards != shards) return who + ": inconsistent shard count";
    if (m.shard >= shards) return who + ": index out of range";
    if (by_index[m.shard]) return who + ": covered twice";
    by_index[m.shard] = &m;
    if (m.fingerprint != plan.fingerprint())
      return who + ": grid fingerprint mismatch (manifest " + m.fingerprint +
             ", plan " + plan.fingerprint() + ")";
  }
  // Coverage: ordered by shard index, the ranges must tile
  // [0, total_cells()) exactly, so a gap, an overlap, or a truncated shard
  // cannot pass.
  std::uint64_t expect_lo = 0;
  for (unsigned i = 0; i < shards; ++i) {
    const ShardManifest& m = *by_index[i];
    if (m.cell_lo > m.cell_hi)
      return "shard " + std::to_string(i) + ": inverted cell range";
    if (m.cell_lo != expect_lo)
      return "shard " + std::to_string(i) + ": cell range starts at " +
             std::to_string(m.cell_lo) + ", want " +
             std::to_string(expect_lo) + " (gap or overlap)";
    expect_lo = m.cell_hi;
  }
  if (expect_lo != plan.total_cells())
    return "coverage ends at cell " + std::to_string(expect_lo) + ", want " +
           std::to_string(plan.total_cells());
  // Only now are the ranges known to lie inside the plan, so the per-cell
  // key comparison cannot index past the plan's cell space.
  for (const ShardManifest& m : manifests)
    for (std::size_t c = m.cell_lo; c < m.cell_hi; ++c)
      if (m.keys[c - m.cell_lo] != plan.cell_key(c))
        return "shard " + std::to_string(m.shard) + ": key mismatch at cell " +
               std::to_string(c);
  return "";
}

const char* outcome_name(ShardOutcome outcome) {
  switch (outcome) {
    case ShardOutcome::kPending: return "pending";
    case ShardOutcome::kExited: return "exited";
    case ShardOutcome::kSignaled: return "signaled";
    case ShardOutcome::kTimedOut: return "timed-out";
    case ShardOutcome::kSpawnFailed: return "spawn-failed";
    case ShardOutcome::kSkipped: return "skipped";
  }
  return "unknown";
}

std::string history_names(const ShardRun& run) {
  std::string out;
  for (std::size_t i = 0; i < run.history.size(); ++i) {
    out += (i ? ", " : "");
    out += outcome_name(run.history[i]);
  }
  return out;
}

double retry_backoff_s(const RetryPolicy& policy, unsigned shard,
                       int attempt) {
  if (policy.backoff_base_s <= 0.0 || attempt < 1) return 0.0;
  double delay = policy.backoff_base_s;
  for (int i = 1; i < attempt && delay < policy.backoff_max_s; ++i)
    delay *= 2.0;
  delay = std::min(delay, std::max(policy.backoff_max_s, 0.0));
  // Multiplicative jitter in [0.5, 1.0], hashed — not drawn — so the
  // same (seed, shard, attempt) always waits the same time.
  Fnv1a hash;
  hash.update(policy.seed)
      .update(static_cast<std::uint64_t>(shard))
      .update(attempt);
  const double u = static_cast<double>(hash.digest() >> 11) * 0x1.0p-53;
  return delay * (0.5 + 0.5 * u);
}

std::vector<ShardRun> run_shard_jobs(unsigned shards, unsigned workers,
                                     const RetryPolicy& policy,
                                     const ShardLauncher& launch,
                                     const ShardProgress& progress) {
  std::vector<ShardRun> runs(shards);
  for (unsigned i = 0; i < shards; ++i) runs[i].shard = i;
  if (shards == 0) return runs;
  if (workers == 0) workers = 1;
  if (workers > shards) workers = shards;
  const unsigned max_attempts = std::max(1u, policy.max_attempts);

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<unsigned> queue;
  // Shards leased to a worker or sleeping out a retry backoff: neither
  // queued nor terminal. The run is over only when the queue is empty AND
  // nothing is in flight — an in-flight shard can re-enter the queue as a
  // retry, so an empty queue alone proves nothing. Workers therefore
  // block on the condition variable instead of exiting, which is what
  // lets a retried shard always find a live worker.
  unsigned in_flight = 0;
  unsigned completed = 0;
  bool aborted = false;  // a permanent (exit 2) failure poisons the run
  for (unsigned i = 0; i < shards; ++i) queue.push_back(i);

  // On abort, everything still waiting is marked skipped — retrying
  // cannot fix the config error that poisoned the run, so burning
  // attempts on it would only delay the report. Caller holds the lock.
  auto drain_locked = [&] {
    while (!queue.empty()) {
      ShardRun& run = runs[queue.front()];
      queue.pop_front();
      run.outcome = ShardOutcome::kSkipped;
      run.error = "skipped after a permanent shard failure";
      ++completed;
      if (progress) progress(run, completed, shards);
    }
  };

  // Blocks until a shard can be leased (true) or no work will ever
  // appear again (false).
  auto lease = [&](unsigned& shard, int& attempt) {
    std::unique_lock lock(mutex);
    cv.wait(lock,
            [&] { return aborted || !queue.empty() || in_flight == 0; });
    if (aborted) {
      drain_locked();
      cv.notify_all();
      return false;
    }
    if (queue.empty()) return false;  // nothing queued, nothing in flight
    shard = queue.front();
    queue.pop_front();
    attempt = runs[shard].attempts + 1;
    ++in_flight;
    return true;
  };

  // Records one resolved job attempt. Returns true when the shard should
  // be retried — the caller sleeps the backoff and then requeues;
  // in_flight stays held across that sleep so no worker exits while the
  // shard is off-queue.
  auto resolve = [&](unsigned shard, int attempt,
                     const ShardAttempt& result) {
    std::lock_guard lock(mutex);
    ShardRun& run = runs[shard];
    run.attempts = attempt;
    run.outcome = result.outcome;
    run.exit_code = result.exit_code;
    run.error = result.error;
    run.history.push_back(result.outcome);
    // Exit code 2 is the CLI's usage/config contract: deterministic,
    // so no retry can succeed — fail the whole run fast instead.
    const bool permanent =
        result.outcome == ShardOutcome::kExited && result.exit_code == 2;
    if (permanent) aborted = true;
    const bool retrying = !result.ok() && !permanent && !aborted &&
                          static_cast<unsigned>(attempt) < max_attempts;
    if (!retrying) {
      ++completed;  // success, exhausted, or permanent
      --in_flight;
    }
    // Progress fires under the lock so observers see a serialized,
    // monotonically completing sequence.
    if (progress) progress(run, completed, shards);
    cv.notify_all();
    return retrying;
  };

  // Puts a retried shard back at the end of the queue once its backoff
  // has elapsed.
  auto requeue = [&](unsigned shard) {
    std::lock_guard lock(mutex);
    --in_flight;
    queue.push_back(shard);
    cv.notify_all();
  };

  auto worker = [&] {
    unsigned shard = 0;
    int attempt = 0;
    while (lease(shard, attempt)) {
      ShardAttempt result;
      try {
        result = launch(shard, attempt);
      } catch (const std::exception& e) {
        result.outcome = ShardOutcome::kSpawnFailed;
        result.exit_code = -1;
        result.error = e.what();
      }
      if (resolve(shard, attempt, result)) {
        // Seeded exponential backoff between attempts; sleeping outside
        // the lock keeps the other workers scheduling. The shard re-joins
        // the queue only after the delay, so a crashing dependency gets
        // breathing room instead of a retry stampede.
        const double backoff = retry_backoff_s(policy, shard, attempt);
        if (backoff > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        requeue(shard);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return runs;
}

}  // namespace hxmesh::engine
