#!/usr/bin/env python3
"""Sweep benchmark of hxmesh: cold and warm `hxmesh sweep` passes per workload.

Run from the root of a checkout:

    python3 sweepbench/run.py --workload flow_large --seed 1 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics: closed-loop cold sweeps
(one `hxmesh sweep` process in flight, each into an empty cache) followed by
warm replays from the filled cache, plus the set-up time of the workload's
topologies. With --trace 1 it runs the per-layer pass instead: the layer
probe times each call into the library and writes a Chrome trace file.
Every output row is checked; the last stdout line is the result object.
See sweepbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "sweepbench")
CLI = os.path.join(BUILD, "hxmesh", "hxmesh")
PROBE = os.path.join(BUILD, "sweepbench_probe")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

DEFAULT_SEED = 1
PASS_TIMEOUT_S = 150
SHARDS, SHARD_WORKERS = 8, 2
# Warm replays after each cold pass: at least this many, and until they
# have taken this share of the cold pass's wall (replays of a few dozen rows
# last milliseconds, so they need many samples).
MIN_REPLAYS, REPLAY_SHARE = 5, 0.1
REL_TOL = 1e-9         # reference rows, relative
REFERENCE_ROWS = 200   # sweep_many keeps about this many reference rows

NUMERIC_FIELDS = ("flows", "mean_bps", "min_bps", "p50_bps", "max_bps",
                  "aggregate_fraction", "completion_s", "alpha_s",
                  "fraction_of_peak")
IDENTITY_FIELDS = ("topology", "engine", "pattern", "message_bytes", "seed")


# --------------------------------------------------------------- workloads --
# Every flow cell below gives the identical row when the solver's filling
# cap is lifted (checked for the default seed and others; see README.md).
# Cells that do not converge under the cap stay out until the solver does.

LARGE_MACHINES = ["fattree:16384", "fattree:16384:taper=0.5",
                  "fattree:16384:taper=0.25", "dragonfly:large",
                  "hyperx:128x128", "hx2mesh:64x64", "hx4mesh:32x32",
                  "torus:128x128"]
ALLREDUCE_SIZES = ["1MiB", "16MiB", "256MiB"]
SMALL_MACHINES = ["hx2mesh:4x4", "hx2mesh:8x8", "hx4mesh:4x4",
                  "hyperx:16x16", "fattree:256", "torus:16x16",
                  "dragonfly:4:2:2:9", "hx2mesh:8x8:faults=links:8:seed=3"]


def grid(topologies, patterns, engine="flow", seeds=None):
    g = {"topologies": topologies, "engines": [engine], "patterns": patterns}
    if seeds is not None:
        g["seeds"] = seeds
    return g


def draw_seeds(rng, n):
    return sorted(rng.sample(range(1, 1 << 31), n))


def allreduces():
    return ([f"allreduce:msg={s}" for s in ALLREDUCE_SIZES] +
            [f"allreduce:torus:msg={s}" for s in ALLREDUCE_SIZES])


def flow_large(rng):
    perm, a2a = draw_seeds(rng, 4), draw_seeds(rng, 1)
    return [
        grid(LARGE_MACHINES, allreduces()),
        grid(["hyperx:128x128"], ["alltoall:samples=4", "perm"],
             seeds=perm[:2]),
        grid(["hx4mesh:32x32", "hx2mesh:32x32"], ["alltoall"], seeds=a2a),
        grid(["hx2mesh:32x32", "hx2mesh:40x40"], ["perm"], seeds=perm),
        grid(["hx2mesh:40x40:faults=links:20:seed=3",
              "hx2mesh:48x48:faults=links:24:seed=3"],
             [f"allreduce:msg={s}" for s in ALLREDUCE_SIZES]),
        # Two tiny packet cells: the packet layer is timed on every workload.
        grid(["hx2mesh:2x2"], ["perm:msg=64KiB", "allreduce:msg=256KiB"],
             engine="packet", seeds=draw_seeds(rng, 1)),
    ]


def packet_small(rng):
    seeds = draw_seeds(rng, 1)
    return [
        grid(["hx2mesh:8x8", "hx4mesh:4x4", "torus:16x16", "fattree:256"],
             ["perm", "alltoall:msg=4KiB", "allreduce:msg=256KiB"],
             engine="packet", seeds=seeds),
        grid(["hx2mesh:8x8"], ["shift:1:route=ugal", "perm:route=valiant"],
             engine="packet", seeds=seeds),
        # A few tiny flow cells: the flow layers are timed on every workload.
        grid(["hx2mesh:8x8", "hx2mesh:8x8:faults=links:8:seed=3"],
             ["perm", "alltoall", "allreduce:msg=1MiB", "allreduce:msg=16MiB"],
             seeds=seeds),
    ]


def sweep_many(rng):
    seeds = draw_seeds(rng, 80)
    return [
        grid(SMALL_MACHINES, ["perm", "alltoall:samples=4", "allreduce"],
             seeds=seeds),
        grid(["hx2mesh:2x2"], ["perm:msg=64KiB", "allreduce:msg=256KiB"],
             engine="packet", seeds=seeds[:20]),
    ]


WORKLOADS = {"flow_large": flow_large, "packet_small": packet_small,
             "sweep_many": sweep_many}
SHARDED_COLD = {"sweep_many"}  # cold passes through --shards/--workers


# ---------------------------------------------------------------- helpers --
class Failure(Exception):
    """The benchmark cannot produce a result (build or set-up broken)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(argv, log_path, timeout=PASS_TIMEOUT_S):
    with open(log_path, "w") as out:
        proc = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-2000:]
        raise Failure(f"{' '.join(argv[:3])} ... exited {proc.returncode}\n{tail}")


def build(threads):
    """Builds the CLI and the probe from this checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise Failure("no hxmesh sources next to the benchmark")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    os.path.join(WORK, "configure.log"), timeout=600)
    run_checked(["cmake", "--build", BUILD, "-j", str(threads)],
                os.path.join(WORK, "build.log"), timeout=850)


def timed_process(argv, env, log_path):
    """Runs argv to completion; returns (wall s, exit code, peak RSS MB).

    The peak RSS is wait4's: the largest of the process and every child it
    waited for (the shard workers of a sharded sweep)."""
    with open(log_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def quantile_tail(values):
    """(label, value): the highest percentile with at least ten samples
    beyond it, or the maximum when that would not lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n - 10 > n / 2:
        return f"p{100 * (n - 10) / n:.4g}", ordered[n - 11]
    return "max", ordered[-1]


# ----------------------------------------------------------------- checks --
def identity(row):
    return tuple(row[k] for k in IDENTITY_FIELDS)


def load_rows(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class Checker:
    """Holds every output row against the plan, the row properties and,
    for the default seed, the recorded reference."""

    def __init__(self, expected, reference):
        self.expected = [identity(r) for r in expected]
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def note(self, msg):
        if len(self.problems) < 20:
            self.problems.append(msg)

    def row_ok(self, row):
        try:
            agg, fop = row["aggregate_fraction"], row["fraction_of_peak"]
            allreduce = row["pattern"].startswith("allreduce")
            # The packet engine reports allreduce as fraction_of_peak only
            # and leaves aggregate_fraction at its default of 0.
            agg_ok = 0 < agg <= 1 or (allreduce and row["engine"] == "packet"
                                      and agg == 0)
            ok = (row["numerics_ok"] is True and agg_ok and
                  row["min_bps"] <= row["p50_bps"] <= row["max_bps"] and
                  math.isfinite(row["completion_s"]) and
                  row["completion_s"] > 0)
            if allreduce:
                ok = ok and 0 < fop <= 1
            return ok
        except (KeyError, TypeError):
            return False

    def check(self, rows, what):
        """Checks one pass's rows; returns how many verified."""
        n = len(self.expected)
        self.attempted += n
        if rows is None:
            self.failed += n
            self.note(f"{what}: no rows")
            return 0
        by_id = {}
        for row in rows:
            by_id.setdefault(identity(row), []).append(row)
        bad = 0
        for i, ident in enumerate(self.expected):
            found = by_id.get(ident, [])
            if len(found) != 1:
                bad += 1
                self.note(f"{what}: cell {ident} appears {len(found)} times")
                continue
            row = found[0]
            if not self.row_ok(row):
                bad += 1
                self.note(f"{what}: cell {ident} fails a row check")
            elif self.reference is not None and not self.matches_reference(i, row):
                bad += 1
                self.note(f"{what}: cell {ident} differs from the reference")
        expected = set(self.expected)
        extra = sum(len(v) for k, v in by_id.items() if k not in expected)
        if extra:
            self.note(f"{what}: {extra} unexpected rows")
            bad = min(n, bad + extra)
        self.failed += bad
        return n - bad

    def matches_reference(self, index, row):
        ref = self.reference.get(index)
        if ref is None:
            return True
        if tuple(ref[k] for k in IDENTITY_FIELDS) != identity(row):
            return False
        for k in NUMERIC_FIELDS:
            a, b = ref[k], row[k]
            if a != b and abs(a - b) > REL_TOL * max(abs(a), abs(b)):
                return False
        return ref["numerics_ok"] == row["numerics_ok"]

    def check_identical(self, path, cold_path, what):
        """Rows of `path` (None: the pass failed) must be byte-identical to
        the cold pass's."""
        self.attempted += len(self.expected)
        same = False
        if path is not None:
            with open(path, "rb") as a, open(cold_path, "rb") as b:
                same = a.read() == b.read()
        if not same:
            self.failed += len(self.expected)
            self.note(f"{what}: rows differ from the cold pass")
        return same


def read_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    path = os.path.join(REFERENCE_DIR, workload + ".json")
    with open(path) as f:
        doc = json.load(f)
    return {r["index"]: r for r in doc["rows"]}


def write_reference(workload, rows):
    stride = max(1, len(rows) // REFERENCE_ROWS) if workload == "sweep_many" else 1
    kept = []
    for i in range(0, len(rows), stride):
        r = {"index": i}
        r.update({k: rows[i][k] for k in IDENTITY_FIELDS + NUMERIC_FIELDS})
        r["numerics_ok"] = rows[i]["numerics_ok"]
        kept.append(r)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, workload + ".json"), "w") as f:
        f.write(f'{{"workload": "{workload}", "seed": {DEFAULT_SEED}, '
                f'"rows_in_grid": {len(rows)}, "rows": [\n')
        f.write(",\n".join(json.dumps(r) for r in kept) + "\n]}\n")


# ------------------------------------------------------------------ passes --
class Bench:
    def __init__(self, args, threads):
        self.args = args
        self.threads = threads
        # Only the latest run's files are kept, for inspection.
        shutil.rmtree(os.path.join(WORK, "runs"), ignore_errors=True)
        self.run_dir = fresh_dir(os.path.join(
            WORK, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}"))
        rng = random.Random(f"{args.workload}:{args.seed}")
        self.grid_path = os.path.join(self.run_dir, "grid.json")
        with open(self.grid_path, "w") as f:
            json.dump({"grids": WORKLOADS[args.workload](rng)}, f, indent=1)
        plan_path = os.path.join(self.run_dir, "plan.json")
        run_checked([PROBE, "plan", self.grid_path, plan_path],
                    os.path.join(self.run_dir, "plan.log"))
        self.expected = load_rows(plan_path)
        reference = (None if args.record_reference else
                     read_reference(args.workload, args.seed))
        if reference is not None and args.inject == "reference":
            first = reference[min(reference)]
            first["completion_s"] *= 1 + 1e-6
        self.checker = Checker(self.expected, reference)
        self.provenance = provenance(threads)
        self.passes = 0

    def env(self, cache_dir, threads):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("HXMESH_")}
        env["HXMESH_CACHE_DIR"] = cache_dir
        env["HXMESH_THREADS"] = str(threads)
        return env

    def sweep(self, cache_dir, sharded, rows_path, cold):
        """One `hxmesh sweep` pass; returns (wall s, exit code, RSS MB)."""
        if cold:
            os.makedirs(cache_dir, exist_ok=True)
            if self.args.inject == "prefilled" and self.passes == 0:
                self.sweep(cache_dir, False, rows_path, cold=False)
            if os.listdir(cache_dir):
                self.checker.note(f"cache {cache_dir} not empty before a cold pass")
                return None
        threads = self.threads
        argv = [CLI, "sweep", "--config", self.grid_path,
                "--cache-dir", cache_dir, "--json", rows_path]
        if sharded:
            workers = min(SHARD_WORKERS, threads)
            threads = max(1, threads // workers)
            argv += ["--shards", str(SHARDS), "--workers", str(workers)]
        argv += ["--threads", str(threads)]
        self.passes += 1
        log_path = rows_path + ".log"
        # Write back what earlier passes left dirty, so that no pass pays
        # for another's file system work.
        os.sync()
        return timed_process(argv, self.env(cache_dir, threads), log_path)

    def checked_rows(self, rows_path, status, what):
        rows = load_rows(rows_path) if status == 0 else None
        if rows and self.args.inject == "numerics" and self.passes == 1:
            rows[0]["numerics_ok"] = False
        if rows and self.args.inject == "missing" and self.passes == 1:
            rows.pop()
        return rows, self.checker.check(rows, what)

    def cold(self, tag, sharded):
        cache_dir = fresh_dir(os.path.join(self.run_dir, "cache-" + tag))
        rows_path = os.path.join(self.run_dir, f"rows-{tag}.json")
        result = self.sweep(cache_dir, sharded, rows_path, cold=True)
        if result is None:
            self.checker.check(None, f"cold {tag}")
            return None
        wall, status, rss = result
        rows, verified = self.checked_rows(rows_path, status, f"cold {tag}")
        return {"wall": wall, "rss": rss, "rows": rows, "verified": verified,
                "cache": cache_dir, "rows_path": rows_path}

    def replay(self, cold, tag):
        rows_path = os.path.join(self.run_dir, f"rows-{tag}.json")
        wall, status, _ = self.sweep(cold["cache"], False, rows_path, cold=False)
        if not self.checker.check_identical(rows_path if status == 0 else None,
                                            cold["rows_path"], tag):
            return None
        return len(self.expected) / wall

    def setup_seconds(self):
        """Set-up time of one fresh process, which builds each topology once."""
        out = os.path.join(self.run_dir, "setup.txt")
        run_checked([PROBE, "setup", self.grid_path], out)
        with open(out) as f:
            return float(f.read())


def measure_end_to_end(bench):
    sharded = bench.args.workload in SHARDED_COLD
    setups, rates, replay_rates, rss = [], [], [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        # Set-up is sampled once per cycle, so that its median spans the run.
        setups.append(bench.setup_seconds())
        cold = bench.cold(f"cold{cycle}", sharded)
        if cold is not None and cold["rows"] is not None:
            rates.append(cold["verified"] / cold["wall"])
            rss.append(cold["rss"])
            if cycle == 0 and bench.args.record_reference:
                write_reference(bench.args.workload, cold["rows"])
            replays, spent = 0, 0.0
            while replays < MIN_REPLAYS or spent < REPLAY_SHARE * cold["wall"]:
                rate = bench.replay(cold, f"warm{cycle}")
                replays += 1
                if rate is None:
                    break
                replay_rates.append(rate)
                spent += len(bench.expected) / rate
        cycle += 1
        # Stop before a cycle that would end past --seconds (at least one).
        elapsed = time.perf_counter() - start
        if elapsed * (cycle + 1) / cycle > bench.args.seconds:
            break
    metrics = {
        "rows_per_s": (statistics.median(rates) if rates else 0.0, "rows/s"),
        "replay_rows_per_s": (statistics.median(replay_rates)
                              if replay_rates else 0.0, "rows/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
    }
    log(f"{bench.args.workload}: {cycle} cold pass(es) of {len(bench.expected)}"
        f" rows at " + ", ".join(f"{r:.4g}" for r in rates) + " rows/s; "
        f"{len(replay_rates)} warm replays")
    return metrics


# -------------------------------------------------------------- per layer --
RUN_SPANS = ("flow.alltoall", "flow.perm", "flow.allreduce_ring",
             "flow.allreduce_model", "flow.degraded", "sim.run")


def measure_per_layer(bench, trace_path):
    probe_dir = fresh_dir(os.path.join(bench.run_dir, "probe"))
    probe_trace = os.path.join(probe_dir, "trace.json")
    env = bench.env(os.path.join(probe_dir, "cache-traced"), bench.threads)
    start = time.perf_counter()
    wall, status, _ = timed_process(
        [PROBE, "trace", bench.grid_path, probe_dir, probe_trace], env,
        os.path.join(probe_dir, "probe.log"))
    if status != 0:
        with open(os.path.join(probe_dir, "probe.log")) as f:
            raise Failure("probe trace failed:\n" + f.read()[-2000:])
    # The CLI's own cold passes: in process and sharded, same total threads.
    direct_start = time.perf_counter()
    direct = bench.cold("direct", sharded=False)
    sharded_start = time.perf_counter()
    sharded = bench.cold("sharded", sharded=True)
    if direct is None or direct["rows"] is None:
        raise Failure("the in-process cold CLI sweep failed")
    # Every other pass must print exactly the checked rows of that sweep.
    for name in ("warmup", "untraced", "traced", "warm", "harness"):
        path = os.path.join(probe_dir, f"rows-{name}.json")
        bench.checker.check_identical(path if os.path.exists(path) else None,
                                      direct["rows_path"], f"probe {name}")
    if sharded is None or sharded["rows"] is None:
        raise Failure("the sharded cold CLI sweep failed")

    with open(probe_trace) as f:
        doc = json.load(f)
    spans = {}
    for e in doc["traceEvents"]:
        if e.get("ph") == "X":
            spans.setdefault(e["name"], []).append(e)

    def durs(name, scale=1e-6):
        return [e["dur"] * scale for e in spans.get(name, [])]

    def total(name):
        return sum(durs(name))

    metrics, tails = {}, {}

    def distribution(name, values, unit):
        if not values:
            raise Failure(f"no samples for {name}")
        label, tail = quantile_tail(values)
        metrics[name + ".p50"] = (statistics.median(values), unit)
        metrics[name + ".tail"] = (tail, unit)
        metrics[name + ".n"] = (len(values), "count")
        tails[name] = f"{label} of {len(values)}"

    distribution("topo.build_s", durs("topo.build"), "s")
    for name in RUN_SPANS:
        distribution(name + "_s", durs(name), "s")
    distribution("sim.host_s_per_sim_ms",
                 [e["dur"] * 1e-6 / (e["args"]["sim_s"] * 1e3)
                  for e in spans.get("sim.run", [])], "s/ms")
    distribution("cache.store_us", durs("cache.store", 1.0), "us")
    distribution("cache.load_us", durs("cache.load", 1.0), "us")
    distribution("cache.entry_kb", [e["args"]["bytes"] / 1024.0
                                    for e in spans.get("cache.store", [])], "KB")
    cell_work = (total("topo.build") + total("engine.make") +
                 total("cache.probe") + total("cache.store") +
                 sum(total(n) for n in RUN_SPANS))
    metrics["plan.build_s"] = (total("plan.build"), "s")
    metrics["harness.run_s"] = (total("harness.run_grids"), "s")
    metrics["harness.overhead_s"] = (total("harness.run_grids") - cell_work, "s")
    metrics["shard.sweep_s"] = (sharded["wall"], "s")
    metrics["shard.overhead_s"] = (sharded["wall"] - direct["wall"], "s")
    metrics["shard.worker_rss_mb"] = (sharded["rss"], "MB")
    metrics["trace.overhead_s"] = (total("pass.cold_traced") -
                                   total("pass.cold_untraced"), "s")
    metrics["rows.executed"] = (sum(len(spans.get(n, [])) for n in RUN_SPANS),
                                "count")
    metrics["rows.cached"] = (len(spans.get("cache.load", [])), "count")

    # One trace file: the probe's spans (pid 1) and the CLI passes (pid 2),
    # the latter placed relative to the probe's start.
    events = doc["traceEvents"]
    events.append({"name": "process_name", "ph": "M", "pid": 2, "tid": 1,
                   "args": {"name": "hxmesh sweep (cold, timed by run.py)"}})
    for name, c, t in (("cli.sweep_direct", direct, direct_start),
                       ("cli.sweep_sharded", sharded, sharded_start)):
        events.append({"name": name, "cat": "cli", "ph": "X",
                       "ts": (t - start) * 1e6, "dur": c["wall"] * 1e6,
                       "pid": 2, "tid": 1, "args": {"rss_mb": c["rss"]}})
    doc["otherData"] = dict(bench.provenance, workload=bench.args.workload,
                            seed=bench.args.seed, tails=tails,
                            probe_wall_s=wall)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump(doc, f)
    for name, label in sorted(tails.items()):
        log(f"  {name}: tail is {label}")
    log(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    return metrics


# -------------------------------------------------------------------- main --
def source_digest():
    """sha256 over the files the build reads: names the tree where there is
    no git commit to name it."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("cmake", "src", "sweepbench"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def provenance(threads):
    info = json.loads(subprocess.run([PROBE, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    return dict(info, nproc=os.cpu_count(), threads=threads, commit=commit,
                sources_sha256=source_digest())


def negative_controls(args):
    """Each injected fault must fail the run (nonzero exit, correct=false)."""
    ok = True
    for inject in ("numerics", "reference", "missing", "prefilled"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                args.workload, "--seed", str(DEFAULT_SEED), "--seconds", "1",
                "--trace", "0", "--threads", str(args.threads),
                "--inject", inject]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        failed = proc.returncode != 0 and result.get("correct") is False
        log(f"negative control {inject}: "
            f"{'fails the run as it must' if failed else 'DID NOT FAIL'}")
        ok = ok and failed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=4,
                        help="program threads in total (capped at nproc)")
    parser.add_argument("--inject", choices=("numerics", "reference",
                                             "missing", "prefilled"),
                        help="negative control: inject this fault")
    parser.add_argument("--negative-controls", action="store_true",
                        help="run every --inject fault and expect failure")
    parser.add_argument("--record-reference", action="store_true",
                        help="write reference/<workload>.json (default seed)")
    args = parser.parse_args()
    if args.negative_controls:
        return negative_controls(args)
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("--record-reference takes the default seed")

    threads = max(1, min(args.threads, os.cpu_count() or 1))
    try:
        build(threads)
        bench = Bench(args, threads)
        print(json.dumps({"provenance": bench.provenance}), flush=True)
        if args.trace:
            trace_path = os.path.join(
                WORK, "traces", f"{args.workload}-seed{args.seed}.trace.json")
            metrics = measure_per_layer(bench, trace_path)
        else:
            metrics = measure_end_to_end(bench)
    except (Failure, subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"sweepbench: {e}")
        return 1
    for root, dirs, _ in os.walk(bench.run_dir):
        for name in [d for d in dirs if d.startswith("cache-")]:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
            dirs.remove(name)
    checker = bench.checker
    for problem in checker.problems:
        log("check failed: " + problem)
    correct = checker.failed == 0
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
