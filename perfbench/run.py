#!/usr/bin/env python3
"""End-to-end benchmark of the amdrelc design-space sweep.

Run from the repo root:

    python3 perfbench/run.py --workload ref-cold --seed 1 --seconds 20 --trace 0

It builds amdrelc and the benchmark programs from the checkout into
.bench_build/, prepares the workload (set-up), then runs a single-client
closed loop: one real amdrelc invocation at a time, each writing its sweep
with --json, each output checked byte for byte against the workload's
oracle. With --trace 1 it times a shorter untraced loop and then runs the
in-process replay (perfbench_replay), which times every layer from outside.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Every result is also appended,
stamped with host context, to .bench_build/history.jsonl.

README.md beside this file maps metrics to layers and workloads.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BUILD_JOBS = "4"

REF_CORPUS = "ofdm,jpeg,fir,sobel"
REF_GRID = "1000,1500,3000,5000x1,2,3,4"   # the ROADMAP reference grid
PREFILL_GRID = "1000,1500x1,2,3,4"         # half of REF_GRID's platforms
SYNTH_GRID = "1500x2"
REF_THREADS = "4"
SERVE_WORKERS = 3
SETUP_REPS = 9
REFERENCE_SEED = "1"
WARMUP_SECONDS = 3
TRACE_CLI_SHARE = 0.4  # share of a traced run spent on the untraced loop
# The replay's rebuilt sweep over the library's compute_sweep_shard on the
# same shards (replay.library_ratio). Outside this band the replay no
# longer does the library's work, and its per-layer figures are not the
# program's: the traced run fails.
LIBRARY_RATIO_BAND = (0.8, 1.25)

WORKLOADS = ("ref-cold", "synth-serve", "ref-warm-half")

# Layers the launched worker process covers; it runs outside the
# in-process replay's wall time.
WORKER_LAYERS = ("serve.worker_first_line", "serve.worker_stream")
COUNTS = (
    ("interp.instructions", "count"),
    ("core.mapper_restores", "count"),
    ("core.sweep_cache.hit_ratio", "ratio"),
    ("core.sweep_cache.bytes", "bytes"),
    ("core.wire.bytes", "bytes"),
)


# Paths of the built programs, filled in by build().
TOOLS = {}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and host context
# --------------------------------------------------------------------------

def build(root):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        raise BenchError("run from the repo root: the amdrel sources "
                         "(CMakeLists.txt, src/) are not here")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                       "--target", "amdrelc", "perfbench_corpus",
                       "perfbench_replay", "perfbench_spawn"],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return {
        "amdrelc": os.path.join(build_dir, "amdrel", "tools", "amdrelc"),
        "corpus": os.path.join(build_dir, "perfbench_corpus"),
        "replay": os.path.join(build_dir, "perfbench_replay"),
        "spawn": os.path.join(build_dir, "perfbench_spawn"),
    }


def cmake_cache_value(root, key):
    try:
        with open(os.path.join(root, BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest(root):
    """SHA-256 over the sources the build reads, for checkouts without git."""
    digest = hashlib.sha256()
    files = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def host_context(root):
    compiler = cmake_cache_value(root, "CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = out.stdout.splitlines()[0] if out.stdout else None
    sha = None
    if shutil.which("git"):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() if out.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cmake_cache_value(root, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_sha256": source_digest(root),
    }


# --------------------------------------------------------------------------
# Invocations
# --------------------------------------------------------------------------

def spawn(argv):
    """Runs argv in the current directory through perfbench_spawn, with
    stdout discarded and stderr in stderr.log. Returns (wall seconds, exit
    code, CPU seconds, max RSS in MiB) of argv and its descendants."""
    out = subprocess.run([TOOLS["spawn"], "stderr.log", *argv],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError(f"perfbench_spawn failed: {out.stderr}")
    wall, cpu, rss_kib, code = out.stdout.split()
    return float(wall), int(code), float(cpu), int(rss_kib) / 1024.0


def stderr_tail():
    try:
        with open("stderr.log") as handle:
            return handle.read()[-2000:]
    except OSError:
        return ""


def run_checked(argv):
    _, code, _, _ = spawn(argv)
    if code != 0:
        raise BenchError(f"{' '.join(argv)} exited {code}:\n{stderr_tail()}")


def file_sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def remove(*paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """One workload: set-up builds its inputs and oracle in the current
    directory; command() is the timed invocation; before_invocation()
    restores per-invocation state outside the timed window."""

    def __init__(self, name, args):
        self.name = name
        self.args = args
        self.seed = str(args.seed)
        self.oracle = None
        self.cells = 0

    def corpus(self):
        if self.name != "synth-serve":
            return REF_CORPUS
        return ",".join(f"p{i}.mc" for i in range(self.args.programs))

    def grid(self):
        return SYNTH_GRID if self.name == "synth-serve" else REF_GRID

    def expected_key(self, seed):
        """The key of this sweep's recorded digest in expected.json."""
        if self.name != "synth-serve":
            return f"ref seed={seed}"
        a = self.args
        return (f"synth corpus-seed={a.corpus_seed} programs={a.programs} "
                f"functions={a.functions} statements={a.statements} "
                f"expr-depth={a.expr_depth} loop-nest={a.loop_nest} "
                f"seed={seed}")

    def check_recorded(self, seed, digest):
        with open(os.path.join(HERE, "expected.json")) as handle:
            recorded = json.load(handle).get(self.expected_key(seed))
        if recorded is not None and recorded != digest:
            raise BenchError(f"sweep digest {digest} differs from the "
                             f"recorded {recorded} "
                             f"({self.expected_key(seed)})")

    def check_reference(self):
        """Checks the sweep at REFERENCE_SEED against its recorded digest,
        so a changed artifact shows whatever --seed the run uses."""
        run_checked(self.explore(self.grid(), "1", "--json", "reference.json",
                                 seed=REFERENCE_SEED))
        self.check_recorded(REFERENCE_SEED, file_sha256("reference.json"))

    def explore(self, grid, threads, *extra, seed=None):
        return [TOOLS["amdrelc"], "explore", "--corpus", self.corpus(),
                "--grid", grid, "--threads", threads,
                "--seed", seed or self.seed, *extra]

    def command(self):
        if self.name == "synth-serve":
            return [TOOLS["amdrelc"], "serve", "--corpus", self.corpus(),
                    "--grid", self.grid(), "--workers", str(SERVE_WORKERS),
                    "--threads", "1", "--seed", self.seed,
                    "--json", "out.json"]
        command = self.explore(REF_GRID, REF_THREADS, "--json", "out.json")
        if self.name == "ref-warm-half":
            command += ["--cache", "cache.jsonl"]
        return command

    def before_invocation(self):
        remove("out.json")
        if self.name == "ref-warm-half":
            remove("cache.jsonl.lock")
            shutil.copyfile("prefill.jsonl", "cache.jsonl")

    def setup(self):
        """Prepares inputs and the oracle digest; raises on any mismatch."""
        a = self.args
        if self.name == "synth-serve":
            run_checked([TOOLS["corpus"], "--seed", str(a.corpus_seed),
                         "--programs", str(a.programs),
                         "--functions", str(a.functions),
                         "--statements", str(a.statements),
                         "--expr-depth", str(a.expr_depth),
                         "--loop-nest", str(a.loop_nest), "--out", "."])
        # The oracle: a single-threaded explore of the same sweep.
        run_checked(self.explore(self.grid(), "1", "--json", "oracle.json"))
        self.oracle = file_sha256("oracle.json")
        with open("oracle.json") as handle:
            self.cells = len(json.load(handle)["cells"])
        self.check_recorded(self.seed, self.oracle)
        if self.name == "ref-warm-half":
            remove("prefill.jsonl", "prefill.jsonl.lock")
            run_checked(self.explore(PREFILL_GRID, REF_THREADS,
                                     "--cache", "prefill.jsonl"))
        # One timed-command run checks the timed path against the oracle.
        self.before_invocation()
        command = self.command()
        if self.name == "ref-warm-half":
            command += ["--cache-stats", "stats.json"]
        run_checked(command)
        if file_sha256("out.json") != self.oracle:
            raise BenchError(f"{self.name}: output differs from the "
                             "single-threaded explore")
        if self.name == "ref-warm-half":
            with open("stats.json") as handle:
                stats = json.load(handle)
            half = self.cells // 2
            if stats["cell_hits"] != half or stats["cell_misses"] != half:
                raise BenchError(f"warm cache hit {stats['cell_hits']} and "
                                 f"missed {stats['cell_misses']} cells, "
                                 f"want {half} each")


def set_up(workload, workdir):
    """Runs the set-up SETUP_REPS times from an empty directory each time
    and returns the median time. An untimed set-up, the reference-seed
    check and WARMUP_SECONDS of the timed command come first, so no
    timing starts on an idle host."""
    times = []
    for rep in range(SETUP_REPS + 1):
        os.chdir(os.path.dirname(workdir))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        os.chdir(workdir)
        start = time.perf_counter()
        workload.setup()
        if rep == 0:
            workload.check_reference()
            failures = closed_loop(workload, WARMUP_SECONDS)[3]
            if failures:
                raise BenchError(f"warm-up invocation failed: {failures[0]}")
        else:
            times.append(time.perf_counter() - start)
    log(f"set-up times (s): {[round(t, 4) for t in times]}")
    return statistics.median(times)


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def closed_loop(workload, seconds):
    """Invokes the workload's command back to back for `seconds`; every
    output is checked against the oracle."""
    command = workload.command()
    walls, cpus, rss, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        workload.before_invocation()
        wall, code, cpu, rss_mib = spawn(command)
        ok = code == 0 and os.path.exists("out.json") and \
            file_sha256("out.json") == workload.oracle
        if not ok:
            failures.append(f"exit {code}: {stderr_tail()[-400:]}")
        walls.append(wall)
        cpus.append(cpu)
        rss.append(rss_mib)
        if time.perf_counter() >= deadline:
            break
    return walls, cpus, rss, failures


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def end_to_end_metrics(workload, walls, cpus, rss, failures, setup_s):
    ok = len(walls) - len(failures)
    return {
        "invoke_s.p50": (statistics.median(walls), "s"),
        "invoke_s.p90": (percentile(walls, 0.9), "s"),
        "cells_per_s": (workload.cells * ok / sum(walls), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced_replay(workload, seconds):
    w = workload
    command = [TOOLS["replay"], "--mode",
               "serve" if w.name == "synth-serve" else "explore",
               "--corpus", w.corpus(), "--grid", w.grid(), "--seed", w.seed,
               "--seconds", f"{seconds:.3f}", "--expect", "oracle.json",
               "--spans", "spans.json"]
    if w.name == "synth-serve":
        command += ["--workers", str(SERVE_WORKERS),
                    "--amdrelc", TOOLS["amdrelc"]]
    if w.name == "ref-warm-half":
        command += ["--cache", "replay-cache.jsonl",
                    "--cache-prefill", "prefill.jsonl"]
    out = subprocess.run(command, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench_replay exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def per_layer_metrics(workload, replay, invoke_p50):
    metrics = {}
    for layer, times in replay["layers"].items():
        metrics[f"{layer}.busy_s"] = (times["busy_s"], "s")
        metrics[f"{layer}.calls"] = (times["calls"], "count")
    for name, unit in COUNTS:
        metrics[name] = (replay["counts"][name], unit)
    metrics["other_s"] = (replay["other_s"], "s")
    metrics["replay.library_ratio"] = (replay["library_ratio"], "ratio")
    metrics["trace.overhead"] = (replay["wall_s"] / invoke_p50, "ratio")
    serve_overhead = 0.0
    if workload.name == "synth-serve":
        serve_overhead = invoke_p50 - replay["inprocess_sweep_s"]
    metrics["serve.overhead_s"] = (serve_overhead, "s")
    return metrics


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

def print_table(title, rows):
    print(title)
    width = max(len(row[0]) for row in rows)
    for row in rows:
        print(f"  {row[0]:<{width}}  {row[1]:>14}  {row[2]}")


def fmt(value):
    return f"{value:.6g}"


def report(workload, e2e, samples, failures, layers=None, replay=None):
    print_table(f"{workload.name}: end to end ({samples} invocations, "
                f"{len(failures)} failed, fail_rate "
                f"{fmt(len(failures) / samples)})",
                [(name, fmt(value), unit)
                 for name, (value, unit) in e2e.items()])
    for failure in failures[:3]:
        print(f"  failure: {failure}")
    if layers:
        wall = replay["wall_s"]
        rows = []
        for name, (value, unit) in layers.items():
            share = ""
            in_replay = name.endswith(".busy_s") and \
                name[:-len(".busy_s")] not in WORKER_LAYERS
            if in_replay or name == "other_s":
                share = f"{100 * value / wall:5.1f}% of replay"
            rows.append((name, fmt(value), f"{unit:6} {share}"))
        covered = 1 - replay["other_s"] / wall
        print_table(f"{workload.name}: per layer ({replay['replays']} traced "
                    f"replays, {fmt(wall)} s each, named layers cover "
                    f"{100 * covered:.1f}%, {replay['spans']} spans in "
                    "spans.json)", rows)


def append_history(root, record):
    with open(os.path.join(root, BUILD_DIR, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="amdrelc --seed (annealing and random-ordering "
                             "seed) for every invocation")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=11,
                        help="synth-serve: seed of the generated corpus")
    parser.add_argument("--programs", type=int, default=8)
    parser.add_argument("--functions", type=int, default=3)
    parser.add_argument("--statements", type=int, default=10)
    parser.add_argument("--expr-depth", type=int, default=3)
    parser.add_argument("--loop-nest", type=int, default=2)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    try:
        TOOLS.update(build(root))
        host = host_context(root)
        workload = Workload(args.workload, args)
        workdir = os.path.join(root, BUILD_DIR, f"run-{args.workload}")
        setup_s = set_up(workload, workdir)

        cli_seconds = args.seconds * (TRACE_CLI_SHARE if args.trace else 1)
        walls, cpus, rss, failures = closed_loop(workload, cli_seconds)
        e2e = end_to_end_metrics(workload, walls, cpus, rss, failures,
                                 setup_s)
        attempted, failed = len(walls), len(failures)
        layers = replay = None
        if args.trace:
            replay = traced_replay(workload, args.seconds - cli_seconds)
            attempted += replay["replays"]
            failed += replay["failed"]
            low, high = LIBRARY_RATIO_BAND
            if not low <= replay["library_ratio"] <= high:
                failed += 1
                log(f"perfbench: the replay's sweep took "
                    f"{replay['library_ratio']:.3f}x the library's "
                    f"compute_sweep_shard, outside [{low}, {high}]; "
                    "perfbench/replay.cc no longer matches the library")
            layers = per_layer_metrics(workload, replay, e2e["invoke_s.p50"][0])
    except BenchError as error:
        log(f"perfbench: {error}")
        return 1
    finally:
        os.chdir(root)

    print(f"host: {json.dumps(host, sort_keys=True)}")
    report(workload, e2e, len(walls), failures, layers, replay)
    metrics = layers if args.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    append_history(root, {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "args": vars(args), "host": host, "result": result,
    })
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
