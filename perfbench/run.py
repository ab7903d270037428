"""ielab benchmark: four CLI-level workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload det-sweep --seed 0 --seconds 25 --trace 0

Run from anywhere; ielab is imported from the ``src/`` next to this
directory. Each repetition runs in a fresh interpreter (``worker.py``),
one at a time, until ``--seconds`` have passed (at least three
repetitions). Reported values are medians over repetitions. The last
line of standard output is one JSON object; the lines before it print
every metric by name with its unit, the machine, and the checks.

With ``--trace 0`` the JSON holds the end-to-end metrics. With
``--trace 1`` the untraced repetitions are followed by traced ones on
the same inputs, and the JSON holds the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import TARGETS, summarize
from worker import CALIBRATION_REF_S, SEEDS_PER_REP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench-tmp"

MIN_REPS = 3
MIN_SETUP_SAMPLES = 7
TRACED_REPS = 2
DEADLINE_S = 170.0
# One worker process at a time, and numpy's BLAS single-threaded, so the
# load never needs more than one of the machine's cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Functions whose harness entry points report top-level busy time only.
TOP_LEVEL_ONLY = ("harness.cmd_run_det", "harness.cmd_run_prob", "harness.cmd_verify")


class BenchError(Exception):
    pass


def first_seed(workload: str, seed: int, rep: int) -> int:
    """Master seeds of repetition ``rep``: disjoint per (seed, rep) pair."""
    return (seed * 1000 + rep) * SEEDS_PER_REP[workload]


class Runner:
    def __init__(self, workload: str, tmp: Path, started: float):
        self.workload = workload
        self.tmp = tmp
        self.started = started
        self.env = {**os.environ, **THREAD_ENV, "TMPDIR": str(tmp)}

    def worker(self, first: int, trace: int = 0, setup_only: bool = False) -> dict:
        rep_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        result_path = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--first-seed", str(first), "--tmp", str(rep_dir), "--trace", str(trace),
               "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        left = DEADLINE_S - (time.monotonic() - self.started)
        try:
            if left <= 0:
                raise BenchError(f"out of time before a {self.workload} repetition")
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  timeout=left)
            if proc.returncode != 0:
                raise BenchError(f"worker exited with code {proc.returncode}")
            with open(result_path) as f:
                result = json.load(f)
            if trace:
                result["trace"] = summarize(str(rep_dir / "spans.tsv"))
            return result
        except subprocess.TimeoutExpired as e:  # run() has killed and reaped the worker
            raise BenchError(f"worker still running at the {DEADLINE_S:.0f} s deadline") from e
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


def sample(runner: Runner, seed: int, seconds: float) -> tuple[list, list]:
    """Untraced repetitions for ``seconds``, and at least MIN_SETUP_SAMPLES set-ups."""
    reps, last = [], 0.0
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - t0 + last <= seconds:
        t = time.monotonic()
        reps.append(runner.worker(first_seed(runner.workload, seed, len(reps))))
        last = time.monotonic() - t
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.worker(0, setup_only=True)["setup_s"])
    return reps, setups


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, reps: list, setups: list) -> dict:
    """The end-to-end metrics that apply to the workload, except failed_frac:
    name -> (value, unit)."""
    wall = median(r["wall_s"] for r in reps)
    m = {"setup_s": (median(setups), "s"), "wall_s": (wall, "s")}
    if workload != "oracle-exact":
        m["runs_per_s"] = (median(r["runs"] / r["wall_s"] for r in reps), "1/s")
    if workload in ("det-sweep", "prob-sweep"):
        m["phases_per_s"] = (median(r["phases"] / r["wall_s"] for r in reps), "1/s")
    if workload == "det-full-log":
        m["episodes_per_s"] = (median(r["episodes"] / r["wall_s"] for r in reps), "1/s")
    if workload == "oracle-exact":
        m["oracle_det_s"] = (median(r["oracle_det_s"] for r in reps), "s")
        m["oracle_stoch_s"] = (median(r["oracle_stoch_s"] for r in reps), "s")
    m["peak_rss_mb"] = (median(r["peak_rss_mb"] for r in reps), "MB")
    return m


# The end-to-end metrics every workload reports; BENCHMARK.json gates these.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def rep_layers(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    f, c = rep["trace"]["functions"], rep["trace"]["counters"]
    m = {}
    for name, _, _ in TARGETS:
        calls, busy = f[name]["calls"], f[name]["busy_s"]
        if name not in TOP_LEVEL_ONLY:
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.us_per_call"] = (busy * 1e6 / calls if calls else 0.0, "us")
        m[f"{name}.busy_s"] = (busy, "s")
    ev, ch = f["priors.PriorTables.exact_value"], f["agents.AgentSpec.choose"]
    jsonl_calls = f["mechanism.GameLog.to_jsonl"]["calls"]
    m.update({
        "mechanism.run_game.self_s": (f["mechanism.run_game"]["self_s"], "s"),
        "mechanism.GameLog.to_jsonl.calls_per_run":
            (jsonl_calls / rep["runs"] if rep["runs"] else 0.0, "count/run"),
        "mechanism.GameLog.to_jsonl.bytes": (c["to_jsonl_bytes"], "bytes"),
        # a hit is a call that computed nothing: no exact policy_value below
        # exact_value, no traced child at all below choose
        "priors.PriorTables.exact_value.hit_ratio":
            ((ev["calls"] - ev["policy_value_misses"]) / ev["calls"] if ev["calls"] else 0.0,
             "ratio"),
        "agents.AgentSpec.choose.hit_ratio":
            (ch["childless_calls"] / ch["calls"] if ch["calls"] else 0.0, "ratio"),
        "oracle.nodes": (c["oracle_nodes"], "count"),
        "oracle.branches": (c["oracle_branches"], "count"),
        "oracle.fraction_ops": (c["fraction_ops"], "count"),
        "harness.bytes_written": (rep["bytes_written"], "bytes"),
    })
    return m


def exact_counts(rep: dict) -> dict:
    """Counts that must repeat exactly for the same code and inputs."""
    t = rep["trace"]
    out = {f"{name}.calls": f["calls"] for name, f in t["functions"].items()}
    for k in ("fraction_ops", "oracle_nodes", "oracle_branches", "to_jsonl_bytes"):
        out[k] = t["counters"][k]
    return out


def trace_run(runner: Runner, seed: int, reps: list) -> tuple[dict, dict, dict]:
    """Traced repetitions on the inputs of the first untraced ones.

    Returns (per-layer metrics, self-checks {name: failure or None},
    binding sites wrapped per function).
    """
    n = min(TRACED_REPS, len(reps))
    traced = [runner.worker(first_seed(runner.workload, seed, i), trace=1) for i in range(n)]
    again = runner.worker(first_seed(runner.workload, seed, 0), trace=1)
    checks = {}
    for i, t in enumerate(traced):
        same = t["digests"] == reps[i]["digests"]
        checks[f"trace.digests_equal.rep{i}"] = None if same else \
            "traced outcome digests differ from the untraced run's"
    first, second = exact_counts(traced[0]), exact_counts(again)
    diff = sorted(k for k in first if first[k] != second[k])
    checks["trace.counts_repeat"] = f"differ between two traced runs: {diff}" if diff else None
    work = {(t["runs"], t["phases"], t["episodes"]) for t in traced}
    checks["trace.work_per_rep_seed_invariant"] = None if len(work) == 1 else \
        f"runs/phases/episodes per repetition differ across seeds: {sorted(work)}"
    per_rep = [rep_layers(t) for t in traced]
    layers = {k: (median(p[k][0] for p in per_rep), unit) for k, (_, unit) in per_rep[0].items()}
    overhead = median(t["wall_s"] for t in traced) / median(r["wall_s"] for r in reps[:n]) - 1
    layers["trace.overhead_frac"] = (overhead, "ratio")
    return layers, checks, traced[0]["trace"]["binding_sites"]


# ---------------------------------------------------------------------------
# report


def machine(first: dict) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (f"machine: nproc={nproc} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={first['numpy']} blas={first['blas']!r} {threads}")


def describe_inputs(workload: str, seed: int, reps: list) -> str:
    per = SEEDS_PER_REP[workload]
    if not per:
        return (f"{len(reps)} repetitions of `ielab verify --suite all` + the exact "
                f"micro_stoch_1 table at 2 phases (inputs do not depend on --seed)")
    lo, hi = first_seed(workload, seed, 0), first_seed(workload, seed, len(reps)) - 1
    return f"{len(reps)} repetitions x {per} seeded runs (master seeds {lo}..{hi})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ielab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(SEEDS_PER_REP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "ielab" / "__init__.py").is_file():
        print(f"error: no ielab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        runner = Runner(args.workload, tmp, started)
        reps, setups = sample(runner, args.seed, args.seconds)
        e2e = end_to_end(args.workload, reps, setups)
        checks = {}
        if args.trace:
            layers, checks, traced_sites = trace_run(runner, args.seed, reps)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(r["attempted"] for r in reps) + len(checks)
    failures = [f"rep {i}: {op}: {why}" for i, r in enumerate(reps)
                for op, why in r["failures"].items()]
    failures += [f"{name}: {why}" for name, why in checks.items() if why]
    e2e["failed_frac"] = (len(failures) / attempted, "ratio")

    print(f"ielab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(machine(reps[0]))
    print(f"load: closed loop, one fresh interpreter at a time; "
          f"{describe_inputs(args.workload, args.seed, reps)}; {len(setups)} set-up samples")
    cal = median(c for r in reps for c in r["calibration_s"])
    print(f"speed: calibration kernel median {cal * 1e3:.1f} ms (reference "
          f"{CALIBRATION_REF_S * 1e3:.0f} ms); times below are at reference speed; "
          f"raw medians: setup_s {median(r['raw']['setup_s'] for r in reps):.6g} s, "
          f"wall_s {median(r['raw']['wall_s'] for r in reps):.6g} s")
    print("wall_s per repetition: " + " ".join(f"{r['wall_s']:.4g}" for r in reps))
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    if args.workload == "prob-sweep":
        runs = sum(r["runs"] for r in reps)
        print(f"info: {sum(r['explored'] for r in reps)}/{runs} prob runs explored "
              f"within the phase cap (seed-dependent, never a failure)")
    if args.trace:
        print("binding sites wrapped: "
              + " ".join(f"{k}={v}" for k, v in traced_sites.items()))
        for name, (value, unit) in layers.items():
            print(f"  {name:<48} {value:.6g} {unit}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"checks: {len(failures)} failed of {attempted} operations")

    chosen = layers if args.trace else {k: e2e[k] for k in GATED}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
