"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --first-seed N --tmp DIR \
        --trace 0|1 --result FILE

Imports ielab from the checkout's ``src/`` (never an installed copy),
times set-up, runs one repetition of the workload through ielab's public
entry points with its artifacts under ``DIR/out``, checks the outputs,
and writes a JSON result to FILE. With ``--trace 1`` the span tracer of
``tracing.py`` is installed after set-up and its spans are written to
``DIR/spans.tsv``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seeded runs per repetition; oracle-exact takes no seeds.
SEEDS_PER_REP = {"det-sweep": 40, "prob-sweep": 4, "det-full-log": 1, "oracle-exact": 0}

DET_PHASES = 8  # SAH of micro_det_1: run-det plays every phase of the certified schedule
DET_FULL_EPISODES = 1 + 7 * 7680  # 1 + (SAH - 1) * n_phase for micro_det_1
PROB_PHASES = 320
PROB_ARGS = ["--override", 'prior={"micro":"stoch1"}', "--override", "mechanism.n_lrn=64",
             "--override", f"mechanism.total_phases={PROB_PHASES}"]

# Seconds calibrate() takes on an uncontended core of the machine the
# benchmark was defined on (2-vCPU Intel Xeon sandbox). Times are reported
# at this reference speed; see "Reference-speed seconds" in README.md.
CALIBRATION_REF_S = 0.025


def cli_args(workload: str, first: int, out: str) -> list[str]:
    seeds = ["--seeds", f"{first}..{first + SEEDS_PER_REP[workload] - 1}"]
    if workload == "det-sweep":
        return ["run-det", *seeds, "--out", out]
    if workload == "prob-sweep":
        return ["run-prob", *PROB_ARGS, *seeds, "--out", out]
    if workload == "det-full-log":
        return ["run-det", "--override", "episode_log=full", *seeds, "--out", out]
    return ["verify", "--suite", "all", "--out", out]


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes now: the machine's current speed.

    It touches no ielab code and no Fraction, so neither a change to the
    program nor the tracer can move it.
    """
    t = time.perf_counter()
    acc, d = 0, {}
    for i in range(150_000):
        acc += i * i % 7
        d[i & 1023] = acc
    return time.perf_counter() - t


def import_ielab():
    sys.path.insert(0, str(SRC))
    import ielab.cli

    if Path(ielab.__file__).resolve().parent != SRC / "ielab":
        raise RuntimeError(f"ielab imported from {ielab.__file__}, not {SRC}")
    return ielab


def set_up(workload: str) -> float:
    """What an invocation pays before phase 1: import, prior expansion,
    the parameter calculator and PriorTables for the workload's instance."""
    t0 = time.perf_counter()
    ielab = import_ielab()
    from fractions import Fraction

    if workload in ("det-sweep", "det-full-log", "oracle-exact"):
        fp = ielab.micro_det_1()
        ielab.det_parameters(fp)
        ielab.PriorTables(fp.expand())
    if workload in ("prob-sweep", "oracle-exact"):
        fp = ielab.micro_stoch_1()
        if workload == "prob-sweep":
            ielab.prob_parameters(fp, Fraction(1, 4), 0.1, n_lrn_override=64,
                                  total_phases_override=PROB_PHASES)
        ielab.PriorTables(fp.expand())
    return time.perf_counter() - t0


def numpy_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def stoch_table():
    """The exact stochastic table of test_stochastic_micro_table and its TVs."""
    from fractions import Fraction

    from ielab import instances, mechanism, oracle

    cfg = mechanism.MechanismConfig(40, 1, Fraction(7, 2880), 2, rho=Fraction(1, 4))
    table = oracle.enumerate_game(cfg, instances.micro_stoch_1().expand(), 2, cap=40_000)
    return {
        "total_mass": table.total_mass(),
        "hygiene_tv.censored": oracle.hygiene_tv(table, "censored", 2),
        "hygiene_tv.honest": oracle.hygiene_tv(table, "honest", 2),
        "distribution_tv": oracle.hallucination_distribution_check(table, 2),
    }


def run_workload(workload: str, first: int, out: str, log, cal: list) -> dict:
    from ielab import cli

    res = {}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log):
            res["exit_code"] = cli.main(cli_args(workload, first, out))
    except Exception as e:  # a crash is a failed repetition, reported by the checks
        res["exit_code"] = None
        res["error"] = repr(e)
    t1 = time.perf_counter()
    res["wall_s"] = t1 - t0
    if workload == "oracle-exact":
        res["oracle_det_s"] = t1 - t0
        cal.append(calibrate())
        t2 = time.perf_counter()
        try:
            res["stoch"] = stoch_table()
        except Exception as e:
            res["stoch"] = None
            res["error"] = repr(e)
        res["oracle_stoch_s"] = time.perf_counter() - t2
        res["wall_s"] = res["oracle_det_s"] + res["oracle_stoch_s"]
    return res


# ---------------------------------------------------------------------------
# output checks. An operation is one seeded run, one verify check or one
# table query; each check returns (attempted, {operation: failure}, info).


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _record_types(path: Path) -> list[str] | None:
    """The "type" of every game.jsonl record, or None if a line is malformed."""
    try:
        with open(path) as f:
            return [json.loads(line)["type"] for line in f]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def _check_run(workload: str, row: dict, game: Path, kinds: list[str]) -> list[str]:
    bad = []
    if _sha256(game) != row["log_digest"]:
        bad.append("game.jsonl digest differs from the summary's log_digest")
    if kinds[0] != "header" or kinds[-1] != "summary" \
            or kinds.count("header") != 1 or kinds.count("summary") != 1:
        bad.append("game.jsonl lacks one header and one summary")
    n_phase, n_episode = kinds.count("phase"), kinds.count("episode")
    if workload == "prob-sweep":
        if n_phase != PROB_PHASES:
            bad.append(f"{n_phase} phase records, expected {PROB_PHASES}")
        return bad
    if n_phase != DET_PHASES:
        bad.append(f"{n_phase} phase records, expected {DET_PHASES}")
    covered = row["phases_to_coverage"]
    if covered == "" or int(covered) > int(row["reach_size"]):
        bad.append(f"coverage at phase {covered!r}, reach_size {row['reach_size']}")
    if row["new_triple_until_coverage"] != "True":
        bad.append("a phase before coverage found no new triple")
    want = DET_FULL_EPISODES if workload == "det-full-log" else DET_PHASES
    if int(row["episodes_simulated"]) != want or n_episode != want:
        bad.append(f"episodes_simulated {row['episodes_simulated']}, "
                   f"{n_episode} records, expected {want}")
    return bad


def check_sweep(workload: str, first: int, out: Path, res: dict) -> tuple:
    seeds = range(first, first + SEEDS_PER_REP[workload])
    info = {"runs": 0, "phases": 0, "episodes": 0, "explored": 0, "digests": []}
    if res["exit_code"] != 0:
        why = f"exit code {res['exit_code']} {res.get('error', '')}"
        return len(seeds), {f"seed {s}": why for s in seeds}, info
    if not (out / "summary.csv").is_file():
        return len(seeds), {f"seed {s}": "no summary.csv" for s in seeds}, info
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    failures = {}
    for seed in seeds:
        mine = [r for r in rows if r["seed"] == str(seed)]
        game = out / f"run-{seed}" / "game.jsonl"
        if len(mine) != 1 or not game.is_file():
            failures[f"seed {seed}"] = f"{len(mine)} summary rows, game.jsonl {game.is_file()}"
            continue
        row = mine[0]
        kinds = _record_types(game)
        if not kinds:
            failures[f"seed {seed}"] = "game.jsonl is empty or malformed"
            continue
        info["runs"] += 1
        info["phases"] += kinds.count("phase")
        info["episodes"] += kinds.count("episode")
        info["explored"] += row.get("phases_to_exploration", "") != ""
        info["digests"].append(row["log_digest"])
        bad = _check_run(workload, row, game, kinds)
        if bad:
            failures[f"seed {seed}"] = "; ".join(bad)
    if len(rows) != len(seeds) and not failures:
        failures["summary.csv"] = f"{len(rows)} rows for {len(seeds)} seeds"
    return len(seeds), failures, info


STOCH_EXPECTED = {"total_mass": 1, "hygiene_tv.censored": 0, "hygiene_tv.honest": 0,
                  "distribution_tv": 0}


def check_oracle(out: Path, res: dict) -> tuple:
    report = out / "verify.json"
    try:
        checks = json.loads(report.read_text())["checks"] if report.is_file() else []
    except (json.JSONDecodeError, KeyError):
        checks = []
    failures = {f"verify {c['name']}": c["value"] for c in checks if not c["ok"]}
    if res["exit_code"] != 0 and not failures or not checks:
        failures["verify"] = f"exit code {res['exit_code']}, {len(checks)} checks " \
                             f"{res.get('error', '')}"
    stoch = res.get("stoch") or {}
    for q, want in STOCH_EXPECTED.items():
        if q not in stoch:
            failures[f"stoch {q}"] = f"not computed {res.get('error', '')}"
        elif stoch[q] != want:  # exact Fraction comparison
            failures[f"stoch {q}"] = f"{stoch[q]}, expected exactly {want}"
    blob = json.dumps([checks, {q: str(v) for q, v in stoch.items()}], sort_keys=True)
    info = {"runs": 0, "phases": 0, "episodes": 0, "explored": 0,
            "digests": [hashlib.sha256(blob.encode()).hexdigest()]}
    return max(len(checks), 1) + len(STOCH_EXPECTED), failures, info


def reference_speed(raw: dict, cal: list) -> dict:
    """Scale every time of the repetition by CALIBRATION_REF_S over the
    median of the calibrations taken in it (before and after set-up, after
    the workload, and between the two parts of oracle-exact)."""
    factor = CALIBRATION_REF_S / statistics.median(cal)
    return {k: raw[k] * factor
            for k in ("setup_s", "wall_s", "oracle_det_s", "oracle_stoch_s") if k in raw}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SEEDS_PER_REP))
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--tmp", required=True, help="scratch directory for this repetition")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help="time set-up and exit")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    cal = [calibrate()]
    setup_s = set_up(args.workload)
    cal.append(calibrate())
    result = {"raw": {"setup_s": setup_s}, "calibration_s": cal, **numpy_info()}
    if not args.setup_only:
        tmp = Path(args.tmp)
        out = tmp / "out"
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        with open(tmp / "stdout.txt", "w") as log:
            res = run_workload(args.workload, args.first_seed, str(out), log, cal)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        cal.append(calibrate())
        if tracer is not None:
            tracer.write(str(tmp / "spans.tsv"))
        if args.workload == "oracle-exact":
            attempted, failures, info = check_oracle(out, res)
        else:
            attempted, failures, info = check_sweep(args.workload, args.first_seed, out, res)
        result["raw"].update({k: v for k, v in res.items() if k.endswith("_s")})
        result.update(info, attempted=attempted, failed=len(failures), failures=failures,
                      bytes_written=dir_bytes(out) if out.is_dir() else 0)
    result.update(reference_speed(result["raw"], cal))
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
