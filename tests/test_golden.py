"""Golden outputs: pinned runs and oracle checks must reproduce exactly.

The digests in ``golden/log_digests.json`` are the ``log_digest`` column
of each run's summary CSV. ``golden/verify_checks.json`` holds every
``verify --suite all`` check as (name, value, ok), the exact values of
the 2-phase micro_stoch_1 oracle table, and the node-level content of
three oracle tables: every agent choice, branch mass and one-step audit
entry. A changed golden is either a bug
or a declared format change; regenerate the files only for the latter,
with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import csv
import io
import json
from pathlib import Path

from fractions import Fraction

import pytest

from ielab import det_parameters, instances, mechanism, oracle
from ielab.cli import main
from ielab.harness import _det_target_provider

GOLDEN = Path(__file__).parent / "golden" / "log_digests.json"
VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify_checks.json"

_STOCH = ["--override", 'prior={"micro":"stoch1"}', "--override", "mechanism.n_lrn=8",
          "--override", "mechanism.total_phases=40", "--seeds", "0..4"]

RUNS = {
    "det": ["run-det", "--seeds", "0..9"],
    "det-exact": ["run-det", "--exact", "--seeds", "0..1"],
    "det-full-log": ["run-det", "--override", "episode_log=full",
                     "--override", "mechanism.total_phases=2", "--seeds", "0..1"],
    "det-truster": ["run-det", "--override", 'agent={"mode":"canonical_truster"}',
                    "--seeds", "0..4"],
    "prob-truster": ["run-prob", *_STOCH,
                     "--override", 'agent={"mode":"canonical_truster"}'],
    "prob-rational": ["run-prob", *_STOCH,
                      "--override", 'agent={"mode":"fully_rational"}'],
}


def log_digests(argv: list[str]) -> dict[str, str]:
    """seed -> log_digest from the summary CSV a run prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    return {r["seed"]: r["log_digest"] for r in csv.DictReader(rows)}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_log_digests(name):
    golden = json.loads(GOLDEN.read_text())
    assert golden[name]["argv"] == RUNS[name]
    assert log_digests(RUNS[name]) == golden[name]["digests"]


def test_golden_float_and_exact_det_agree():
    """The float fast path and the exact ledger path replay the same bytes."""
    golden = json.loads(GOLDEN.read_text())
    exact = golden["det-exact"]["digests"]
    assert exact == {s: golden["det"]["digests"][s] for s in exact}


def verify_checks(out_dir) -> list[list]:
    """[name, value, ok] of every check ``verify --suite all`` reports."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "all", "--out", str(out_dir)]) == 0
    report = json.loads((Path(out_dir) / "verify.json").read_text())
    return [[c["name"], c["value"], c["ok"]] for c in report["checks"]]


@functools.cache
def stoch_table():
    """The 2-phase micro_stoch_1 table of test_stochastic_micro_table."""
    cfg = mechanism.MechanismConfig(40, 1, Fraction(7, 2880), 2, rho=Fraction(1, 4))
    return oracle.enumerate_game(cfg, instances.micro_stoch_1().expand(), 2, cap=40_000)


def stoch_table_values() -> dict[str, str]:
    """Exact mass and TVs of the 2-phase micro_stoch_1 table."""
    table = stoch_table()
    return {
        "total_mass": str(table.total_mass()),
        "hygiene_tv.censored": str(oracle.hygiene_tv(table, "censored", 2)),
        "hygiene_tv.honest": str(oracle.hygiene_tv(table, "honest", 2)),
        "distribution_tv": str(oracle.hallucination_distribution_check(table, 2)),
    }


def _node_rows(table) -> dict[str, list]:
    """Per phase: each node's punish mass, exploit choice and hallucination branches."""
    return {
        str(ell): [[str(n.mass()), str(n.pr_punish_given_cens),
                    None if n.exploit_policy is None else n.exploit_policy.encoding,
                    [[str(br.prob), br.policy.encoding] for br in n.branches]]
                   for n in nodes]
        for ell, nodes in table.nodes.items()
    }


def oracle_tables() -> dict:
    """Node content of the det 3-phase tables (both agents) and the stoch
    2-phase table, plus the det one-step audit entries."""
    fp = instances.micro_det_1()
    prior = fp.expand()
    cfg, _ = det_parameters(fp)
    det = oracle.enumerate_game(cfg, prior, 3)
    truster = oracle.enumerate_game(cfg, prior, 3, agent_mode="canonical_truster")
    provider = _det_target_provider(prior)
    audit = {
        str(ell): [[str(e.gap), str(e.condition_rhs), sorted(e.argmax), str(e.p_hal),
                    e.in_target]
                   for e in oracle.one_step_audit(det, ell, provider).entries]
        for ell in (1, 2, 3)
    }
    return {"det3": _node_rows(det), "det3_truster": _node_rows(truster),
            "stoch2": _node_rows(stoch_table()), "det3_one_step": audit}


def test_golden_verify_checks(tmp_path):
    golden = json.loads(VERIFY_GOLDEN.read_text())
    assert verify_checks(tmp_path) == golden["verify"]
    assert stoch_table_values() == golden["stoch_table"]


def test_golden_oracle_tables():
    assert oracle_tables() == json.loads(VERIFY_GOLDEN.read_text())["tables"]


if __name__ == "__main__":
    import tempfile

    doc = {name: {"argv": argv, "digests": log_digests(argv)} for name, argv in RUNS.items()}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"verify": verify_checks(tmp), "stoch_table": stoch_table_values(),
               "tables": oracle_tables()}
    VERIFY_GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
