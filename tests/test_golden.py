"""Golden replay digests: every pinned run must reproduce its game.jsonl bytes.

The digests in ``golden/log_digests.json`` are the ``log_digest`` column
of each run's summary CSV. A changed digest is either a bug or a declared
log-format change; regenerate the file only for the latter, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from ielab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "log_digests.json"

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


if __name__ == "__main__":
    doc = {name: {"argv": argv, "digests": log_digests(argv)} for name, argv in RUNS.items()}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
