"""Golden outputs: pinned runs and oracle checks must reproduce exactly.

The digests in ``golden/log_digests.json`` are the ``log_digest`` column
of each run's summary CSV. ``golden/verify_checks.json`` holds every
``verify --suite all`` check as (name, value, ok), the exact values of
the 2-phase micro_stoch_1 oracle table, and the node-level content of
three oracle tables: every agent choice, branch mass and one-step audit
entry. ``golden/stoch_full_log.json`` holds the digests of full-log
``run_game`` runs on micro_stoch_1, whose stochastic transitions and
Bernoulli rewards exercise every branch of trajectory sampling.
``golden/sim_lemma_instances.json`` holds a SHA-256 over every random
model, set, policy, reward function and eps that ``verify_sim_lemma``
draws from ``default_rng(7)``, so a faster way to draw them cannot
change the certified instances. A changed golden is either a bug
or a declared format change. Running

    PYTHONPATH=src python tests/test_golden.py

adds what the files lack (new runs, checks, tables or phases) and
changes nothing else: if the code would change or drop an existing entry,
it names each such entry, writes nothing and exits non-zero. A declared
format change deletes the affected entries by hand first.
"""

from __future__ import annotations

import contextlib
import functools
import csv
import hashlib
import io
import json
from pathlib import Path

from fractions import Fraction

import numpy as np
import pytest

from ielab import det_parameters, instances, mechanism, oracle
from ielab.agents import make_agent
from ielab.cli import main
from ielab.harness import PERF_PAIRS, SIM_PAIRS, _det_target_provider, sample_similar_pair
from ielab.instances import random_model
from ielab.priors import shared_tables

GOLDEN = Path(__file__).parent / "golden" / "log_digests.json"
VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify_checks.json"
STOCH_FULL_GOLDEN = Path(__file__).parent / "golden" / "stoch_full_log.json"
SIM_LEMMA_GOLDEN = Path(__file__).parent / "golden" / "sim_lemma_instances.json"

_STOCH = ["--override", 'prior={"micro":"stoch1"}', "--override", "mechanism.n_lrn=8",
          "--override", "mechanism.total_phases=40", "--seeds", "0..4"]
_STOCH_HAL = ["--override", 'prior={"micro":"stoch1"}', "--override", "mechanism.n_lrn=8",
              "--override", "mechanism.total_phases=40", "--override", "mechanism.eps_pun=3/4",
              "--seeds", "0..2"]

RUNS = {
    "det": ["run-det", "--seeds", "0..9"],
    "det-full-log": ["run-det", "--override", "episode_log=full",
                     "--override", "mechanism.total_phases=2", "--seeds", "0..1"],
    "det-truster": ["run-det", "--override", 'agent={"mode":"canonical_truster"}',
                    "--seeds", "0..4"],
    "prob-truster": ["run-prob", *_STOCH,
                     "--override", 'agent={"mode":"canonical_truster"}'],
    "prob-rational": ["run-prob", *_STOCH,
                      "--override", 'agent={"mode":"fully_rational"}'],
    # criterion 9(a)'s shape: n_lrn 64, 320 phases, canonical truster
    "prob-truster-9a": ["run-prob", "--override", 'prior={"micro":"stoch1"}',
                        "--override", "mechanism.n_lrn=64",
                        "--override", "mechanism.total_phases=320", "--seeds", "0..1",
                        "--override", 'agent={"mode":"canonical_truster"}'],
    # eps_pun 3/4 puts atoms with nonzero mean rewards in the punish event,
    # so hallucinated ledgers carry nonzero rewards
    "prob-truster-hal-rewards": ["run-prob", *_STOCH_HAL,
                                 "--override", 'agent={"mode":"canonical_truster"}'],
    "prob-rational-hal-rewards": ["run-prob", *_STOCH_HAL,
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


def test_hal_rewards_golden_draws_nonzero_rewards():
    """The hal-rewards goldens see nonzero hallucinated rewards: at least
    one explored occurrence of some phase's hallucinated ledger draws a
    positive reward, so a wrong draw or a misattributed count changes
    their digests."""
    prior = instances.micro_stoch_1().expand()
    support = np.array([float(v) for v in shared_tables(prior).support])
    base, _ = mechanism.prob_parameters(instances.micro_stoch_1(), Fraction(1, 4), 0.1,
                                        n_lrn_override=8, total_phases_override=40)
    cfg = mechanism.MechanismConfig(base.n_phase, 8, Fraction(3, 4), 40, base.rho)
    drawn = nonzero = 0

    def hook(ctx, log):
        nonlocal drawn, nonzero
        drawn += int(ctx.hal_counts.sum())
        nonzero += int(ctx.hal_counts[..., support != 0].sum())

    for mode in ("canonical_truster", "fully_rational"):
        for seed in range(3):
            mechanism.run_game(cfg, prior, make_agent(mode, prior, cfg), seed,
                               episode_log="hallucination", phase_hook=hook)
    assert 0 < nonzero < drawn


def stoch_full_log_digests() -> dict:
    """agent mode -> seed -> digest of a full-log micro_stoch_1 run
    (2 single-episode phases, then 4 phases of 64 episodes)."""
    prior = instances.micro_stoch_1().expand()
    cfg = mechanism.MechanismConfig(64, 2, Fraction(7, 2880), 6, rho=Fraction(1, 4))
    out = {}
    for mode in ("canonical_truster", "fully_rational"):
        out[mode] = {}
        for seed in range(3):
            agent = make_agent(mode, prior, cfg)
            log = mechanism.run_game(cfg, prior, agent, seed, episode_log="full")
            out[mode][str(seed)] = log.digest()
    return out


def test_golden_stoch_full_log():
    assert stoch_full_log_digests() == json.loads(STOCH_FULL_GOLDEN.read_text())


def _model_text(m) -> str:
    """Every field of a TabularModel, one canonical line."""
    triples = [(x, a, h) for x in range(1, m.S + 1) for a in range(1, m.A + 1)
               for h in range(1, m.H + 1)]
    rows = [[str(p) for p in m.transition(*t)] for t in triples]
    laws = [[f"{v}:{p}" for v, p in zip(m.reward_dist(*t).support, m.reward_dist(*t).probs)]
            for t in triples]
    return json.dumps([m.S, m.A, m.H, [str(p) for p in m.init], rows, laws,
                       [str(v) for v in m.reward_support]])


def sim_lemma_instances() -> dict:
    """SHA-256 over the instance stream of ``verify_sim_lemma``: every
    ``sample_similar_pair`` draw (both models, U, the policy, the reward
    function and eps, also the eps = 0 draws it skips), then the
    performance-difference model pairs, drawn in the same order from
    ``default_rng(7)``."""
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    draws = tested = 0
    while tested < SIM_PAIRS:
        base, other, U, rt, pol, rep = sample_similar_pair(rng)
        eps = rep.max_distance()
        draws += 1
        tested += eps != 0
        for line in (_model_text(base), _model_text(other), json.dumps(sorted(U)),
                     json.dumps(pol.actions), json.dumps(sorted((t, str(v)) for t, v in rt.items())),
                     str(eps)):
            digest.update(line.encode() + b"\n")
    for _ in range(PERF_PAIRS):
        S = int(rng.integers(2, 4))
        H = int(rng.integers(2, 4))
        for m in (random_model(rng, S, 1, H), random_model(rng, S, 1, H)):
            digest.update(_model_text(m).encode() + b"\n")
    return {"similar_pair_draws": draws, "perf_models": 2 * PERF_PAIRS,
            "sha256": digest.hexdigest()}


def test_golden_sim_lemma_instances():
    assert sim_lemma_instances() == json.loads(SIM_LEMMA_GOLDEN.read_text())


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


def changed_entries(old, new, where: str) -> list[str]:
    """The entries of an existing golden that a new one changes or drops.
    Mappings compare key by key, so a key only the new one has is an
    addition; anything else compares whole."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [where]
    return [entry for k, v in old.items()
            for entry in (changed_entries(v, new[k], f"{where}/{k}") if k in new
                          else [f"{where}/{k} (dropped)"])]


def test_changed_entries_allow_only_additions():
    old = {"det": {"argv": ["run-det"], "digests": {"0": "a"}}, "sha": "x"}
    assert changed_entries(old, {**old, "new-run": {"digests": {}}}, "g") == []
    assert changed_entries(old, {"det": {"argv": ["run-det"], "digests": {"0": "b"}}},
                           "g") == ["g/det/digests/0", "g/sha (dropped)"]


def _keyed_checks(doc: dict, among=None) -> dict:
    """verify_checks.json with its check rows keyed by check name, so a new
    check is an addition, and the order of the checks named in ``among``
    (default: all) as an entry of its own."""
    rows = {name: rest for name, *rest in doc["verify"]}
    return {**doc, "verify": rows,
            "verify order": [n for n in rows if among is None or n in among]}


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        verify_doc = {"verify": verify_checks(tmp), "stoch_table": stoch_table_values(),
                      "tables": oracle_tables()}
    docs = {
        GOLDEN: {name: {"argv": argv, "digests": log_digests(argv)}
                 for name, argv in RUNS.items()},
        STOCH_FULL_GOLDEN: stoch_full_log_digests(),
        SIM_LEMMA_GOLDEN: sim_lemma_instances(),
        VERIFY_GOLDEN: verify_doc,
    }
    changed = []
    for path, doc in docs.items():
        if path.exists():
            old, new = json.loads(path.read_text()), doc
            if path == VERIFY_GOLDEN:
                old = _keyed_checks(old)
                new = _keyed_checks(doc, among=old["verify"])
            changed += changed_entries(old, new, path.name)
    if changed:
        sys.exit("existing golden entries would change; nothing written:\n  "
                 + "\n  ".join(changed))
    for path, doc in docs.items():
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
