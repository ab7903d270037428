"""Experiment orchestration: configs, artifacts, verifier suites, reports.

Artifacts are replayable: a run directory holds manifest.json (config
snapshot, seed, prior digest, version) and game.jsonl; re-running from
the manifest reproduces the JSONL bytes. Summary CSVs have fixed,
documented column orders (never reordered within a major version).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .agents import make_agent
from .analysis import (
    mrp_of,
    performance_difference,
    simulation_gap,
    sufficiently_visiting_policies,
)
from .errors import AssumptionViolated, ConfigError, VerificationFailure
from .instances import micro_det_1, micro_stoch_1, perturb_model, random_model
from .mdp import all_triples, as_fraction
from .mechanism import (
    MechanismConfig,
    det_parameters,
    prior_digest,
    prob_parameters,
    run_game,
)
from .oracle import (
    enumerate_game,
    fabricated_rewards_case,
    hallucination_distribution_check,
    hygiene_tv,
    hygiene_tv_pairs,
    one_step_audit,
    p_hal_audit,
    policy_selection_case,
)
from .priors import shared_tables
from .serialize import prior_from_dict

DET_SUMMARY_COLUMNS = [
    "seed", "phases_to_coverage", "reach_size", "new_triple_until_coverage",
    "episodes_simulated", "log_digest",
]
PROB_SUMMARY_COLUMNS = [
    "seed", "phases_to_exploration", "phase_cap", "reach_size", "log_digest",
]
PARAMS_COLUMNS = [
    "name", "value",
]

_KNOWN_KEYS = {
    "kind", "prior", "mechanism", "agent", "seeds", "out", "exact",
    "episode_log", "rho", "delta", "suite", "overrides", "phase_cap",
    "sim_pairs", "perf_pairs",
}
_KINDS = {"det-theorem", "prob-run", "hygiene", "one-step", "sim-lemma", "params"}


@dataclass
class ExperimentConfig:
    raw: dict

    def __post_init__(self):
        unknown = set(self.raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kind = self.raw.get("kind")
        if kind is not None and kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def seeds(self) -> list[int]:
        spec = self.raw.get("seeds")
        if spec is None:
            env = os.environ.get("IE_SEED")
            return [int(env)] if env else [0]
        if isinstance(spec, int):
            return [spec]
        if isinstance(spec, dict) and "range" in spec:
            a, b = spec["range"]
            return list(range(int(a), int(b) + 1))
        if isinstance(spec, list):
            return [int(s) for s in spec]
        raise ConfigError(f"bad seeds spec: {spec!r}")


def load_config(path: str | None, overrides: list[str] | None = None,
                defaults: dict | None = None) -> ExperimentConfig:
    raw = dict(defaults or {})
    if path is not None:
        try:
            with open(path) as f:
                raw.update(json.load(f))
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value: {ov!r}")
        key, _, value = ov.partition("=")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep as string
        node = raw
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return ExperimentConfig(raw)


def load_prior(cfg: ExperimentConfig):
    """Returns (factored prior or None, expanded DiscretePrior)."""
    spec = cfg.get("prior", {"micro": "det1"})
    if "micro" in spec:
        name = spec["micro"]
        if name == "det1":
            fp = micro_det_1()
        elif name == "stoch1":
            fp = micro_stoch_1()
        else:
            raise ConfigError(f"unknown micro instance {name!r}")
        return fp, fp.expand()
    if "path" in spec:
        try:
            with open(spec["path"]) as f:
                loaded = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read prior {spec['path']}: {e}") from e
        obj = prior_from_dict(loaded)
    elif "inline" in spec:
        obj = prior_from_dict(spec["inline"])
    else:
        raise ConfigError("prior spec needs 'micro', 'path', or 'inline'")
    if hasattr(obj, "expand"):
        return obj, obj.expand()
    return None, obj


def _apply_mechanism_overrides(cfg: ExperimentConfig, base: MechanismConfig) -> MechanismConfig:
    ov = cfg.get("mechanism", {})
    if not ov:
        return base
    fields = base.to_dict()
    for k, v in ov.items():
        if k not in fields:
            raise ConfigError(f"unknown mechanism field {k!r}")
        fields[k] = v
    return MechanismConfig(
        n_phase=int(fields["n_phase"]),
        n_lrn=int(fields["n_lrn"]),
        eps_pun=as_fraction(fields["eps_pun"]),
        total_phases=int(fields["total_phases"]),
        rho=None if fields["rho"] in (None, "") else as_fraction(fields["rho"]),
    )


def _write_artifact(out_dir: str | None, seed: int, manifest: dict, log) -> dict:
    row_digest = log.digest()
    if out_dir:
        run_dir = os.path.join(out_dir, f"run-{seed}")
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, sort_keys=True, indent=2)
        with open(os.path.join(run_dir, "game.jsonl"), "w") as f:
            f.write(log.to_jsonl())
    return {"digest": row_digest}


def _write_csv(out_dir: str | None, name: str, columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=columns)
    w.writeheader()
    for r in rows:
        w.writerow({c: r.get(c) for c in columns})
    text = buf.getvalue()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.csv"), "w") as f:
            f.write(text)
    return text


def cmd_run_det(cfg: ExperimentConfig) -> int:
    """Deterministic-class exploration runs with the certified schedule."""
    factored, prior = load_prior(cfg)
    if factored is None:
        raise AssumptionViolated("det-theorem runs need a reward-independent prior")
    base, info = det_parameters(factored)
    config = _apply_mechanism_overrides(cfg, base)
    tables = shared_tables(prior)
    agent_mode = cfg.get("agent", {}).get("mode", "fully_rational")
    episode_log = cfg.get("episode_log", "hallucination")
    out_dir = cfg.get("out")
    exact = bool(cfg.get("exact", False))
    track_hh = prior.n * len(tables.policies) <= 10**5
    rows = []
    for seed in cfg.seeds():
        agent = make_agent(agent_mode, prior, config, exact=exact, tables=tables)
        log = run_game(config, prior, agent, seed, episode_log=episode_log,
                       tables=tables, track_hh=track_hh, keep_signals=exact)
        covered = log.summary["phases_to_coverage"]
        flags = log.summary["new_triple_flags"]
        until = covered if covered is not None else len(flags)
        manifest = {
            "version": __version__, "seed": seed, "config": config.to_dict(),
            "agent_mode": agent_mode, "episode_log": episode_log,
            "prior_digest": prior_digest(prior), "kind": "det-theorem",
        }
        art = _write_artifact(out_dir, seed, manifest, log)
        rows.append({
            "seed": seed,
            "phases_to_coverage": covered,
            "reach_size": log.summary["reach_size"],
            "new_triple_until_coverage": all(flags[:until]),
            "episodes_simulated": log.summary["episodes_simulated"],
            "log_digest": art["digest"],
        })
    text = _write_csv(out_dir, "summary", DET_SUMMARY_COLUMNS, rows)
    print(text, end="")
    print(f"# schedule: n_phase={info['n_phase']} eps_pun={info['eps_pun']} "
          f"f_min={info['f_min']} SAH={info['SAH']}")
    return 0


def cmd_run_prob(cfg: ExperimentConfig) -> int:
    """Probabilistic-class runs; desk-scale overrides via mechanism fields."""
    factored, prior = load_prior(cfg)
    rho = as_fraction(cfg.get("rho", "1/4"))
    delta = float(cfg.get("delta", 0.1))
    mech_ov = cfg.get("mechanism", {})
    base, report = prob_parameters(
        factored if factored is not None else prior,
        rho, delta,
        n_lrn_override=mech_ov.get("n_lrn"),
        n_phase_override=mech_ov.get("n_phase"),
        total_phases_override=mech_ov.get("total_phases"),
    )
    config = _apply_mechanism_overrides(cfg, base)
    phase_cap = int(cfg.get("phase_cap", config.total_phases))
    config = MechanismConfig(config.n_phase, config.n_lrn, config.eps_pun,
                             min(config.total_phases, phase_cap), config.rho)
    tables = shared_tables(prior)
    agent_mode = cfg.get("agent", {}).get("mode", "canonical_truster")
    exact = bool(cfg.get("exact", False))
    out_dir = cfg.get("out")
    rows = []
    for seed in cfg.seeds():
        agent = make_agent(agent_mode, prior, config, exact=exact, tables=tables)
        log = run_game(config, prior, agent, seed, episode_log="hallucination",
                       tables=tables, keep_signals=exact)
        manifest = {
            "version": __version__, "seed": seed, "config": config.to_dict(),
            "agent_mode": agent_mode, "episode_log": "hallucination",
            "prior_digest": prior_digest(prior), "kind": "prob-run",
        }
        art = _write_artifact(out_dir, seed, manifest, log)
        rows.append({
            "seed": seed,
            "phases_to_exploration": log.summary["phases_to_coverage"],
            "phase_cap": config.total_phases,
            "reach_size": log.summary["reach_size"],
            "log_digest": art["digest"],
        })
    text = _write_csv(out_dir, "summary", PROB_SUMMARY_COLUMNS, rows)
    print(text, end="")
    print(f"# theory scale: n_lrn={report['n_lrn_theory']} "
          f"n_phase={report['n_phase_theory']} L_0={report['L_0']} K={report['K']}")
    return 0


def _fmt(v):
    if isinstance(v, Fraction):
        return f"{v} ({float(v):.6g})"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def cmd_params(cfg: ExperimentConfig) -> int:
    """Print the det/prob parameter tables for the configured prior."""
    factored, prior = load_prior(cfg)
    rows = []
    if factored is not None and factored.is_deterministic():
        _, info = det_parameters(factored)
        rows.extend({"name": f"det.{k}", "value": _fmt(v)} for k, v in info.items())
    rho = as_fraction(cfg.get("rho", "1/4"))
    delta = float(cfg.get("delta", 0.1))
    _, report = prob_parameters(factored if factored is not None else prior, rho, delta)
    rows.extend({"name": f"prob.{k}", "value": _fmt(v)} for k, v in report.items())
    text = _write_csv(cfg.get("out"), "params", PARAMS_COLUMNS, rows)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# verifier suites


def _det_oracle_inputs(cfg: ExperimentConfig):
    """(expanded prior, mechanism config) shared by the oracle suites."""
    factored, prior = load_prior(cfg)
    base, _ = det_parameters(factored)
    return prior, _apply_mechanism_overrides(cfg, base)


def verify_hygiene(prior, config, phases: int = 2) -> list[dict]:
    table = enumerate_game(config, prior, phases)
    checks = []
    for ell in range(1, phases + 1):
        for kind in ("censored", "honest"):
            tv = hygiene_tv(table, kind, ell)
            checks.append({
                "name": f"hygiene.{kind}.phase{ell}", "value": str(tv), "ok": tv == 0,
            })
    fr_prior, fr_pairs = fabricated_rewards_case()
    tv = hygiene_tv_pairs(fr_prior, fr_pairs)
    checks.append({
        "name": "hygiene.counterexample.fabricated_rewards",
        "value": str(tv), "ok": tv >= Fraction(1, 2),
    })
    ps_prior, ps_pairs = policy_selection_case()
    tv = hygiene_tv_pairs(ps_prior, ps_pairs)
    checks.append({
        "name": "hygiene.counterexample.policy_selection",
        "value": str(tv), "ok": tv >= Fraction(1, 2),
    })
    return checks


def _det_target_provider(prior):
    model0 = prior.atoms[0]

    def provider(U, _nodes):
        return sufficiently_visiting_policies(model0, U, 1, exact=True)

    return provider


def verify_one_step(prior, config, phases: int = 3) -> list[dict]:
    table = enumerate_game(config, prior, phases)
    provider = _det_target_provider(prior)
    checks = []
    for ell in range(1, phases + 1):
        rep = one_step_audit(table, ell, provider)
        strict = [e for e in rep.entries if not e.vacuous]
        checks.append({
            "name": f"one_step.phase{ell}",
            "value": f"{len(rep.entries)} realizations "
                     f"({len(strict)} strict, {len(rep.violations)} violations)",
            "ok": rep.ok and all(e.condition_holds for e in strict),
        })
        for audit in p_hal_audit(table, ell):
            checks.append({
                "name": f"p_hal.phase{ell}",
                "value": f"p_hal={audit['p_hal']} bound={audit['bound']}",
                "ok": audit["slack"] >= 0 and audit["p_hal_agent"] == audit["p_hal"],
            })
    return checks


def verify_dist_equality(prior, config, phases: int = 2) -> list[dict]:
    table = enumerate_game(config, prior, phases)
    mutated = enumerate_game(config, prior, phases, variant="hallucinate_unconditioned")
    checks = []
    for ell in range(2, phases + 1):
        tv = hallucination_distribution_check(table, ell)
        checks.append({
            "name": f"dist_equality.phase{ell}", "value": str(tv), "ok": tv == 0,
        })
        tv_mut = hallucination_distribution_check(mutated, ell)
        checks.append({
            "name": f"dist_equality.mutated.phase{ell}",
            "value": str(tv_mut), "ok": tv_mut > 0,
        })
    return checks


def sample_similar_pair(rng: np.random.Generator):
    """(model, perturbed model, U, reward fn, policy, tight eps) for the lemma."""
    from .analysis import similarity
    from .mdp import complement_triples, enumerate_policies

    S = int(rng.integers(2, 4))
    A = int(rng.integers(1, 3))
    H = int(rng.integers(2, 4))
    base = random_model(rng, S, A, H)
    other = perturb_model(rng, base, Fraction(1, 8))
    U = frozenset(t for t in all_triples(S, A, H) if rng.random() < 0.3)
    pols = enumerate_policies(S, A, H)
    pol = pols[int(rng.integers(0, len(pols)))]
    rt = {t: Fraction(int(rng.integers(0, 5)), 4) for t in all_triples(S, A, H)}
    rep = similarity(base, other, complement_triples(U, S, A, H))
    eps = rep.max_distance()
    return base, other, U, rt, pol, eps


def verify_sim_lemma(cfg: ExperimentConfig) -> list[dict]:
    n_pairs = int(cfg.get("sim_pairs", 200))
    n_perf = int(cfg.get("perf_pairs", 100))
    rng = np.random.default_rng(7)
    violations = 0
    tested = 0
    while tested < n_pairs:
        base, other, U, rt, pol, eps = sample_similar_pair(rng)
        if eps == 0:
            continue
        tested += 1
        lhs, bound = simulation_gap(base, other, U, lambda t: rt[t], pol, eps)
        if lhs > bound + 1e-12:
            violations += 1
    checks = [{
        "name": "sim_lemma.bound", "value": f"{violations}/{tested} violations",
        "ok": violations == 0,
    }]
    worst = 0.0
    for _ in range(n_perf):
        from .mdp import enumerate_policies

        S = int(rng.integers(2, 4))
        H = int(rng.integers(2, 4))
        m1 = random_model(rng, S, 1, H)
        m2 = random_model(rng, S, 1, H)
        pol = enumerate_policies(S, 1, H)[0]
        mrp1, r1 = mrp_of(m1, pol)
        mrp2, _ = mrp_of(m2, pol)
        lhs, rhs, _ = performance_difference(mrp1, mrp2, r1)
        worst = max(worst, abs(lhs - rhs))
    checks.append({
        "name": "perf_diff.identity", "value": f"max |lhs-rhs| = {worst:.3g}",
        "ok": worst <= 1e-10,
    })
    return checks


_SUITES = {
    "hygiene": verify_hygiene,
    "one-step": verify_one_step,
    "sim-lemma": verify_sim_lemma,
    "dist-equality": verify_dist_equality,
}
# suites that take the det (prior, config) instead of the experiment config
_ORACLE_SUITES = ("hygiene", "one-step", "dist-equality")


def cmd_verify(cfg: ExperimentConfig) -> int:
    suite = cfg.get("suite", "all")
    names = list(_SUITES) if suite == "all" else [suite]
    if any(n not in _SUITES for n in names):
        raise ConfigError(f"unknown verify suite {suite!r}")
    det = None
    if any(n in _ORACLE_SUITES for n in names):
        det = _det_oracle_inputs(cfg)  # one prior, so the suites share its lattice
    checks = []
    for n in names:
        checks.extend(_SUITES[n](*det) if n in _ORACLE_SUITES else _SUITES[n](cfg))
    ok = all(c["ok"] for c in checks)
    report = {"suites": names, "checks": checks, "ok": ok}
    out_dir = cfg.get("out")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify.json"), "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    for c in checks:
        print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['value']}")
    if not ok:
        raise VerificationFailure(f"{sum(not c['ok'] for c in checks)} checks failed")
    return 0
