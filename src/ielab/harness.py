"""Experiment orchestration: configs, artifacts, verifier suites, reports.

Artifacts are replayable: a run directory holds manifest.json (config
snapshot, seed, prior digest, version) and game.jsonl; re-running from
the manifest reproduces the JSONL bytes. Summary CSVs have fixed,
documented column orders (never reordered within a major version).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .agents import AGENT_MODES, make_agent
from .analysis import (
    performance_difference,
    similarity,
    simulation_gap,
    sufficiently_visiting_policies,
)
from .errors import AssumptionViolated, ConfigError, PreconditionViolated, VerificationFailure
from .instances import micro_det_1, micro_stoch_1, perturb_model, random_model
from .mdp import MarkovPolicy, all_triples, as_fraction, complement_triples, enumerate_policies
from .mechanism import (
    EPISODE_LOGS,
    MechanismConfig,
    det_parameters,
    prior_digest,
    prob_parameters,
    run_games,
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
from .priors import exact_lattice, shared_tables
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

_RUN_KEYS = {"prior", "mechanism", "agent", "seeds", "out"}
_COMMAND_KEYS = {  # the config fields each command reads
    "run-det": _RUN_KEYS | {"episode_log"}, "run-prob": _RUN_KEYS | {"rho", "delta"},
    "verify": {"prior", "mechanism", "suite", "out"}, "params": {"prior", "rho", "delta", "out"},
}


@dataclass
class ExperimentConfig:
    raw: dict

    def __post_init__(self):
        unknown = set(self.raw).difference(*_COMMAND_KEYS.values())
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        agent = _object(self.raw.get("agent", {}), "agent")
        if not agent.keys() <= {"mode"} or agent.get("mode", AGENT_MODES[0]) not in AGENT_MODES:
            raise ConfigError(f"agent.mode must be one of {list(AGENT_MODES)}, and agent "
                              f"has no other field: {agent!r}")
        if self.raw.get("episode_log", EPISODE_LOGS[0]) not in EPISODE_LOGS:
            raise ConfigError(f"bad episode_log: {self.raw['episode_log']!r}")
        if not isinstance(self.raw.get("out"), (str, type(None))):
            raise ConfigError(f"bad out: {self.raw['out']!r}")

    def check_fields(self, command: str) -> None:
        """Refuse the fields ``command`` does not read."""
        unread = set(self.raw) - _COMMAND_KEYS[command]
        if unread:
            raise ConfigError(f"{command} does not read config fields: {sorted(unread)}")

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def seeds(self) -> list[int]:
        """The seeds to run: nonempty and distinct, one ``run-<seed>`` each."""
        spec = self.raw.get("seeds")
        if spec is None:
            env = os.environ.get("IE_SEED")
            return [_parsed(env, "IE_SEED", _integer)] if env else [0]
        try:
            if isinstance(spec, int):
                seeds = [_integer(spec)]
            elif isinstance(spec, dict) and spec.keys() == {"range"}:
                a, b = spec["range"]
                seeds = list(range(_integer(a), _integer(b) + 1))
            elif isinstance(spec, list):
                seeds = [_integer(s) for s in spec]
            else:
                raise ConfigError(f"bad seeds spec: {spec!r}")
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad seeds spec: {spec!r}") from e
        if not seeds or len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds must be nonempty and distinct: {spec!r}")
        return seeds


def _integer(value) -> int:
    """``int(value)`` of an int, an integral float or an int's digits; a
    bool or a non-integral number raises ValueError, where ``int`` would
    read True as 1 and truncate 2.5 to 2."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _object(value, name: str) -> dict:
    """``value`` if it is a JSON object; otherwise a ConfigError naming ``name``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object: {value!r}")
    return value


def _parsed(value, name: str, parse):
    """``parse(value)``; a value it refuses is a ConfigError naming ``name``."""
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad {name}: {value!r}") from e


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as f:
                raw = _object(json.load(f), f"config {path}")
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
        for i, p in enumerate(parts[:-1]):
            node = _object(node.setdefault(p, {}), ".".join(parts[:i + 1]))
        node[parts[-1]] = value
    return ExperimentConfig(raw)


def load_prior(cfg: ExperimentConfig):
    """Returns (factored prior, expanded DiscretePrior); every command's
    schedule reads the factored form, so a list of atoms is refused. The
    spec names exactly one source; a prior document with a missing key or
    a bad value is a ConfigError naming the key or the document."""
    spec = _object(cfg.get("prior", {"micro": "det1"}), "prior")
    if len(spec) != 1 or not spec.keys() <= {"micro", "path", "inline"}:
        raise ConfigError("prior spec needs exactly one of 'micro', 'path' and 'inline', and "
                          f"no other field: {sorted(spec)}")
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
        if not isinstance(spec["path"], str):
            raise ConfigError(f"bad prior.path: {spec['path']!r}")
        name = f"prior {spec['path']}"
        try:
            with open(spec["path"]) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read prior {spec['path']}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"prior {spec['path']} is not valid JSON: {e}") from e
    else:
        doc, name = spec["inline"], "prior.inline"
    try:
        obj = prior_from_dict(_object(doc, name))
        if not hasattr(obj, "expand"):
            raise AssumptionViolated("ielab's commands need a reward-independent prior in "
                                     "the factored form; this prior lists its atoms")
        return obj, obj.expand()
    except KeyError as e:
        raise ConfigError(f"{name} lacks the field {e.args[0]!r}") from e
    except (AttributeError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad {name}: {e}") from e


_MECHANISM_PARSERS = {
    "n_phase": _integer, "n_lrn": _integer, "eps_pun": as_fraction, "total_phases": _integer,
    "rho": lambda v: None if v in (None, "") else as_fraction(v),
}
# a valid config, on which the parsed mechanism fields meet MechanismConfig's checks
_MECHANISM_CHECK = MechanismConfig(n_phase=1, n_lrn=1, eps_pun=Fraction(1, 2), total_phases=0)


def _mechanism_fields(cfg: ExperimentConfig) -> dict:
    """The config's mechanism fields, parsed and range-checked; an unknown
    or bad field is a ConfigError naming it."""
    ov = cfg.get("mechanism", {})
    if not isinstance(ov, dict) or not ov.keys() <= _MECHANISM_PARSERS.keys():
        raise ConfigError(f"mechanism fields must be among {sorted(_MECHANISM_PARSERS)}: {ov!r}")
    fields = {k: _parsed(v, f"mechanism.{k}", _MECHANISM_PARSERS[k]) for k, v in ov.items()}
    try:
        dataclasses.replace(_MECHANISM_CHECK, **fields)
    except ValueError as e:
        raise ConfigError(f"bad mechanism field: {e}") from e
    return fields


def _write_artifact(out_dir: str | None, seed: int, manifest: dict, log) -> str:
    """Stream the log's bytes chunk by chunk; returns their SHA-256."""
    if not out_dir:
        return log.write()
    run_dir = os.path.join(out_dir, f"run-{seed}")
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
    with open(os.path.join(run_dir, "game.jsonl"), "wb") as f:
        return log.write(f)


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


def _run_seeds(cfg: ExperimentConfig, prior, config: MechanismConfig, kind: str,
               agent_mode: str, episode_log: str, columns: list[str], row,
               **run_options) -> None:
    """Play one run per configured seed, write each run's artifact as the
    run finishes and print the summary CSV. ``row(summary)`` gives a run's
    columns besides its seed and log digest; ``run_options`` go to
    run_games."""
    out_dir = cfg.get("out")
    rows = []
    for log in run_games(config, prior, lambda: make_agent(agent_mode, prior, config),
                         cfg.seeds(), episode_log=episode_log, **run_options):
        seed = log.seed
        manifest = {
            "version": __version__, "seed": seed, "config": config.to_dict(),
            "agent_mode": agent_mode, "episode_log": episode_log,
            "prior_digest": prior_digest(prior), "kind": kind,
        }
        digest = _write_artifact(out_dir, seed, manifest, log)
        rows.append({"seed": seed, **row(log.summary), "log_digest": digest})
    print(_write_csv(out_dir, "summary", columns, rows), end="")


def _det_row(summary: dict) -> dict:
    covered = summary["phases_to_coverage"]
    flags = summary["new_triple_flags"]
    until = covered if covered is not None else len(flags)
    return {
        "phases_to_coverage": covered,
        "reach_size": summary["reach_size"],
        "new_triple_until_coverage": all(flags[:until]),
        "episodes_simulated": summary["episodes_simulated"],
    }


def cmd_run_det(cfg: ExperimentConfig) -> int:
    """Deterministic-class exploration runs with the certified schedule, or
    with the mechanism fields an override sets."""
    factored, prior = load_prior(cfg)
    base, info = det_parameters(factored)
    config = dataclasses.replace(base, **_mechanism_fields(cfg))
    track_hh = prior.n * len(shared_tables(prior).policies) <= 10**5
    _run_seeds(cfg, prior, config, "det-theorem",
               cfg.get("agent", {}).get("mode", "fully_rational"),
               cfg.get("episode_log", "hallucination"), DET_SUMMARY_COLUMNS, _det_row,
               track_hh=track_hh)
    # the values the runs played, each with the certified one where an override changed it
    played = []
    for f in dataclasses.fields(MechanismConfig):
        value, certified = getattr(config, f.name), getattr(base, f.name)
        if value is not None:
            played.append(f"{f.name}={value}" if value == certified
                          else f"{f.name}={value} (certified {certified})")
    print(f"# schedule: {' '.join(played)} f_min={info['f_min']}")
    return 0


def cmd_run_prob(cfg: ExperimentConfig) -> int:
    """Probabilistic-class runs; desk-scale overrides via mechanism fields."""
    factored, prior = load_prior(cfg)
    rho = _parsed(cfg.get("rho", "1/4"), "rho", as_fraction)
    delta = _parsed(cfg.get("delta", 0.1), "delta", float)
    mech_ov = _mechanism_fields(cfg)
    base, report = prob_parameters(
        factored, rho, delta,
        n_lrn_override=mech_ov.get("n_lrn"),
        n_phase_override=mech_ov.get("n_phase"),
        total_phases_override=mech_ov.get("total_phases"),
    )
    config = dataclasses.replace(base, **mech_ov)

    def row(summary: dict) -> dict:
        return {"phases_to_exploration": summary["phases_to_coverage"],
                "phase_cap": config.total_phases, "reach_size": summary["reach_size"]}

    _run_seeds(cfg, prior, config, "prob-run",
               cfg.get("agent", {}).get("mode", "canonical_truster"), "hallucination",
               PROB_SUMMARY_COLUMNS, row)
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
    factored, _ = load_prior(cfg)
    rows = []
    if factored.is_deterministic():
        _, info = det_parameters(factored)
        rows.extend({"name": f"det.{k}", "value": _fmt(v)} for k, v in info.items())
    rho = _parsed(cfg.get("rho", "1/4"), "rho", as_fraction)
    delta = _parsed(cfg.get("delta", 0.1), "delta", float)
    _, report = prob_parameters(factored, rho, delta)
    rows.extend({"name": f"prob.{k}", "value": _fmt(v)} for k, v in report.items())
    print(_write_csv(cfg.get("out"), "params", PARAMS_COLUMNS, rows), end="")
    return 0


# ---------------------------------------------------------------------------
# verifier suites


def _det_oracle_table(cfg: ExperimentConfig, phases: int):
    """The standard det game table the oracle suites share, enumerated once.

    Its phase-ell nodes are the same for any ``phases`` >= ell, so each
    suite reads the phases up to its own depth.
    """
    factored, prior = load_prior(cfg)
    base, _ = det_parameters(factored)
    return enumerate_game(dataclasses.replace(base, **_mechanism_fields(cfg)), prior, phases)


def verify_hygiene(table, phases: int) -> list[dict]:
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
    """The one-step target of every node: the policies that visit U under
    atom 0's transitions, which are every atom's only when the prior has
    one transition table."""
    n_tables = len(exact_lattice(prior).table_members())
    if n_tables > 1:
        raise PreconditionViolated(
            f"the det one-step target reads atom 0's transitions, but the prior has "
            f"{n_tables} transition tables")
    model0 = prior.atoms[0]

    def provider(U, _nodes):
        return sufficiently_visiting_policies(model0, U, 1)

    return provider


def verify_one_step(table, phases: int) -> list[dict]:
    provider = _det_target_provider(table.prior)
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


def verify_dist_equality(table, phases: int) -> list[dict]:
    mutated = enumerate_game(table.config, table.prior, phases,
                             variant="hallucinate_unconditioned")
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


_QUARTERS = tuple(Fraction(k, 4) for k in range(5))  # the reward values of the sim-lemma draws


def sample_similar_pair(rng: np.random.Generator):
    """(model, perturbed model, U, reward fn, policy, tight eps) for the lemma."""
    *draw, rep = _similar_pair(rng)
    return (*draw, rep.max_distance())


def _similar_pair(rng: np.random.Generator):
    """``sample_similar_pair``'s draw with the pair's ``similarity`` on the
    complement of U in place of its tight eps, the report's max distance."""
    S = int(rng.integers(2, 4))
    A = int(rng.integers(1, 3))
    H = int(rng.integers(2, 4))
    base = random_model(rng, S, A, H)
    other = perturb_model(rng, base, Fraction(1, 8))
    # one call per draw kind, each the same stream as one scalar call per triple
    triples = list(all_triples(S, A, H))
    U = frozenset(t for t, u in zip(triples, rng.random(len(triples)).tolist()) if u < 0.3)
    pol = MarkovPolicy.from_encoding(int(rng.integers(0, A ** (S * H))), S, A, H)
    rt = {t: _QUARTERS[k] for t, k in zip(triples, rng.integers(0, 5, size=len(triples)).tolist())}
    return base, other, U, rt, pol, similarity(base, other, complement_triples(U, S, A, H))


SIM_PAIRS = 200  # random similar pairs checked against the simulation lemma
PERF_PAIRS = 100  # random model pairs checked against the performance-difference identity


def verify_sim_lemma() -> list[dict]:
    rng = np.random.default_rng(7)
    violations = 0
    tested = 0
    while tested < SIM_PAIRS:
        base, other, U, rt, pol, rep = _similar_pair(rng)
        eps = rep.max_distance()
        if eps == 0:
            continue
        tested += 1
        lhs, bound = simulation_gap(base, other, U, lambda t: rt[t], pol, eps, rep)
        if lhs > bound:
            violations += 1
    checks = [{
        "name": "sim_lemma.bound", "value": f"{violations}/{tested} violations",
        "ok": violations == 0,
    }]
    worst = Fraction(0)
    for _ in range(PERF_PAIRS):
        S = int(rng.integers(2, 4))
        H = int(rng.integers(2, 4))
        m1 = random_model(rng, S, 1, H)
        m2 = random_model(rng, S, 1, H)
        pol = enumerate_policies(S, 1, H)[0]
        lhs, rhs, _ = performance_difference(m1, m2, pol)
        worst = max(worst, abs(lhs - rhs))
    checks.append({
        "name": "perf_diff.identity", "value": f"max |lhs-rhs| = {worst}",
        "ok": worst == 0,
    })
    return checks


_SUITES = {
    "hygiene": verify_hygiene,
    "one-step": verify_one_step,
    "sim-lemma": verify_sim_lemma,
    "dist-equality": verify_dist_equality,
}
# suites that read the det game table, with the number of phases each
# checks; the others take no input
_ORACLE_DEPTH = {"hygiene": 2, "one-step": 3, "dist-equality": 2}


def cmd_verify(cfg: ExperimentConfig) -> int:
    suite = cfg.get("suite", "all")
    if suite not in ("all", *_SUITES):
        raise ConfigError(f"unknown verify suite {suite!r}")
    names = list(_SUITES) if suite == "all" else [suite]
    depths = [_ORACLE_DEPTH[n] for n in names if n in _ORACLE_DEPTH]
    table = _det_oracle_table(cfg, max(depths)) if depths else None
    checks = []
    for n in names:
        checks.extend(_SUITES[n](table, _ORACLE_DEPTH[n]) if n in _ORACLE_DEPTH
                      else _SUITES[n]())
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
