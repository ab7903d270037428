"""The hidden-hallucination principal: phase loop, signals, parameters.

The game proceeds in phases. Within each phase exactly one episode is
the (hidden) hallucination episode: its revealed ledger carries rewards
re-drawn from a model sampled from the punish-conditioned posterior,
while every other episode sees the honest ledger. Only hallucination
episodes ever enter the ledger. The first ``n_lrn`` phases are
single-episode phases with the hallucination episode equal to the phase
index; afterwards phases have ``n_phase`` episodes and the position is
uniform.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng as rngmod
from .analysis import eps_p_bound, eps_r_bound
from .errors import AssumptionViolated, CapExceeded, ZeroEvidence
from .ledgers import (
    CensoredTrajectory,
    Ledger,
    censor_ledger,
    raw_ledger,
    totally_censor,
)
from .mdp import (
    Step,
    TabularModel,
    Trajectory,
    TripleSet,
    all_triples,
    as_fraction,
    reach_set,
    sample_trajectory,
)
from .priors import (
    DiscretePrior,
    FactoredRewardPrior,
    ModelEvent,
    PriorTables,
    Posterior,
    canonical_posterior,
    low_reward_table,
    shared_tables,
)


@dataclass(frozen=True)
class MechanismConfig:
    n_phase: int
    n_lrn: int
    eps_pun: Fraction
    total_phases: int
    rho: Fraction | None = None

    def __post_init__(self):
        if self.n_phase < 1 or self.n_lrn < 1 or self.total_phases < 0:
            raise ValueError("n_phase, n_lrn must be positive; total_phases >= 0")
        eps = as_fraction(self.eps_pun)
        if not 0 < eps < 1:
            raise ValueError("eps_pun must lie in (0, 1)")
        object.__setattr__(self, "eps_pun", eps)
        if self.rho is not None:
            object.__setattr__(self, "rho", as_fraction(self.rho))

    def to_dict(self) -> dict:
        return {
            "n_phase": self.n_phase,
            "n_lrn": self.n_lrn,
            "eps_pun": str(self.eps_pun),
            "total_phases": self.total_phases,
            "rho": None if self.rho is None else str(self.rho),
        }


def phase_episodes(config: MechanismConfig, ell: int) -> range:
    """Episode indices of phase ell (1-based, inclusive of both ends)."""
    if ell <= config.n_lrn:
        return range(ell, ell + 1)
    start = config.n_lrn + (ell - 1 - config.n_lrn) * config.n_phase + 1
    return range(start, start + config.n_phase)


def hallucination_prior_prob(config: MechanismConfig, ell: int) -> Fraction:
    """Pr[a given episode of phase ell is the hallucination episode]."""
    if ell <= config.n_lrn:
        return Fraction(1)
    return Fraction(1, config.n_phase)


def punish_event(prior: DiscretePrior, U_complement: TripleSet, eps_pun) -> ModelEvent:
    """Atoms whose mean reward is <= eps_pun on every fully-explored triple.

    Reads the prior's exact low-reward table, the punish-mask source
    run_game uses too.
    """
    low = low_reward_table(prior, eps_pun)
    if not U_complement:
        return prior.full_event()
    xs, as_, hs = (np.array(c) - 1 for c in zip(*U_complement))
    return frozenset(np.flatnonzero(low[:, xs, as_, hs].all(axis=1)).tolist())


def hallucination_posterior(prior, lam_cens: Ledger, punish: ModelEvent,
                            exact: bool = False) -> Posterior:
    """The punish-conditioned canonical posterior of the censored ledger.

    ZeroEvidence is re-raised naming the violated assumption.
    """
    try:
        return canonical_posterior(prior, lam_cens, punish, exact=exact)
    except ZeroEvidence as e:
        raise ZeroEvidence(
            f"punish event has zero posterior mass given the censored ledger; "
            f"f_min/q_pun assumption violated ({e})"
        ) from e


def sample_hallucinated_model(posterior: Posterior, rng):
    """Draw one atom from a hallucination posterior; returns (atom index, model)."""
    idx = rngmod.sample_index(posterior.weights, rng)
    return idx, posterior.prior.atoms[idx]


def hallucinate_ledger(lam_cens: Ledger, mu_hal: TabularModel, U: TripleSet, rng) -> Ledger:
    """Insert rewards drawn from mu_hal at every fully-explored occurrence.

    Under-explored triples (those in U) stay censored; the output is a
    U-ledger over the same entries.
    """
    entries = []
    for pol, traj in lam_cens.entries:
        steps = []
        for s in traj.steps:
            t = (s.x, s.a, s.h)
            if t in U:
                steps.append(Step(s.x, s.a, s.h, None))
            else:
                steps.append(Step(s.x, s.a, s.h, mu_hal.reward_dist(*t).sample(rng)))
        entries.append((pol, CensoredTrajectory(tuple(steps), U)))
    return Ledger(lam_cens.S, lam_cens.A, lam_cens.H, U, tuple(entries))


def honest_ledger(lam_raw: Ledger, U: TripleSet) -> Ledger:
    """U-censoring of the raw hallucination-episode ledger."""
    return censor_ledger(lam_raw, U)


def p_hal_bound(p0, q):
    """Upper bound on the agent's hallucination suspicion: 1/(1 + q(1-p0)/p0)."""
    if isinstance(p0, Fraction) and isinstance(q, Fraction):
        if p0 == 0:
            return Fraction(0)
        return 1 / (1 + q * (1 - p0) / p0)
    p0, q = float(p0), float(q)
    if p0 == 0.0:
        return 0.0
    return 1.0 / (1.0 + q * (1.0 - p0) / p0)


def hh_condition_holds(n_phase: int, punish_prob, gap, horizon: int):
    """Evaluate 1/n_phase <= punish_prob * gap / (3 H).

    Returns (holds, lhs, rhs) so callers can log both sides.
    """
    exact = isinstance(punish_prob, Fraction) and isinstance(gap, Fraction)
    if exact:
        lhs = Fraction(1, n_phase)
        rhs = punish_prob * gap / (3 * horizon)
    else:
        lhs = 1.0 / n_phase
        rhs = float(punish_prob) * float(gap) / (3.0 * horizon)
    return lhs <= rhs, lhs, rhs


# ---------------------------------------------------------------------------
# parameter calculators


def _ceil_fraction(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def det_phase_length(H: int, r_min, C, sah: int) -> int:
    """ceil(6H / (r_min * C^SAH)) — the deterministic-schedule phase length."""
    return _ceil_fraction(6 * H / (as_fraction(r_min) * as_fraction(C) ** sah))


def det_parameters(prior: FactoredRewardPrior):
    """Deterministic-class schedule: n_lrn=1, eps_pun=r_min/2H, phase length
    ceil(6H / (r_min * f_min(eps_pun)^{SAH})), SAH phases.

    Returns (MechanismConfig, info dict). Raises AssumptionViolated naming
    the failed assumption.
    """
    if not isinstance(prior, FactoredRewardPrior):
        raise AssumptionViolated("det schedule requires a reward-independent prior")
    if not prior.is_deterministic():
        raise AssumptionViolated("det schedule requires deterministic atoms")
    rmin = prior.r_min()
    if rmin <= 0:
        raise AssumptionViolated("r_min > 0 fails")
    H = prior.H
    eps = rmin / (2 * H)
    C = prior.f_min(eps)
    if C <= 0:
        raise AssumptionViolated("f_min(eps_pun) > 0 fails")
    sah = prior.S * prior.A * prior.H
    n_phase = det_phase_length(H, rmin, C, sah)
    cfg = MechanismConfig(n_phase=n_phase, n_lrn=1, eps_pun=eps, total_phases=sah)
    info = {
        "r_min": rmin,
        "eps_pun": eps,
        "f_min": C,
        "SAH": sah,
        "n_phase": n_phase,
        "episodes_bound": 1 + (sah - 1) * n_phase,
    }
    return cfg, info


def prob_parameters(prior, rho, delta, *, r_alt=None, q_pun=None,
                    n_lrn_override=None, n_phase_override=None,
                    total_phases_override=None, c1: int = 192):
    """Probabilistic-class schedule and its derived report.

    With a reward-independent prior, r_alt reduces to r_min and q_pun is
    lower-bounded by f_min(eps_pun)^{SAH}; for arbitrary priors pass the
    exact q_pun / r_alt (e.g. from q_pun_r_alt_exact). Overrides shrink
    n_lrn / n_phase for desk-scale runs; the theory-scale values are
    always reported.
    """
    rho = as_fraction(rho)
    if not 0 < rho <= 1:
        raise AssumptionViolated("rho must lie in (0, 1]")
    delta = float(delta)
    if not 0 < delta <= 1:
        raise AssumptionViolated("delta must lie in (0, 1]")
    if isinstance(prior, FactoredRewardPrior):
        S, A, H = prior.S, prior.A, prior.H
        if r_alt is None:
            r_alt = prior.r_min()
    else:
        S, A, H = prior.shape
        if r_alt is None or q_pun is None:
            raise AssumptionViolated(
                "arbitrary priors need explicit r_alt and q_pun (see q_pun_r_alt_exact)"
            )
    r_alt = as_fraction(r_alt)
    if r_alt <= 0:
        raise AssumptionViolated("r_alt > 0 fails")
    sah = S * A * H
    eps_pun = r_alt * rho / (18 * H)
    if q_pun is None:
        q_pun = prior.f_min(eps_pun) ** sah
    q_pun = as_fraction(q_pun)
    if q_pun <= 0:
        raise AssumptionViolated("q_pun > 0 fails")

    delta0_gap = rho * r_alt / 2  # effective gap
    rho_0 = delta0_gap / (3 * H)
    rho_prog = delta0_gap**2 / (6 * H**2)

    # theory-scale n_lrn from the closed form (constant c1, default 192)
    iota = 4.0 * math.log(
        20.0 * S * A * H * H / float(rho * q_pun * eps_pun * r_alt)
    )
    n_lrn_theory = max(
        math.ceil(
            c1 * H**4 * (S * math.log(5.0) + math.log(1.0 / delta) + iota)
            / float(delta0_gap) ** 2
        ),
        math.ceil(math.log(2.0 / delta)),
    )
    n_lrn = n_lrn_override if n_lrn_override is not None else n_lrn_theory
    n_phase_theory = _ceil_fraction(6 * H / (delta0_gap * q_pun))
    n_phase = n_phase_override if n_phase_override is not None else n_phase_theory

    L0 = _ceil_fraction(Fraction(4 * sah * n_lrn) / rho_prog)
    K = L0 * n_phase
    delta_fail = delta / (2 * L0)
    delta_0 = delta_fail * float(q_pun * eps_pun) / (4 * sah)
    total = total_phases_override if total_phases_override is not None else L0

    report = {
        "S": S, "A": A, "H": H, "SAH": sah,
        "rho": rho, "delta": delta,
        "r_alt": r_alt, "q_pun": q_pun,
        "eps_pun": eps_pun,
        "Delta_0": delta0_gap,
        "rho_0": rho_0,
        "rho_prog": rho_prog,
        "delta_fail": delta_fail,
        "delta_0": delta_0,
        "eps_r": eps_r_bound(delta_0, n_lrn),
        "eps_p": eps_p_bound(delta_0, n_lrn, S),
        "n_0": 96.0 * H**4 * (S * math.log(5.0) + math.log(1.0 / delta_0))
        / float(delta0_gap) ** 2 if delta_0 > 0 else math.inf,
        "n_lrn_theory": n_lrn_theory,
        "n_lrn": n_lrn,
        "n_phase_theory": n_phase_theory,
        "n_phase": n_phase,
        "L_0": L0,
        "K": K,
        "c1": c1,
        "c2_effective": 1728,
    }
    cfg = MechanismConfig(
        n_phase=n_phase, n_lrn=n_lrn, eps_pun=eps_pun, total_phases=total, rho=rho
    )
    return cfg, report


def q_pun_r_alt_exact(prior: DiscretePrior, n_lrn: int, eps_pun, ledger_universe,
                      cap: int = 10**4):
    """Exact (q_pun, r_alt) minima over an enumerated family of ledgers.

    q_pun ranges over the totally-censored members: canonical probability
    that every triple's mean reward is <= eps_pun. r_alt ranges over the
    partially-censored members: the smallest canonical posterior mean
    reward among that ledger's censored triples.
    """
    ledgers = list(ledger_universe)
    if len(ledgers) > cap:
        raise CapExceeded(f"ledger universe size {len(ledgers)} exceeds cap {cap}")
    eps = as_fraction(eps_pun)
    S, A, H = prior.shape
    full = all_triples(S, A, H)
    q_best = None
    r_best = None
    punish_all = punish_event(prior, full, eps)
    for lam in ledgers:
        post = canonical_posterior(prior, lam, exact=True)
        if lam.censor_set == full:
            q = sum(w for i, w in enumerate(post.weights) if i in punish_all)
            q_best = q if q_best is None or q < q_best else q_best
        if lam.censor_set:
            for t in lam.censor_set:
                mean = sum(
                    w * m.mean_reward(*t)
                    for w, m in zip(post.weights, prior.atoms)
                    if w
                )
                r_best = mean if r_best is None or mean < r_best else r_best
    if q_best is None or r_best is None:
        raise ValueError("universe must contain totally- and partially-censored ledgers")
    return q_best, r_best


# ---------------------------------------------------------------------------
# game loop


@dataclass
class EpisodeRecord:
    k: int
    ell: int
    is_hallucination: bool
    revealed_kind: str  # "honest" | "hallucinated"
    policy: int  # canonical encoding
    trajectory: list | None  # [[x,a,h,"r"],...]; None when not simulated
    traj_stream: str

    def to_dict(self) -> dict:
        return {
            "type": "episode",
            "k": self.k,
            "ell": self.ell,
            "is_hallucination": self.is_hallucination,
            "revealed_kind": self.revealed_kind,
            "policy": self.policy,
            "trajectory": self.trajectory,
            "traj_stream": self.traj_stream,
        }


@dataclass
class PhaseRecord:
    ell: int
    first_episode: int
    last_episode: int
    k_star: int
    U: list  # sorted triples
    punish_prob: float
    punish_size: int
    hal_atom: int
    hal_policy: int
    honest_policy: int | None
    new_triples: list
    hh_condition: bool | None

    def to_dict(self) -> dict:
        return {
            "type": "phase",
            "ell": self.ell,
            "first_episode": self.first_episode,
            "last_episode": self.last_episode,
            "k_star": self.k_star,
            "U": [list(t) for t in self.U],
            "punish_prob": self.punish_prob,
            "punish_size": self.punish_size,
            "hal_atom": self.hal_atom,
            "hal_policy": self.hal_policy,
            "honest_policy": self.honest_policy,
            "new_triples": [list(t) for t in self.new_triples],
            "hh_condition": self.hh_condition,
        }


@dataclass
class GameLog:
    seed: int
    agent_mode: str
    episode_log: str
    config: MechanismConfig
    prior_digest: str
    true_atom: int
    episodes: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    signals: dict | None = None  # ell -> {kind: Ledger}; in-memory only

    def header(self) -> dict:
        return {
            "type": "header",
            "seed": self.seed,
            "agent_mode": self.agent_mode,
            "episode_log": self.episode_log,
            "config": self.config.to_dict(),
            "prior_digest": self.prior_digest,
            "true_atom": self.true_atom,
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header(), sort_keys=True, separators=(",", ":"))]
        records = sorted(
            [(p.ell, 0, p.to_dict()) for p in self.phases]
            + [(e.ell, e.k, e.to_dict()) for e in self.episodes],
            key=lambda t: (t[0], t[1]),
        )
        lines.extend(json.dumps(r, sort_keys=True, separators=(",", ":")) for _, _, r in records)
        lines.append(json.dumps({"type": "summary", **self.summary},
                                sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()

    def hallucination_history(self) -> list:
        """(ell, policy encoding, trajectory steps) per hallucination episode."""
        out = []
        for e in self.episodes:
            if e.is_hallucination:
                out.append((e.ell, e.policy, e.trajectory))
        return out


def _traj_to_json(traj: Trajectory) -> list:
    return [[s.x, s.a, s.h, str(s.r)] for s in traj.steps]


def prior_digest(prior: DiscretePrior) -> str:
    """SHA-256 of the prior's canonical JSON, computed once and kept on the prior."""
    if "digest" not in prior._cache:
        from .serialize import prior_to_dict

        blob = json.dumps(prior_to_dict(prior), sort_keys=True, separators=(",", ":"))
        prior._cache["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    return prior._cache["digest"]


class _FastState:
    """Incremental per-run likelihood state over the prior's atoms.

    Keeps the accumulated log transition mass of the hallucination
    entries, per-(triple, support value) reward counts, and flat arrays
    of every ledger occurrence, so each phase's posteriors and
    hallucinated-reward draws are small vectorized operations.
    """

    def __init__(self, tables: PriorTables):
        self.tables = tables
        self.translog = np.zeros(tables.prior.n)
        n_support = len(tables.support)
        S, A, H = tables.S, tables.A, tables.H
        self.reward_counts = np.zeros((S, A, H, n_support))
        self.occ_x: list[int] = []  # one row per ledger occurrence, entry order
        self.occ_a: list[int] = []
        self.occ_h: list[int] = []
        self.cens_entries: list = []  # totally censored copies, built once

    def push_entry(self, policy, traj: Trajectory) -> None:
        self.translog += self.tables.entry_translog(traj.steps)
        for s in traj.steps:
            self.reward_counts[s.x - 1, s.a - 1, s.h - 1, self.tables.support_index(s.r)] += 1
            self.occ_x.append(s.x)
            self.occ_a.append(s.a)
            self.occ_h.append(s.h)
        self.cens_entries.append(
            (policy, CensoredTrajectory(
                tuple(Step(s.x, s.a, s.h, None) for s in traj.steps),
                all_triples(self.tables.S, self.tables.A, self.tables.H),
            ))
        )

    def occurrence_arrays(self):
        return (
            np.asarray(self.occ_x, dtype=int),
            np.asarray(self.occ_a, dtype=int),
            np.asarray(self.occ_h, dtype=int),
        )

    def reward_loglik(self, counts: np.ndarray) -> np.ndarray:
        """Per-atom log reward mass for occurrence counts (same shape as counts)."""
        lm = self.tables.reward_logmass  # (n, S, A, H, V)
        active = counts > 0
        if not active.any():
            return np.zeros(lm.shape[0])
        c = counts[active]  # (m,)
        lv = lm[:, active]  # (n, m)
        contrib = np.where(np.isneginf(lv), -np.inf, lv * c)
        return contrib.sum(axis=1)

    def cens_posterior(self) -> Posterior:
        return self.tables.posterior_from_loglik(self.translog, provenance={"signal": "censored"})

    def masked_posterior(self, mask: np.ndarray, what: str) -> Posterior:
        return self.tables.posterior_from_loglik(self.translog, mask=mask,
                                                 provenance={"signal": what})

    def revealed_posterior(self, counts: np.ndarray, what: str) -> Posterior:
        ll = self.translog + self.reward_loglik(counts)
        return self.tables.posterior_from_loglik(ll, provenance={"signal": what})


@dataclass
class PhaseContext:
    """Per-phase quantities the fast agents reuse instead of recomputing."""

    ell: int
    config: MechanismConfig
    fast: _FastState
    punish_mask: np.ndarray
    punish_prob_float: float
    hon_counts: np.ndarray
    hal_counts: np.ndarray
    U: TripleSet
    signals: dict | None = None  # kind -> Ledger, only with keep_signals
    visit_totals: dict | None = None  # set before phase_hook runs
    covered_at: int | None = None

    def counts_of(self, kind: str) -> np.ndarray:
        return self.hal_counts if kind == "hallucinated" else self.hon_counts


def _draw_hallucinated(fast: _FastState, tables: PriorTables, hal_atom: int,
                       explored_mask: np.ndarray, rng):
    """Vectorized reward draws at explored occurrences; returns (counts, values).

    ``values`` holds one support index per occurrence (-1 when censored),
    in ledger entry order, so keep_signals can materialize the ledger.
    """
    xs, as_, hs = fast.occurrence_arrays()
    counts = np.zeros_like(fast.reward_counts)
    values = np.full(len(xs), -1, dtype=int)
    if len(xs) == 0:
        return counts, values
    sel = explored_mask[xs - 1, as_ - 1, hs - 1]
    m = int(sel.sum())
    if m == 0:
        return counts, values
    u = rng.random(m)
    occ = (xs[sel] - 1, as_[sel] - 1, hs[sel] - 1)
    cum = tables.reward_cum[hal_atom][occ]  # (m, V)
    idx = (u[:, None] >= cum).sum(axis=1)
    # u can reach past the float cumulative sum, which may end just below 1:
    # fall back to the last support value with positive mass
    idx = np.minimum(idx, tables.reward_last[hal_atom][occ])
    values[sel] = idx
    np.add.at(counts, (*occ, idx), 1)
    return counts, values


def _hh_condition_in_run(config, tables, fast, true_model, U, ell, punish_prob,
                         hal_counts, rho_0=None):
    """Evaluate the phase-length condition against the exploring-policy set.

    The target is the set of policies visiting U under the true model with
    probability at least rho_0 (any positive probability by default, which
    is the deterministic-class reading). Returns None when the policy
    split degenerates.
    """
    from .mdp import event_visit_probability

    threshold = max(float(rho_0 or 0.0), 1e-12)
    inside = np.array([
        event_visit_probability(true_model, pol, U) >= threshold
        for pol in tables.policies
    ])
    if inside.all() or not inside.any():
        return None
    post = fast.revealed_posterior(hal_counts, "hh-check")
    vals = post.weights @ tables.value_matrix
    gap = vals[inside].max() - vals[~inside].max()
    p0 = float(hallucination_prior_prob(config, ell))
    lhs = p0
    rhs = punish_prob * float(gap) / (3.0 * tables.H)
    return bool(lhs <= rhs)


def _signals_from_state(fast: _FastState, hal_entries, U, hal_values) -> dict:
    """Materialize the censored / honest / hallucinated ledgers (micro scale)."""
    S, A, H = fast.tables.S, fast.tables.A, fast.tables.H
    lam_raw = raw_ledger(S, A, H, hal_entries)
    lam_cens = totally_censor(lam_raw)
    lam_hon = honest_ledger(lam_raw, U)
    support = fast.tables.support
    entries = []
    pos = 0
    for pol, traj in lam_raw.entries:
        steps = []
        for s in traj.steps:
            v = hal_values[pos]
            steps.append(Step(s.x, s.a, s.h, None if v < 0 else support[v]))
            pos += 1
        entries.append((pol, CensoredTrajectory(tuple(steps), U)))
    lam_hal = Ledger(S, A, H, U, tuple(entries))
    return {"censored": lam_cens, "honest": lam_hon, "hallucinated": lam_hal,
            "raw": lam_raw}


def run_game(config: MechanismConfig, prior: DiscretePrior, agent, seed: int,
             true_model: TabularModel | None = None, episode_log: str = "full",
             tables: PriorTables | None = None, keep_signals: bool = False,
             phase_hook=None, track_hh: bool = False, hh_rho0=None) -> GameLog:
    """Execute the phase loop and emit a replayable GameLog.

    ``agent`` follows the agents.AgentSpec protocol. ``episode_log`` is
    "full" (simulate and record every episode) or "hallucination"
    (simulate only the episodes that feed the mechanism; phase records
    are bit-identical between the modes because every episode has its
    own named stream). ``keep_signals`` attaches the per-phase ledgers to
    ``log.signals`` for micro-scale cross-checks. ``phase_hook(ctx, log)``
    runs after each phase's bookkeeping; returning True stops the run
    early. ``track_hh`` evaluates the phase-length incentive condition
    per phase against the sufficiently-visiting policy set of the true
    model (micro scale only; None where the policy split degenerates).
    """
    if episode_log not in ("full", "hallucination"):
        raise ValueError("episode_log must be 'full' or 'hallucination'")
    if tables is None:
        tables = shared_tables(prior)
    S, A, H = prior.shape
    eps = config.eps_pun

    if true_model is None:
        truth_rng = rngmod.stream(seed, "truth")
        true_atom = rngmod.sample_index(prior.weights, truth_rng)
        true_model = prior.atoms[true_atom]
    else:
        true_atom = next(
            (i for i, m in enumerate(prior.atoms) if m is true_model or m == true_model), -1
        )

    rho = config.rho if config.rho is not None else Fraction(1)
    target = reach_set(true_model, rho)
    counts_by_triple: dict = {}
    hal_entries: list = []
    fast = _FastState(tables)
    log = GameLog(
        seed=seed,
        agent_mode=agent.mode,
        episode_log=episode_log,
        config=config,
        prior_digest=prior_digest(prior),
        true_atom=true_atom,
    )
    log.signals = {} if keep_signals else None
    covered_at = None
    new_triple_flags = []
    triple_list = sorted(all_triples(S, A, H))

    for ell in range(1, config.total_phases + 1):
        episodes = phase_episodes(config, ell)
        U = frozenset(
            t for t in triple_list if counts_by_triple.get(t, 0) < config.n_lrn
        )
        explored_mask = np.zeros((S, A, H), dtype=bool)
        for (x, a, h) in triple_list:
            if (x, a, h) not in U:
                explored_mask[x - 1, a - 1, h - 1] = True

        punish_mask = np.all(low_reward_table(prior, eps) | ~explored_mask, axis=(1, 2, 3))
        cens_post = fast.cens_posterior()
        punish_prob = float(cens_post.weights[punish_mask].sum())
        try:
            hal_post = fast.masked_posterior(punish_mask, "hallucination")
        except ZeroEvidence as e:
            raise ZeroEvidence(
                f"phase {ell}: punish event empty on fully-explored set "
                f"{sorted(t for t in triple_list if t not in U)} at eps_pun={eps} ({e})"
            ) from e

        hal_rng = rngmod.stream(seed, f"phase:{ell}:hal-model")
        hal_atom = rngmod.sample_index(hal_post.weights, hal_rng)
        hal_counts, hal_values = _draw_hallucinated(
            fast, tables, hal_atom, explored_mask,
            rngmod.stream(seed, f"phase:{ell}:hal-rewards"),
        )
        hon_counts = fast.reward_counts * explored_mask[..., None]

        if ell <= config.n_lrn:
            k_star = episodes[0]
        else:
            kstar_rng = rngmod.stream(seed, f"phase:{ell}:kstar")
            k_star = episodes[0] + int(kstar_rng.integers(0, config.n_phase))

        ctx = PhaseContext(
            ell=ell,
            config=config,
            fast=fast,
            punish_mask=punish_mask,
            punish_prob_float=punish_prob,
            hon_counts=hon_counts,
            hal_counts=hal_counts,
            U=U,
        )
        if keep_signals:
            ctx.signals = _signals_from_state(fast, hal_entries, U, hal_values)
            log.signals[ell] = ctx.signals
        pi_hal = agent.choose_signal(k_star, ell, "hallucinated", ctx)
        pi_hon = None
        if len(episodes) > 1:
            pi_hon = agent.choose_signal(episodes[0], ell, "honest", ctx)

        for k in episodes if episode_log == "full" else [k_star]:
            is_hal = k == k_star
            pi_k = pi_hal if is_hal else pi_hon
            stream_name = f"episode:{k}:traj"
            tau = sample_trajectory(true_model, pi_k, rngmod.stream(seed, stream_name))
            if is_hal:
                tau_star = tau
            log.episodes.append(
                EpisodeRecord(
                    k=k,
                    ell=ell,
                    is_hallucination=is_hal,
                    revealed_kind="hallucinated" if is_hal else "honest",
                    policy=pi_k.encoding,
                    trajectory=_traj_to_json(tau),
                    traj_stream=stream_name,
                )
            )

        hh_holds = None
        if track_hh:
            hh_holds = _hh_condition_in_run(
                config, tables, fast, true_model, U, ell, punish_prob, hal_counts,
                rho_0=hh_rho0,
            )

        new_triples = sorted(set(tau_star.triples()) - set(counts_by_triple))
        for t in set(tau_star.triples()):
            counts_by_triple[t] = counts_by_triple.get(t, 0) + 1
        hal_entries.append((pi_hal, tau_star))
        fast.push_entry(pi_hal, tau_star)
        new_triple_flags.append(bool(new_triples))

        log.phases.append(
            PhaseRecord(
                ell=ell,
                first_episode=episodes[0],
                last_episode=episodes[-1],
                k_star=k_star,
                U=sorted(U),
                punish_prob=punish_prob,
                punish_size=int(punish_mask.sum()),
                hal_atom=hal_atom,
                hal_policy=pi_hal.encoding,
                honest_policy=None if pi_hon is None else pi_hon.encoding,
                new_triples=new_triples,
                hh_condition=hh_holds,
            )
        )
        if covered_at is None and all(
            counts_by_triple.get(t, 0) >= config.n_lrn for t in target
        ):
            covered_at = ell
        if phase_hook is not None:
            ctx.visit_totals = counts_by_triple
            ctx.covered_at = covered_at
            if phase_hook(ctx, log):
                break

    log.summary = {
        "phases_to_coverage": covered_at,
        "reach_size": len(target),
        "rho": str(rho),
        "new_triple_flags": new_triple_flags,
        "visit_counts": {f"{x},{a},{h}": c for (x, a, h), c in sorted(counts_by_triple.items())},
        "episodes_simulated": len(log.episodes),
    }
    return log
