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
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng as rngmod
from .analysis import eps_p_bound, eps_r_bound
from .errors import AssumptionViolated, CapExceeded, ZeroEvidence
from .ledgers import (
    Ledger,
    censor_ledger,
    raw_ledger,
    reveal_rewards,
    totally_censor,
)
from .mdp import (
    MarkovPolicy,
    TabularModel,
    Trajectory,
    TripleSet,
    all_triples,
    as_fraction,
    complement_triples,
    reach_set,
    reachable_triples,
    rollout,
    rollout_rows,
)
from .priors import (
    DiscretePrior,
    FactoredRewardPrior,
    LedgerState,
    ModelEvent,
    PriorTables,
    Posterior,
    canonical_posterior,
    low_reward_table,
    shared_tables,
    split_gap,
)


@dataclass(frozen=True)
class MechanismConfig:
    n_phase: int
    n_lrn: int
    eps_pun: Fraction
    total_phases: int
    rho: Fraction | None = None

    def __post_init__(self):
        for name, low in (("n_phase", 1), ("n_lrn", 1), ("total_phases", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
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
    return Fraction(1, len(phase_episodes(config, ell)))


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


def hallucination_posterior(prior, lam_cens: Ledger, punish: ModelEvent) -> Posterior:
    """The exact punish-conditioned canonical posterior of the censored ledger.

    ZeroEvidence is re-raised naming the violated assumption.
    """
    try:
        return canonical_posterior(prior, lam_cens, punish)
    except ZeroEvidence as e:
        raise ZeroEvidence(
            f"punish event has zero posterior mass given the censored ledger; "
            f"f_min/q_pun assumption violated ({e})"
        ) from e


def hallucinate_ledger(lam_cens: Ledger, mu_hal: TabularModel, U: TripleSet, rng) -> Ledger:
    """Insert rewards drawn from mu_hal at every fully-explored occurrence,
    one draw per occurrence in entry order.

    Under-explored triples (those in U) stay censored; the output is a
    U-ledger over the same entries.
    """
    draws = (mu_hal.reward_dist(s.x, s.a, s.h).sample(rng)
             for _, traj in lam_cens.entries for s in traj.steps if (s.x, s.a, s.h) not in U)
    return reveal_rewards(lam_cens, U, draws)


def p_hal_bound(p0: Fraction, q: Fraction) -> Fraction:
    """Upper bound on the agent's hallucination suspicion,
    1/(1 + q(1-p0)/p0), exactly (0 when p0 = 0)."""
    if p0 == 0:
        return Fraction(0)
    return 1 / (1 + q * (1 - Fraction(p0)) / p0)


def hh_condition_holds(n_episodes: int, punish_prob, gap, horizon: int):
    """Evaluate 1/n_episodes <= punish_prob * gap / (3 H) exactly, for
    rational ``punish_prob`` and ``gap`` (Fractions or ints).

    ``n_episodes`` is the phase's episode count (1 up to n_lrn, else
    n_phase), so lhs is the hallucination prior p0. Returns
    (holds, lhs, rhs) as Fractions so callers can log both sides.
    """
    lhs = Fraction(1, n_episodes)
    rhs = Fraction(punish_prob) * gap / (3 * horizon)
    return lhs <= rhs, lhs, rhs


# ---------------------------------------------------------------------------
# parameter calculators


C1 = 192  # the constant of the theory-scale n_lrn closed form


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
                    total_phases_override=None):
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

    # theory-scale n_lrn from the closed form with constant C1
    iota = 4.0 * math.log(
        20.0 * S * A * H * H / float(rho * q_pun * eps_pun * r_alt)
    )
    n_lrn_theory = max(
        math.ceil(
            C1 * H**4 * (S * math.log(5.0) + math.log(1.0 / delta) + iota)
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
        "c1": C1,
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
        nums, den = canonical_posterior(prior, lam).masses
        if lam.censor_set == full:
            q = Fraction(sum(nums[i] for i in punish_all), den)
            q_best = q if q_best is None or q < q_best else q_best
        if lam.censor_set:
            for t in lam.censor_set:
                mean = Fraction(sum(v * m.mean_reward(*t)
                                    for v, m in zip(nums, prior.atoms) if v), den)
                r_best = mean if r_best is None or mean < r_best else r_best
    if q_best is None or r_best is None:
        raise ValueError("universe must contain totally- and partially-censored ledgers")
    return q_best, r_best


# ---------------------------------------------------------------------------
# game loop


# The game log's text format. Format 2: streams are counter-addressed, so an
# episode line's draws are address ("traj", k) and it names no stream. Format
# 3: punish_prob is a masked full-length row sum, which moves its last bits.
LOG_FORMAT = 3
EPISODE_LOGS = ("full", "hallucination")  # run_game's episode_log values


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _scalar_text(v) -> str:
    """``json.dumps(v)`` of None, a bool, an int or a float."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float) and not math.isfinite(v):
        return _dumps(v)  # NaN, Infinity
    return str(v)


def _triples_text(triples) -> str:
    """``json.dumps`` of a list of (x, a, h) triples as lists, compact."""
    return "[" + ",".join(f"[{x},{a},{h}]" for x, a, h in triples) + "]"


def _trajectory_text(steps: tuple) -> str:
    """``json.dumps`` of an episode record's trajectory as ``to_dict``
    lists it, compact; ``str`` of a Fraction needs no escaping."""
    return "[" + ",".join(f'[{x},{a},{h},"{r}"]' for x, a, h, r in steps) + "]"


@dataclass(slots=True)
class EpisodeRecord:
    """One simulated episode, built on demand from its ``EpisodeBlock``."""

    k: int
    ell: int
    is_hallucination: bool
    revealed_kind: str  # "honest" | "hallucinated"
    policy: int  # canonical encoding
    trajectory: tuple  # the rollout's Steps; every recorded episode is simulated

    def to_dict(self) -> dict:
        return {
            "type": "episode",
            "k": self.k,
            "ell": self.ell,
            "is_hallucination": self.is_hallucination,
            "revealed_kind": self.revealed_kind,
            "policy": self.policy,
            "trajectory": [[s.x, s.a, s.h, str(s.r)] for s in self.trajectory],
        }


@dataclass(slots=True)
class EpisodeBlock:
    """One phase's simulated episodes ``ks``: its range with the full log,
    else ``(k_star,)``. Episode k_star rolled out ``hal_steps``; row i of
    the others ``trajs[traj_of_row[i]]``, ``trajs`` being the distinct
    rollouts of ``mdp.rollout_rows`` (both empty with one episode). A
    full-log block under a deterministic true model has one trajectory,
    and ``chunks`` renders its honest lines from one byte template."""

    ell: int
    ks: range | tuple
    k_star: int
    hal_policy: int
    honest_policy: int | None
    hal_steps: tuple
    trajs: list | tuple
    traj_of_row: list | tuple

    def records(self) -> list:
        return [EpisodeRecord(k, self.ell, True, "hallucinated", self.hal_policy, self.hal_steps)
                if k == self.k_star else
                EpisodeRecord(k, self.ell, False, "honest", self.honest_policy,
                              self.trajs[self.traj_of_row[row]])
                for row, k in enumerate(self.ks)]

    def chunks(self):
        """The episode lines as bytes, each the generic encoder's ``to_dict``
        line of its record; the hallucination episode's line replaces the k*
        row's (or is the only line, with one episode). With one distinct
        trajectory, as every deterministic full-log phase has, the honest
        lines come from ``_tiled_lines``; with several, each honest line is
        rendered on its own, its text after k once per trajectory. Chunks
        are bytes or uint8 arrays, buffers that hashlib and a binary file
        take as they are."""
        head = f'{{"ell":{self.ell},"is_hallucination":'
        star_line = (f'{head}true,"k":{self.k_star},"policy":{self.hal_policy},'
                     f'"revealed_kind":"hallucinated","trajectory":'
                     f'{_trajectory_text(self.hal_steps)},"type":"episode"}}\n')
        if not self.trajs:  # one episode, the hallucination episode
            yield star_line.encode()
            return
        tails = [f',"policy":{self.honest_policy},"revealed_kind":"honest",'
                 f'"trajectory":{_trajectory_text(t)},"type":"episode"}}\n' for t in self.trajs]
        if len(tails) == 1:
            pre, tail = f'{head}false,"k":'.encode(), tails[0].encode()
            yield from _tiled_lines(pre, self.ks.start, self.k_star, tail)
            yield star_line.encode()
            yield from _tiled_lines(pre, self.k_star + 1, self.ks.stop, tail)
            return
        lines = [f'{head}false,"k":{k}{tails[t]}' for k, t in zip(self.ks, self.traj_of_row)]
        star = self.ks.index(self.k_star)
        lines[star:star + 1] = [star_line]
        yield "".join(lines).encode()


def _tiled_lines(pre: bytes, lo: int, hi: int, tail: bytes):
    """The lines ``pre + str(k) + tail`` for k in [lo, hi), with no per-line
    string: per run of k with one digit count d, one uint8 array that tiles
    the line with k's d digits zeroed, then gets k's digit columns written
    in place."""
    while lo < hi:
        d = len(str(lo))
        stop = min(hi, 10**d)
        lines = np.tile(np.frombuffer(pre + b"0" * d + tail, np.uint8), stop - lo)
        grid, k = lines.reshape(stop - lo, -1), np.arange(lo, stop, dtype=np.int64)
        for p in range(d):
            grid[:, len(pre) + d - 1 - p] = k // 10**p % 10 + 48
        yield lines
        lo = stop


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
    hh_slack: float | None  # rhs - lhs of the phase-length condition

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
            "hh_slack": self.hh_slack,
        }

    def text(self, U_text: str | None = None) -> str:
        """The phase line, ``_dumps(self.to_dict()) + "\\n"``, rendered
        directly with the keys in sorted order; ``U_text``, when given, is
        ``_triples_text(self.U)``, rendered once for the phases that share
        it."""
        if U_text is None:
            U_text = _triples_text(self.U)
        return (f'{{"U":{U_text},"ell":{self.ell},'
                f'"first_episode":{self.first_episode},"hal_atom":{self.hal_atom},'
                f'"hal_policy":{self.hal_policy},"hh_condition":{_scalar_text(self.hh_condition)},'
                f'"hh_slack":{_scalar_text(self.hh_slack)},'
                f'"honest_policy":{_scalar_text(self.honest_policy)},"k_star":{self.k_star},'
                f'"last_episode":{self.last_episode},'
                f'"new_triples":{_triples_text(self.new_triples)},'
                f'"punish_prob":{_scalar_text(self.punish_prob)},'
                f'"punish_size":{self.punish_size},"type":"phase"}}\n')


@dataclass
class GameLog:
    """A run's record: one ``PhaseRecord`` and one ``EpisodeBlock`` per phase."""

    seed: int
    agent_mode: str
    episode_log: str
    config: MechanismConfig
    prior_digest: str
    true_atom: int
    blocks: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def episodes(self) -> list:
        """Every simulated episode's record in (ell, k) order, built from the blocks."""
        return [r for b in self.blocks for r in b.records()]

    def chunks(self):
        """The JSONL bytes: the header, per phase its lines, the summary."""
        yield (_dumps({"type": "header", "log_format": LOG_FORMAT, "seed": self.seed,
                       "agent_mode": self.agent_mode,
                       "episode_log": self.episode_log, "config": self.config.to_dict(),
                       "prior_digest": self.prior_digest, "true_atom": self.true_atom})
               + "\n").encode()
        U = U_text = None
        for p, b in zip(self.phases, self.blocks):
            if p.U is not U:
                # run_game gives every phase of one U the same list, so U's
                # text is rendered once per change of U
                U, U_text = p.U, _triples_text(p.U)
            yield p.text(U_text).encode()
            yield from b.chunks()
        yield (_dumps({"type": "summary", **self.summary}) + "\n").encode()

    def write(self, f=None) -> str:
        """SHA-256 of the log's bytes, streamed chunk by chunk from
        ``chunks``, also to the binary file ``f``: each chunk is hashed
        and written as it is made, so at most about one phase's lines are
        held, and never the whole text."""
        h = hashlib.sha256()
        for data in self.chunks():
            h.update(data)
            if f is not None:
                f.write(data)
        return h.hexdigest()

    def to_jsonl(self) -> str:
        """The whole text, decoded from the bytes ``write`` streams."""
        return b"".join(self.chunks()).decode()

    def digest(self) -> str:
        return self.write()

    def hallucination_history(self) -> list:
        """(ell, policy encoding, trajectory Steps, never None) per hallucination episode."""
        return [(b.ell, b.hal_policy, b.hal_steps) for b in self.blocks]


def prior_digest(prior: DiscretePrior) -> str:
    """SHA-256 of the prior's canonical JSON (``serialize.prior_text``),
    computed once and kept on the prior."""
    if "digest" not in prior._cache:
        from .serialize import prior_text

        prior._cache["digest"] = hashlib.sha256(prior_text(prior).encode()).hexdigest()
    return prior._cache["digest"]


@dataclass
class PhaseContext:
    """Per-phase quantities the fast agents reuse instead of recomputing:
    stacked, one row per seed, for a lockstep batch (``fast`` is then a
    stack and ``U`` a list), and ``row(r)`` is seed r's own context, which
    ``phase_hook`` receives."""

    ell: int
    fast: LedgerState
    cens_weights: np.ndarray  # the censored ledger's canonical posterior
    punish_mask: np.ndarray
    hon_counts: np.ndarray
    hal_counts: np.ndarray
    U: TripleSet | list
    covered_at: int | None = None

    def counts_of(self, kind: str) -> np.ndarray:
        return self.hal_counts if kind == "hallucinated" else self.hon_counts

    def row(self, r: int) -> PhaseContext:
        return PhaseContext(self.ell, self.fast.row(r), self.cens_weights[r], self.punish_mask[r],
                            self.hon_counts[r], self.hal_counts[r], self.U[r])


def _point_draws(tables: PriorTables, hal_atom, explored_visits: np.ndarray):
    """The hallucinated reward counts where each explored triple's law
    under the hallucinated atom is a point mass: the explored visits at
    the law's one value, whatever the uniforms. Also the triples where a
    draw is needed: explored, visited, and not a point mass. For one
    ledger, or per row of a stack (``hal_atom`` then one atom per row)."""
    point = tables.reward_point[hal_atom]
    counts = (point[..., None] == np.arange(len(tables.support))) * explored_visits[..., None]
    return counts, (explored_visits > 0) & (point < 0)


def _draw_hallucinated(fast: LedgerState, hal_atom: int, explored_mask: np.ndarray,
                       make_rng):
    """Vectorized reward draws at one ledger's explored occurrences, one
    uniform each in ledger entry order; returns the drawn values' counts
    per triple.

    When every explored occurrence's law is a point mass, every uniform
    draws the same values, so none is read (``_point_draws``). Otherwise
    the uniforms come from the generator ``make_rng()``.
    """
    counts, needs_draw = _point_draws(fast.tables, hal_atom, fast.visits * explored_mask)
    if not needs_draw.any():
        return counts
    occ = fast.occurrences()
    occ = occ[explored_mask.ravel()[occ]]
    u = make_rng().random(len(occ))
    n_support = len(fast.tables.support)
    cum = fast.tables.reward_cum[hal_atom].reshape(-1, n_support)[occ]  # (m, V)
    idx = (u[:, None] >= cum).sum(axis=1)  # index_from_uniform's rule
    return np.bincount(occ * n_support + idx, minlength=counts.size).reshape(counts.shape)


def _hh_exploring_policies(reachable: list, U: TripleSet) -> np.ndarray | None:
    """The policies that visit U under the true model with positive
    probability (the deterministic-class reading of the rho_0 target), as
    a boolean mask in encoding order, or None when that splits the policy
    space degenerately. ``reachable[j]`` is the ``reachable_triples`` of
    policy j under the true model; a policy visits U with positive
    probability exactly when those meet U.
    """
    inside = np.array([not reach.isdisjoint(U) for reach in reachable])
    return inside if 0 < inside.sum() < len(inside) else None


# phase records a lockstep batch holds: 4 seeds of 40 phases
_BATCH_RECORDS = 160
# (seed, phase) rows of draws a batch reads in one evaluation per
# family, so that a long run's draws are not all held at once
_DRAW_ROWS = 4096


def _batch_seeds(config: MechanismConfig) -> int:
    """The number of consecutive seeds ``run_games`` plays in one lockstep
    batch: as many as hold ``_BATCH_RECORDS`` phase records, and at least
    4. A det run of 8 phases gets 20; runs of 40 phases or more, 4."""
    return max(4, _BATCH_RECORDS // max(config.total_phases, 1))


def _seed_int(seed) -> int:
    """A seed as an int: anything ``operator.index`` takes, but a bool."""
    if not isinstance(seed, bool):
        try:
            return operator.index(seed)
        except TypeError:
            pass
    raise TypeError(f"a seed is an int or a list of ints, not {seed!r}")


def _phase_draws(config: MechanismConfig, keys: dict, ells: range, n_uniforms: int) -> tuple:
    """The draws of a batch's phases ``ells`` that no run state decides,
    as arrays of (phase, seed) rows: the ("hal-model", ell) uniforms, the
    hallucination episodes k* (the phase's first episode, plus the
    ("kstar", ell) draw below n_phase past n_lrn) and the ``n_uniforms``
    uniforms of ("traj", k*). ``keys`` maps each family to the batch's
    keys, one per seed; each family is one ``rng`` evaluation over
    per-row keys, phase-major."""
    R = len(keys["traj"])
    row_ells = [ell for ell in ells for _ in range(R)]
    late = [ell for ell in ells if ell > config.n_lrn]  # the last phases, which draw k*
    offsets = rngmod.integer_rows(keys["kstar"] * len(late),
                                  [ell for ell in late for _ in range(R)], config.n_phase)
    k_star = np.repeat([phase_episodes(config, ell)[0] for ell in ells], R)
    k_star[len(k_star) - len(offsets):] += np.array(offsets, dtype=int)
    u_hal = rngmod.uniform_rows(keys["hal-model"] * len(ells), row_ells, 1)
    u_traj = rngmod.uniform_rows(keys["traj"] * len(ells), k_star, n_uniforms)
    return (u_hal.reshape(len(ells), R), k_star.reshape(len(ells), R),
            u_traj.reshape(len(ells), R, n_uniforms))


def run_game(config: MechanismConfig, prior: DiscretePrior, agent, seed,
             episode_log: str = "full", phase_hook=None, track_hh: bool = False):
    """Execute the phase loop and emit a replayable GameLog.

    ``seed`` is one seed, or a list of seeds that the loop plays in
    lockstep, one phase of every seed at a time, returning their GameLogs
    in order (none for an empty list); each log is bit for bit the
    one-seed run's. A seed is an int (``operator.index``), not a bool; any
    other seed is a TypeError.
    ``agent`` follows the agents.AgentSpec protocol and chooses for all
    the seeds at once. ``episode_log`` is "full" (simulate and record every
    episode) or "hallucination" (simulate only the episodes that feed the
    mechanism; phase records are bit-identical between the modes because
    every draw has its own counter address).

    Each seed's family keys are derived once, in one table. A seed's true
    model is the prior atom its ("truth", 0) uniform draws, and the seeds'
    truth uniforms are one read; the hal-model, kstar and k* traj draws
    are read by ``_phase_draws`` for ``_DRAW_ROWS // len(seeds)`` phases
    at a time (at least one). Phase ell reads ("hal-rewards", ell)
    through ``rng.generator``, since its draw count is known only at the
    phase, and only where some explored occurrence's law under the
    hallucinated atom is not a point mass. A full-log phase of several
    episodes reads a seed's episode rows as one ``rng.uniform_rows``
    array and rolls out its honest rows in one block
    (``mdp.rollout_rows``), except where the seed's true model is
    deterministic: no uniform moves its trajectory, so its honest rows
    read no uniforms and share one scalar ``mdp.rollout``. The
    hallucination episode's trajectory comes from the scalar
    ``mdp.rollout`` of its k* row. Each phase appends one
    ``EpisodeBlock`` per seed, no object per episode.

    The seeds' ledgers are one stacked ``LedgerState`` of feature counts;
    a phase's posteriors, ``punish_prob`` and the fully rational agent's
    punish-event sums (masked full-length row sums), hallucinated-model
    draws, greedy choices and ``track_hh`` gaps are stacked operations
    whose rows are bit for bit the one-seed results. What depends only on
    U (its sorted list and set, the punish mask and size, and per true
    transition table the hh-exploring policies) is computed once per U in
    the call; a seed's punish mask is written, when its U changes, into
    the batch's one (2, R, n) array of posterior masks. Per seed remain
    the general hallucinated-reward draws, the rollouts, records and hooks.
    U, new triples, coverage and visits are read from ``LedgerState.visits``:
    the explored set once a phase, after the push, and U and coverage
    again only where it grew.
    ``replay_signals`` rebuilds the signal ledgers from the log for an
    exact check of the float choices after the run.
    ``phase_hook(ctx, log)`` runs for each seed after each phase's
    bookkeeping, with the seed's own context: ``ctx.fast`` is the ledger
    before the phase's entry, the one its posteriors and counts are of,
    and ``ctx.covered_at`` counts the phase's entry. Returning True stops
    that seed's run while the others play on. ``track_hh`` evaluates the
    phase-length incentive condition per phase against the
    sufficiently-visiting policy set of the true model and records it and
    its slack, rhs - lhs (micro scale only; None where the policy split
    degenerates).
    """
    if episode_log not in EPISODE_LOGS:
        raise ValueError("episode_log must be 'full' or 'hallucination'")
    seeds = [_seed_int(s) for s in (seed if isinstance(seed, list) else [seed])]
    if not seeds:
        return []
    full_log = episode_log == "full"
    tables = shared_tables(prior)
    S, A, H = prior.shape
    eps = config.eps_pun
    keys = {family: [rngmod.family_key(s, family) for s in seeds] for family in rngmod.FAMILIES}

    u_truth = rngmod.uniform_rows(keys["truth"], [0] * len(seeds), 1)[:, 0]
    true_atoms = rngmod.index_from_uniform(
        np.broadcast_to(tables.weights, (len(seeds), prior.n)), u_truth).tolist()
    true_models = [prior.atoms[j] for j in true_atoms]
    rho = config.rho if config.rho is not None else Fraction(1)
    # per true transition table, once per batch: the target, as a set and
    # a mask, and with track_hh the support of each policy under the model
    by_table = {}
    table_keys, statics = [], []
    for j, model in zip(true_atoms, true_models):
        key = tables.lattice.transition_key(j)
        if key not in by_table:
            target = reach_set(model, rho)
            mask = np.zeros((S, A, H), dtype=bool)
            for x, a, h in target:
                mask[x - 1, a - 1, h - 1] = True
            by_table[key] = (target, mask, track_hh and [reachable_triples(model, pol)
                                                         for pol in tables.policies])
        table_keys.append(key)
        statics.append(by_table[key])
    # once per U in the batch, keyed by U as the bytes of its complement's
    # mask: U sorted and as a set, its punish mask and size (eps and the
    # prior are fixed for the run); and per (transition table, U) the
    # hh-exploring policies
    by_U, hh_by = {}, {}
    logs = [GameLog(seed=s, agent_mode=agent.mode, episode_log=episode_log, config=config,
                    prior_digest=prior_digest(prior), true_atom=j)
            for s, j in zip(seeds, true_atoms)]

    # the seeds still playing, by batch position; row r of every stacked
    # array below is seed live[r]
    live = list(range(len(seeds)))
    fast = LedgerState(tables, len(seeds))
    untargeted = ~np.stack([mask for _, mask, _ in statics])
    # the explored set and its size, taken before phase 1 and after each
    # push; visits only grow, so a seed's explored set changes exactly
    # when its size does, and its U and coverage change only then
    explored_mask = fast.visits >= config.n_lrn
    sizes = explored_mask.reshape(len(seeds), -1).sum(axis=1)
    n_explored = np.full(len(seeds), -1)  # the size at the seed's last U
    grown = list(range(len(seeds)))
    # the posteriors' masks: row 0 all true, row 1 each seed's punish mask,
    # written when its U changes
    masks = np.ones((2, len(seeds), prior.n), dtype=bool)
    punish_mask = masks[1]
    U_sorted, U, punish_size, hh_inside = ([None] * len(seeds) for _ in range(4))
    covered_at = [None] * len(seeds)
    read_phases = max(1, _DRAW_ROWS // len(seeds))

    def finish(r: int, b: int) -> None:
        """Write seed b's summary from row r of the state."""
        log = logs[b]
        log.summary = {
            "phases_to_coverage": covered_at[b],
            "reach_size": len(statics[b][0]),
            "rho": str(rho),
            "new_triple_flags": [bool(p.new_triples) for p in log.phases],
            "visit_counts": {f"{x + 1},{a + 1},{h + 1}": int(c)
                             for (x, a, h), c in np.ndenumerate(fast.visits[r]) if c},
            "episodes_simulated": sum(len(block.ks) for block in log.blocks),
        }

    for ell in range(1, config.total_phases + 1):
        if not live:
            break
        episodes = phase_episodes(config, ell)
        if (ell - 1) % read_phases == 0:
            ells = range(ell, min(ell + read_phases, config.total_phases + 1))
            drawn = _phase_draws(config, keys, ells, 2 * H)
        u_hal, k_star, u_traj = (d[(ell - 1) % read_phases] for d in drawn)
        if len(live) < len(seeds):
            u_hal, k_star, u_traj = u_hal[live], k_star[live], u_traj[live]
        k_star = k_star.tolist()
        for r in grown:
            b = live[r]
            n_explored[r] = sizes[r]
            u_key = explored_mask[r].tobytes()
            if u_key not in by_U:
                # U only shrinks, at most SAH times a run; C order is sorted order
                U_list = [(x + 1, a + 1, h + 1)
                          for x, a, h in np.argwhere(~explored_mask[r]).tolist()]
                U_set = frozenset(U_list)
                mask = tables.event_mask(
                    punish_event(prior, complement_triples(U_set, S, A, H), eps))
                by_U[u_key] = U_list, U_set, mask, int(mask.sum())
            U_sorted[b], U[b], punish_mask[r], punish_size[b] = by_U[u_key]
            if track_hh:
                hh_key = table_keys[b], u_key
                if hh_key not in hh_by:
                    hh_by[hh_key] = _hh_exploring_policies(statics[b][2], U[b])
                hh_inside[b] = hh_by[hh_key]
        try:
            cens_w, hal_w = fast.posteriors(masks)
        except ZeroEvidence as e:
            # the first seed with no mass left in its punish event
            r = int(np.argmin((np.where(punish_mask, fast.translog, -np.inf) > -np.inf)
                              .any(axis=1)))
            raise ZeroEvidence(
                f"phase {ell}: punish event empty on fully-explored set "
                f"{sorted(complement_triples(U[live[r]], S, A, H))} at eps_pun={eps} ({e})"
            ) from e
        punish_prob = (cens_w * punish_mask).sum(axis=-1).tolist()

        hal_atoms = rngmod.index_from_uniform(hal_w, u_hal)
        hal_counts, needs_draw = _point_draws(tables, hal_atoms, fast.visits * explored_mask)
        if needs_draw.any():
            for r in needs_draw.reshape(len(live), -1).any(axis=1).nonzero()[0].tolist():
                key = keys["hal-rewards"][live[r]]
                hal_counts[r] = _draw_hallucinated(fast.row(r), hal_atoms[r], explored_mask[r],
                                                   lambda: rngmod.generator(key, ell))
        hon_counts = fast.reward_counts * explored_mask[..., None]

        gaps = {}
        split = [r for r, b in enumerate(live) if hh_inside[b] is not None]
        if split:
            # one stacked revealed posterior and one stacked policy_values,
            # whose rows are bit for bit the one-row ones. The stack raises
            # no ZeroEvidence that a row alone would not: every row's
            # hallucinated atom has positive mass by construction, drawn
            # from its hallucination posterior with rewards drawn from its
            # own laws.
            vals = tables.policy_values(fast.revealed_weights(hal_counts))
            inside = np.stack([hh_inside[live[r]] for r in split])
            gaps = dict(zip(split, split_gap(vals[split], inside).tolist()))

        ctx = PhaseContext(ell=ell, fast=fast, cens_weights=cens_w, punish_mask=punish_mask,
                           hon_counts=hon_counts, hal_counts=hal_counts,
                           U=[U[b] for b in live])
        if len(episodes) > 1:
            pi_hal, pi_hon = agent.choose_signal(ell, ("hallucinated", "honest"), ctx)
        else:
            (pi_hal,), pi_hon = agent.choose_signal(ell, ("hallucinated",), ctx), [None] * len(live)

        visited = fast.visits.reshape(len(live), -1).tolist()  # before this phase's entry
        hal_atoms = hal_atoms.tolist()
        hal_steps = []
        for r, b in enumerate(live):
            model = true_models[b]
            simulated = episodes if full_log else (k_star[r],)
            hon_code = None if pi_hon[r] is None else pi_hon[r].encoding
            hon_trajs = traj_of_row = ()
            if len(simulated) > 1 and model.is_deterministic:
                # every draw row is a point mass, which no uniform moves: one
                # rollout is every honest row's, and no ("traj", k) is read
                hon_trajs = [rollout(model, pi_hon[r], [0.0] * (2 * H))]
                traj_of_row = [0] * len(simulated)
            elif len(simulated) > 1:
                rows = rngmod.uniform_rows(keys["traj"][b],
                                           np.arange(simulated.start, simulated.stop,
                                                     dtype=np.uint64), 2 * H)
                # the honest rows in one block; the k* row's entry is unused
                hon_trajs, traj_of_row = rollout_rows(model, pi_hon[r], rows)
                traj_of_row = traj_of_row.tolist()
            steps = rollout(model, pi_hal[r], u_traj[r].tolist())
            hal_steps.append(steps)
            logs[b].blocks.append(EpisodeBlock(ell, simulated, k_star[r], pi_hal[r].encoding,
                                               hon_code, steps, hon_trajs, traj_of_row))

            hh_holds = hh_slack = None
            if r in gaps:
                # hh_condition_holds in floats: lhs is float(p0)
                lhs, rhs = 1.0 / len(episodes), punish_prob[r] * gaps[r] / (3.0 * H)
                hh_holds, hh_slack = lhs <= rhs, rhs - lhs
            new_triples = sorted((x, a, h) for x, a, h, _ in steps
                                 if not visited[r][((x - 1) * A + a - 1) * H + h - 1])
            logs[b].phases.append(
                PhaseRecord(
                    ell=ell,
                    first_episode=episodes[0],
                    last_episode=episodes[-1],
                    k_star=k_star[r],
                    U=U_sorted[b],
                    punish_prob=punish_prob[r],
                    punish_size=punish_size[b],
                    hal_atom=hal_atoms[r],
                    hal_policy=pi_hal[r].encoding,
                    honest_policy=hon_code,
                    new_triples=new_triples,
                    hh_condition=hh_holds,
                    hh_slack=hh_slack,
                )
            )
        if phase_hook is not None:
            # the hooks see the ledger the phase's posteriors and draws were of
            ctx.fast = fast.snapshot()
        fast.push_entries(hal_steps)
        explored_mask = fast.visits >= config.n_lrn
        sizes = explored_mask.reshape(len(live), -1).sum(axis=1)
        grown = (sizes != n_explored).nonzero()[0].tolist()
        # phase 1 checks every seed, as an empty target is covered there
        for r in grown if ell > 1 else range(len(live)):
            if covered_at[live[r]] is None and (explored_mask[r] | untargeted[r]).all():
                covered_at[live[r]] = ell
        if phase_hook is not None:
            stop = []
            for r, b in enumerate(live):
                seed_ctx = ctx.row(r)
                seed_ctx.covered_at = covered_at[b]
                if phase_hook(seed_ctx, logs[b]):
                    stop.append(r)
                    finish(r, b)
            if stop:
                keep = [r for r in range(len(live)) if r not in stop]
                fast.keep(keep)
                untargeted, masks = untargeted[keep], masks[:, keep]
                explored_mask, sizes, n_explored = explored_mask[keep], sizes[keep], n_explored[keep]
                punish_mask = masks[1]
                grown = (sizes != n_explored).nonzero()[0].tolist()
                live = [live[r] for r in keep]

    for r, b in enumerate(live):
        finish(r, b)
    return logs if isinstance(seed, list) else logs[0]


def run_games(config: MechanismConfig, prior: DiscretePrior, make_agent, seeds,
              **run_options):
    """``run_game`` over the seeds in lockstep batches of consecutive
    seeds, each batch with a fresh ``make_agent()``; yields each GameLog in
    seed order as its batch finishes. A batch holds ``_batch_seeds``
    seeds: as many as make 160 phase records, at least 4 (20 for det's 8
    phases, 4 for 40 phases or more), and reads its own draws, so each
    log is bit for bit the one-seed run's. Memory holds one batch's runs,
    whatever the number of seeds."""
    seeds = list(seeds)
    size = _batch_seeds(config)
    for i in range(0, len(seeds), size):
        yield from run_game(config, prior, make_agent(), seeds[i:i + size], **run_options)


def replay_signals(log: GameLog, prior: DiscretePrior):
    """Rebuild a finished run's signal ledgers from its in-memory log.

    Yields (ell, {"raw", "censored", "honest", "hallucinated"}) per phase.
    The raw ledger holds the hallucination episodes of the earlier phases,
    the honest one censors it with the phase record's U, and the
    hallucinated one re-draws the rewards of the logged ``hal_atom`` at the
    run's address ("hal-rewards", ell). ``AgentSpec.choose`` on these
    ledgers is the exact check of the run's float choices.
    """
    S, A, H = prior.shape
    entries = []
    for p, (ell, hal_policy, hal_steps) in zip(log.phases, log.hallucination_history()):
        U = frozenset(map(tuple, p.U))
        raw = raw_ledger(S, A, H, entries)
        censored = totally_censor(raw)
        yield ell, {"raw": raw, "censored": censored, "honest": censor_ledger(raw, U),
                    "hallucinated": hallucinate_ledger(
                        censored, prior.atoms[p.hal_atom], U,
                        rngmod.stream(log.seed, "hal-rewards", ell))}
        entries.append((MarkovPolicy.from_encoding(hal_policy, S, A, H), Trajectory(hal_steps)))
