"""Agent behavior: canonical trusters and fully rational Bayesians.

The canonical truster takes the revealed ledger at face value (policies
and censor set treated as fixed); the fully rational agent conditions on
the mechanism's full signal distribution, mixing the hallucination and
exploitation branches of its episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, OracleUnavailable, ZeroEvidence
from .ledgers import Ledger, count_signature, ledger_reward_mass, totally_censor
from .mdp import MarkovPolicy, complement_triples
from .mechanism import (
    MechanismConfig,
    PhaseContext,
    hallucination_prior_prob,
    punish_event,
)
from .priors import (
    DiscretePrior,
    Posterior,
    PriorTables,
    bayes_greedy,
    canonical_posterior,
    exact_lattice,
    normalized_weights,
)


def episode_phase(config: MechanismConfig, k: int) -> int:
    """Phase index containing episode k."""
    if k <= config.n_lrn:
        return k
    return config.n_lrn + 1 + (k - config.n_lrn - 1) // config.n_phase


def mechanism_posterior(prior: DiscretePrior, config: MechanismConfig, k: int,
                        revealed: Ledger, exact: bool = False, p0=None):
    """Exact posterior over the true model given the revealed ledger.

    Mixes the two ways episode k could have seen this ledger: it is the
    phase's hallucination episode (prior probability p0) and the ledger
    was fabricated from the punish posterior, or it is an exploitation
    episode and the ledger is the honest one. Returns (Posterior, p_hal)
    where p_hal = Pr[k is the hallucination episode | ledger]. Passing
    p0=0 gives the infinite-phase-length limit (pure honest branch).
    """
    ell = episode_phase(config, k)
    if p0 is None:
        p0 = hallucination_prior_prob(config, ell)
    else:
        p0 = Fraction(p0) if exact else float(p0)
    U = revealed.censor_set
    punish = punish_event(prior, complement_triples(U, *prior.shape), config.eps_pun)
    if exact:
        weights, p_hal = _mechanism_weights_exact(prior, revealed, punish, p0)
    else:
        weights, p_hal = _mechanism_weights_float(prior, revealed, punish, float(p0))
    post = Posterior(
        prior, weights,
        {"signal": "mechanism", "episode": k, "phase": ell, "p_hal": p_hal},
    )
    return post, p_hal


def _mechanism_weights_exact(prior, revealed: Ledger, punish, p0: Fraction):
    """The mechanism posterior on the prior's lattice.

    With C the censored-ledger canonical numerators, b the revealed-reward
    numerators (both over denominators shared by every atom) and
    p0 = P/Q, the weight of atom i is proportional to
    C_i (P Sb + (Q - P) Sp b_i), where Sp and Sb sum C_i and C_i b_i over
    the punish event; (Sb, Sp) is taken as (0, 1) when Sp = 0, i.e. when
    the hallucination branch is impossible.
    """
    lattice = exact_lattice(prior)
    signature = count_signature(revealed)
    paths = [item for item in signature if item[0][0] != "reward"]
    rewards = [item for item in signature if item[0][0] == "reward"]
    C = lattice.masses(lattice.weights, paths)
    b = lattice.masses([1] * prior.n, rewards)
    Sp = sum(C[i] for i in punish)
    Sb, Sp = (sum(C[i] * b[i] for i in punish), Sp) if Sp else (0, 1)
    P, Q = p0.numerator, p0.denominator
    raw = [c * (P * Sb + (Q - P) * Sp * bi) for c, bi in zip(C, b)]
    total = sum(raw)
    if not total:
        raise ZeroEvidence("revealed ledger impossible under both branches")
    # p_hal = p0 A / (p0 A + (1 - p0) Pr[honest ledger]), A = Sb / Sp
    hal = P * Sb * sum(C)
    denom = hal + (Q - P) * Sp * sum(c * bi for c, bi in zip(C, b))
    return normalized_weights(raw, total, True), Fraction(hal, denom) if denom else Fraction(0)


def _mechanism_weights_float(prior, revealed: Ledger, punish, p0: float):
    can_cens = canonical_posterior(prior, totally_censor(revealed))
    B = [ledger_reward_mass(m, revealed) for m in prior.atoms]
    pun_mass = sum(can_cens.weights[i] for i in punish)
    if pun_mass:
        A = sum(can_cens.weights[i] * B[i] for i in punish) / pun_mass
    else:
        A = 0.0  # hallucination branch impossible
    raw = [w * (p0 * A + (1.0 - p0) * b) for w, b in zip(can_cens.weights, B)]
    total = sum(raw)
    if not total:
        raise ZeroEvidence("revealed ledger impossible under both branches")
    hon_mass = sum(w * b for w, b in zip(can_cens.weights, B))
    denom = p0 * A + (1.0 - p0) * hon_mass
    p_hal = (p0 * A / denom) if denom else 0.0
    return normalized_weights(raw, total, False), p_hal


@dataclass
class AgentSpec:
    """mode is "canonical_truster" or "fully_rational"; both know the
    mechanism config and prior. ``tables`` enables the numpy fast paths."""

    mode: str
    prior: DiscretePrior
    config: MechanismConfig
    exact: bool = False
    tables: PriorTables | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in ("canonical_truster", "fully_rational"):
            raise ValueError(f"unknown agent mode {self.mode!r}")

    def choose(self, k: int, ell: int, revealed: Ledger,
               is_known_hallucination: bool = False) -> MarkovPolicy:
        """Bayes-greedy policy for a revealed ledger (standalone route)."""
        # a canonical ledger mass is a product of i.i.d. entry masses, so both
        # modes' posteriors depend on the ledger only through U and its counts
        key = (ell, is_known_hallucination and self.mode == "fully_rational",
               revealed.censor_set, count_signature(revealed))
        if key in self._cache:
            return self._cache[key]
        if self.mode == "canonical_truster":
            post = canonical_posterior(self.prior, revealed, exact=self.exact)
            pol = bayes_greedy(post, self.tables)
        else:
            try:
                post, _ = mechanism_posterior(self.prior, self.config, k, revealed,
                                              exact=self.exact)
                pol = bayes_greedy(post, self.tables)
            except CapExceeded as e:
                raise OracleUnavailable(
                    f"instance beyond exact-posterior scale: {e}"
                ) from e
        self._cache[key] = pol
        return pol

    def choose_signal(self, k: int, ell: int, kind: str, ctx: PhaseContext) -> MarkovPolicy:
        """Fast in-run route: the game loop supplies per-phase count state.

        Exact-arithmetic agents fall back to the standalone route and
        need the materialized ledgers from run_game(keep_signals=True).
        """
        if self.exact:
            if ctx.signals is None:
                raise ValueError("exact agents need run_game(keep_signals=True)")
            return self.choose(k, ell, ctx.signals[kind],
                               is_known_hallucination=ell <= self.config.n_lrn)
        tables = self.tables if self.tables is not None else ctx.fast.tables
        counts = ctx.counts_of(kind)
        if self.mode == "canonical_truster":
            post = ctx.fast.revealed_posterior(counts, kind)
        else:
            post = self._rational_fast(ell, counts, ctx)
        return bayes_greedy(post, tables)

    def _rational_fast(self, ell: int, counts: np.ndarray, ctx: PhaseContext) -> Posterior:
        p0 = float(hallucination_prior_prob(self.config, ell))
        can = ctx.fast.cens_posterior().weights
        logB = ctx.fast.reward_loglik(counts)
        logB = logB - logB[np.isfinite(logB)].max(initial=0.0)
        B = np.exp(logB)
        mask = ctx.punish_mask
        pun_mass = float(can[mask].sum())
        A = float((can[mask] * B[mask]).sum()) / pun_mass if pun_mass > 0 else 0.0
        w = can * (p0 * A + (1.0 - p0) * B)
        total = w.sum()
        if total <= 0:
            raise ZeroEvidence("revealed ledger impossible under both branches")
        return Posterior(self.prior, w / total, {"signal": "mechanism-fast"})


def make_agent(mode: str, prior: DiscretePrior, config: MechanismConfig,
               exact: bool = False, tables: PriorTables | None = None) -> AgentSpec:
    return AgentSpec(mode, prior, config, exact, tables)


def choose_policy(agent: AgentSpec, k: int, revealed: Ledger) -> MarkovPolicy:
    """Standalone form: derive the phase from the episode index and choose."""
    ell = episode_phase(agent.config, k)
    return agent.choose(k, ell, revealed)
