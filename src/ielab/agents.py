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
from .ledgers import Ledger
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
    check_weight_sums,
    exact_lattice,
)

AGENT_MODES = ("canonical_truster", "fully_rational")


def mechanism_posterior(prior: DiscretePrior, config: MechanismConfig, ell: int,
                        revealed: Ledger, p0=None):
    """Exact posterior over the true model given the revealed ledger.

    Mixes the two ways an episode of phase ell could have seen this
    ledger: it is the phase's hallucination episode (prior probability
    p0, phase ell's by default) and the ledger was fabricated from the
    punish posterior, or it is an exploitation episode and the ledger is
    the honest one. Returns (Posterior, p_hal) where p_hal = Pr[the
    episode is the hallucination episode | ledger]. Passing p0=0 gives
    the infinite-phase-length limit (pure honest branch).
    """
    if p0 is None:
        p0 = hallucination_prior_prob(config, ell)
    U = revealed.censor_set
    punish = punish_event(prior, complement_triples(U, *prior.shape), config.eps_pun)
    masses, p_hal = _mechanism_weights_exact(prior, revealed, punish, Fraction(p0))
    return Posterior(prior, masses), p_hal


def _mechanism_weights_exact(prior, revealed: Ledger, punish, p0: Fraction):
    """The mechanism posterior on the prior's lattice, as (nums, den), and p_hal.

    With C the censored-ledger canonical masses and b the revealed-reward
    masses, both integers over denominators shared by every atom, and
    p0 = P/Q, the weight of atom i is proportional to
    C_i (P Sb + (Q - P) Sp b_i), where Sp and Sb sum C_i and C_i b_i over
    the punish event; (Sb, Sp) is taken as (0, 1) when Sp = 0, i.e. when
    the hallucination branch is impossible.
    """
    lattice = exact_lattice(prior)
    signature = lattice.count_signature(revealed)
    paths = [item for item in signature if item[0] < lattice.reward_start]
    rewards = [item for item in signature if item[0] >= lattice.reward_start]
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
    return (raw, total), Fraction(hal, denom) if denom else Fraction(0)


def _mechanism_weights_float(tables: PriorTables, can: np.ndarray, counts: np.ndarray,
                             punish: np.ndarray, p0: float) -> np.ndarray:
    """The mechanism posterior weights on the prior's PriorTables.

    ``can`` is the canonical posterior of the censored ledger (the
    normalized weights of its per-atom log transition mass), ``counts``
    the revealed-reward counts and ``punish`` the punish event as a
    boolean mask; each may be a stack with one row per ledger, and
    ``can`` and ``punish`` broadcast against the counts' stack. The closed
    form of ``_mechanism_weights_exact``, with B the revealed-reward
    masses: the log-masses are shifted by their largest finite value
    first, which cancels in the weights and keeps B from
    underflowing on long ledgers. The sums over the punish event are
    masked full-length row sums, one stacked sum per quantity. The
    weights pass ``check_weight_sums``.
    """
    logB = tables.reward_loglik(counts)
    finite = np.isfinite(logB)
    # a ledger with no finite log-mass has B = exp(-inf) = 0
    top = np.where(finite.any(axis=-1, keepdims=True),
                   np.max(logB, axis=-1, keepdims=True, where=finite, initial=-np.inf), 0.0)
    B = np.exp(logB - top)
    pun_mass = (can * punish).sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.where(pun_mass > 0, (can * B * punish).sum(axis=-1, keepdims=True) / pun_mass, 0.0)
    w = can * (p0 * A + (1.0 - p0) * B)
    total = w.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ZeroEvidence("revealed ledger impossible under both branches")
    return check_weight_sums(w / total)


@dataclass
class AgentSpec:
    """mode is "canonical_truster" or "fully_rational"; both know the
    mechanism config and prior.

    In a run the agent chooses through ``choose_signal``, once per phase
    and signal for a whole lockstep batch of seeds, on the run loop's
    stacked float weights. ``choose`` is the exact choice for a ledger,
    as on the ledgers ``mechanism.replay_signals`` rebuilds from a log.
    """

    mode: str
    prior: DiscretePrior
    config: MechanismConfig
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in AGENT_MODES:
            raise ValueError(f"unknown agent mode {self.mode!r}")

    def choose(self, ell: int, revealed: Ledger) -> MarkovPolicy:
        """Bayes-greedy policy for a revealed ledger at phase ell, on its
        exact posterior."""
        # a canonical ledger mass is a product of i.i.d. entry masses, so both
        # modes' posteriors depend on the ledger only through U and its counts;
        # ell fixes the fully rational agent's hallucination prior p0
        key = (ell, revealed.censor_set, exact_lattice(self.prior).count_signature(revealed))
        if key in self._cache:
            return self._cache[key]
        if self.mode == "canonical_truster":
            pol = bayes_greedy(canonical_posterior(self.prior, revealed))
        else:
            try:
                post, _ = mechanism_posterior(self.prior, self.config, ell, revealed)
                pol = bayes_greedy(post)
            except CapExceeded as e:
                raise OracleUnavailable(
                    f"instance beyond exact-posterior scale: {e}"
                ) from e
        self._cache[key] = pol
        return pol

    def choose_signal(self, ell: int, kinds: tuple, ctx: PhaseContext) -> list[list]:
        """The in-run choices of every seed of a batch at phase ell: per
        kind of signal in ``kinds``, one policy per row of the run loop's
        stacked per-phase state ``ctx``. The kinds' posterior weights are
        normalized and compared as one stack (``PriorTables.greedy``)."""
        counts = np.array([ctx.counts_of(kind) for kind in kinds])
        tables = ctx.fast.tables
        if self.mode == "canonical_truster":
            weights = ctx.fast.revealed_weights(counts)
        else:
            p0 = float(hallucination_prior_prob(self.config, ell))
            weights = _mechanism_weights_float(tables, ctx.cens_weights, counts,
                                               ctx.punish_mask, p0)
        policies = tables.greedy(weights)
        R = len(policies) // len(kinds)
        return [policies[i * R:(i + 1) * R] for i in range(len(kinds))]


def make_agent(mode: str, prior: DiscretePrior, config: MechanismConfig) -> AgentSpec:
    return AgentSpec(mode, prior, config)
