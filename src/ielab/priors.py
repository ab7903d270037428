"""Finite discrete priors, exact canonical posteriors, gaps, Bayes-greedy.

All Bayesian computation is exact enumeration over a weighted finite
atom set. ``PriorTables`` carries the float/numpy caches (value matrix,
reward/transition tensors) that the simulation fast paths use; the
Fraction route stays available everywhere via ``exact=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CapExceeded, DegenerateSplit, ZeroEvidence
from .ledgers import Ledger, ledger_probability
from .mdp import (
    DiscreteDist,
    MarkovPolicy,
    TabularModel,
    as_fraction,
    build_model,
    enumerate_policies,
    policy_value,
)

FACTORED_EXPANSION_CAP = 10**5

ModelEvent = frozenset  # of atom indices into a prior


@dataclass(frozen=True)
class DiscretePrior:
    """Weighted finite set of models sharing (S, A, H) and reward support."""

    atoms: tuple[TabularModel, ...]
    weights: tuple[Fraction, ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ValueError("atoms/weights mismatch")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to 1 exactly")
        first = self.atoms[0]
        for m in self.atoms:
            if (m.S, m.A, m.H) != (first.S, first.A, first.H):
                raise ValueError("atoms must share (S, A, H)")
            if m.reward_support != first.reward_support:
                raise ValueError("atoms must share the global reward support")

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def shape(self) -> tuple[int, int, int]:
        m = self.atoms[0]
        return m.S, m.A, m.H

    def full_event(self) -> ModelEvent:
        return frozenset(range(self.n))


@dataclass(frozen=True)
class Posterior:
    """Normalized weights over a prior's atoms, plus conditioning provenance.

    ``weights`` is aligned to prior.atoms: a tuple of Fractions on exact
    paths, a float ndarray on float paths.
    """

    prior: DiscretePrior
    weights: tuple | np.ndarray = field(compare=False)
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.exact:
            if sum(self.weights) != 1:
                raise ValueError("posterior weights must sum to 1")
        elif abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("posterior weights must sum to 1")

    @property
    def exact(self) -> bool:
        return not isinstance(self.weights, np.ndarray)

    def support(self) -> ModelEvent:
        return frozenset(i for i, w in enumerate(self.weights) if w > 0)


def prior_as_posterior(prior: DiscretePrior, exact: bool = False) -> Posterior:
    ws = prior.weights if exact else np.array([float(w) for w in prior.weights])
    return Posterior(prior, ws, {"conditioning": "none"})


@dataclass(frozen=True)
class FactoredRewardPrior:
    """Reward-independent prior: transition atoms x per-triple mean marginals.

    ``reward_marginals[(x,a,h)]`` is a distribution over mean-reward
    values; ``dist_of_mean`` lifts a mean to a reward law (point mass by
    default, so deterministic-reward classes come out deterministic).
    """

    S: int
    A: int
    H: int
    transition_atoms: tuple  # of (init, transitions-dict, weight)
    reward_marginals: dict  # triple -> DiscreteDist over means
    dist_of_mean: object = None  # callable mean -> DiscreteDist
    reward_support: tuple = None

    def _lift(self, mean: Fraction) -> DiscreteDist:
        if self.dist_of_mean is None:
            return DiscreteDist.point(mean)
        return self.dist_of_mean(mean)

    def global_support(self) -> tuple[Fraction, ...]:
        if self.reward_support is not None:
            return tuple(sorted(as_fraction(v) for v in self.reward_support))
        vals = set()
        for dist in self.reward_marginals.values():
            for m, p in zip(dist.support, dist.probs):
                if p > 0:
                    vals.update(
                        v for v, q in zip(self._lift(m).support, self._lift(m).probs) if q > 0
                    )
        return tuple(sorted(vals))

    def f_min(self, eps) -> Fraction:
        """min over triples of Pr[mean reward <= eps] under the marginals."""
        eps = as_fraction(eps)
        best = None
        for dist in self.reward_marginals.values():
            p = sum(q for m, q in zip(dist.support, dist.probs) if m <= eps)
            best = p if best is None or p < best else best
        return best

    def r_min(self) -> Fraction:
        """min over triples of the marginal mean reward."""
        return min(d.mean() for d in self.reward_marginals.values())

    def is_deterministic(self) -> bool:
        for init, transitions, _ in self.transition_atoms:
            if any(as_fraction(p) not in (0, 1) for p in init):
                return False
            for vec in transitions.values():
                if any(as_fraction(p) not in (0, 1) for p in vec):
                    return False
        for dist in self.reward_marginals.values():
            for m, p in zip(dist.support, dist.probs):
                if p > 0 and not self._lift(m).is_point():
                    return False
        return True

    def expand(self, cap: int = FACTORED_EXPANSION_CAP) -> DiscretePrior:
        """Cartesian product of transition atoms and reward assignments."""
        triples = sorted(self.reward_marginals)
        sizes = [len(self.reward_marginals[t].support) for t in triples]
        n = len(self.transition_atoms)
        for s in sizes:
            n *= s
        if n > cap:
            raise CapExceeded(f"factored expansion {n} exceeds cap {cap}")
        support = self.global_support()
        atoms, weights = [], []
        choice_sets = [
            list(zip(self.reward_marginals[t].support, self.reward_marginals[t].probs))
            for t in triples
        ]
        for init, transitions, tw in self.transition_atoms:
            for combo in product(*choice_sets):
                w = as_fraction(tw)
                rewards = {}
                for t, (mean, p) in zip(triples, combo):
                    w *= p
                    rewards[t] = self._lift(mean)
                if w == 0:
                    continue
                atoms.append(
                    build_model(
                        self.S, self.A, self.H, init, transitions, rewards,
                        reward_support=support,
                    )
                )
                weights.append(w)
        return DiscretePrior(tuple(atoms), tuple(weights))


def f_min(prior, eps) -> Fraction:
    """min over (x,a,h) of Pr_{mu ~ prior}[mean reward <= eps]."""
    if isinstance(prior, FactoredRewardPrior):
        return prior.f_min(eps)
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    S, A, H = prior.shape
    best = None
    for x in range(1, S + 1):
        for a in range(1, A + 1):
            for h in range(1, H + 1):
                p = sum(
                    w
                    for m, w in zip(prior.atoms, prior.weights)
                    if m.mean_reward(x, a, h) <= eps
                )
                best = p if best is None or p < best else best
    return best


def r_min(prior) -> Fraction:
    """min over (x,a,h) of the prior-mean reward."""
    if isinstance(prior, FactoredRewardPrior):
        return prior.r_min()
    S, A, H = prior.shape
    best = None
    for x in range(1, S + 1):
        for a in range(1, A + 1):
            for h in range(1, H + 1):
                mean = sum(
                    w * m.mean_reward(x, a, h)
                    for m, w in zip(prior.atoms, prior.weights)
                )
                best = mean if best is None or mean < best else best
    return best


def canonical_posterior(
    prior: DiscretePrior,
    ledger: Ledger,
    event: ModelEvent | None = None,
    exact: bool = False,
) -> Posterior:
    """Posterior treating the ledger's policies and censor set as fixed.

    Atom weight is proportional to prior weight times the canonical
    ledger mass under the atom, restricted to the event. Raises
    ZeroEvidence when the conditioning is impossible.
    """
    if event is None:
        event = prior.full_event()
    raw = []
    for i, (m, w) in enumerate(zip(prior.atoms, prior.weights)):
        if i not in event:
            raw.append(Fraction(0) if exact else 0.0)
            continue
        lp = ledger_probability(m, ledger, exact=exact)
        raw.append((w if exact else float(w)) * lp)
    total = sum(raw)
    if not total:
        raise ZeroEvidence(
            f"ledger/event inconsistent with the prior "
            f"(|entries|={len(ledger)}, |event|={len(event)})"
        )
    return Posterior(prior, normalized_weights(raw, total, exact),
                     {"ledger": ledger.key(), "event": event, "exact": exact})


def normalized_weights(raw: list, total, exact: bool):
    """Posterior weights raw / total: Fractions in a tuple, or a float ndarray."""
    return tuple(v / total for v in raw) if exact else np.array(raw) / total


def conditional_value(posterior: Posterior, policy: MarkovPolicy, tables: "PriorTables | None" = None):
    """E over posterior atoms of policy_value(atom, policy)."""
    exact = posterior.exact
    if tables is not None:
        if exact:
            return sum(
                w * tables.exact_value(i, policy)
                for i, w in enumerate(posterior.weights) if w
            )
        return float(np.dot(posterior.weights,
                            tables.value_matrix[:, tables.policy_col(policy)]))
    total = Fraction(0) if exact else 0.0
    for w, m in zip(posterior.weights, posterior.prior.atoms):
        if w:
            total += w * policy_value(m, policy, exact=exact)
    return total


def canonical_gap(posterior: Posterior, Pi, tables: "PriorTables | None" = None):
    """Best conditional value inside Pi minus best outside it.

    Pi is a collection of MarkovPolicy or encodings; must be a nonempty
    strict subset of the enumerated policy space.
    """
    S, A, H = posterior.prior.shape
    policies = tables.policies if tables is not None else enumerate_policies(S, A, H)
    enc = policy_encodings(Pi)
    inside = [p for p in policies if p.encoding in enc]
    outside = [p for p in policies if p.encoding not in enc]
    if not inside or not outside:
        raise DegenerateSplit("gap needs a nonempty strict subset of policies")
    vin = max(conditional_value(posterior, p, tables) for p in inside)
    vout = max(conditional_value(posterior, p, tables) for p in outside)
    return vin - vout


def policy_encodings(Pi) -> frozenset:
    """Canonical encodings of a collection of MarkovPolicy objects or ints."""
    return frozenset(p.encoding if isinstance(p, MarkovPolicy) else int(p) for p in Pi)


GREEDY_TIE_TOL = 1e-9


def bayes_greedy(posterior: Posterior, tables: "PriorTables | None" = None) -> MarkovPolicy:
    """argmax of conditional value; ties broken by smallest encoding.

    Float paths treat values within GREEDY_TIE_TOL (relative) of the max
    as tied, so that mathematically tied policies resolve to the same
    canonical winner regardless of summation order; exact (Fraction)
    posteriors compare exactly.
    """
    S, A, H = posterior.prior.shape
    exact = posterior.exact
    if tables is not None and not exact:
        vals = posterior.weights @ tables.value_matrix
        vmax = float(vals.max())
        tol = GREEDY_TIE_TOL * (1.0 + abs(vmax))
        return tables.policies[int(np.flatnonzero(vals >= vmax - tol)[0])]
    policies = tables.policies if tables is not None else enumerate_policies(S, A, H)
    vals = [conditional_value(posterior, p, tables) for p in policies]
    vmax = max(vals)
    if exact:
        idx = next(i for i, v in enumerate(vals) if v == vmax)
    else:
        tol = GREEDY_TIE_TOL * (1.0 + abs(vmax))
        idx = next(i for i, v in enumerate(vals) if v >= vmax - tol)
    return policies[idx]


class PriorTables:
    """numpy caches over a prior's atoms for the simulation fast paths.

    Arrays: value_matrix (n_atoms, n_policies); init (n, S);
    trans (n, S, A, H, S); and per-support reward log-masses for
    likelihood accumulation. Also memoizes exact policy values for the
    oracle and exact low-reward tables per threshold.
    """

    def __init__(self, prior: DiscretePrior):
        self.prior = prior
        S, A, H = prior.shape
        self.S, self.A, self.H = S, A, H
        self.policies = enumerate_policies(S, A, H)
        self._policy_col = {p.encoding: j for j, p in enumerate(self.policies)}
        n = prior.n
        self.init = np.stack([m.init_f() for m in prior.atoms])
        self.trans = np.stack([m.trans_f() for m in prior.atoms])
        self.support = prior.atoms[0].reward_support
        self._support_ix = {v: k for k, v in enumerate(self.support)}
        # reward log-mass: (n, S, A, H, |support|), -inf where mass is 0
        mass = np.zeros((n, S, A, H, len(self.support)))
        for i, m in enumerate(prior.atoms):
            for x in range(1, S + 1):
                for a in range(1, A + 1):
                    for h in range(1, H + 1):
                        for v, p in zip(
                            m.reward_dist(x, a, h).support, m.reward_dist(x, a, h).probs
                        ):
                            mass[i, x - 1, a - 1, h - 1, self._support_ix[v]] = float(p)
        with np.errstate(divide="ignore"):
            self.reward_logmass = np.log(mass)
        self.reward_cum = np.cumsum(mass, axis=-1)
        # index of the last support value with positive mass: (n, S, A, H)
        self.reward_last = len(self.support) - 1 - np.argmax(mass[..., ::-1] > 0, axis=-1)
        self.log_weights = np.log(np.array([float(w) for w in prior.weights]))
        self.value_matrix = np.empty((n, len(self.policies)))
        for i, m in enumerate(prior.atoms):
            for j, p in enumerate(self.policies):
                self.value_matrix[i, j] = policy_value(m, p)
        self._exact_values: dict = {}
        self._low_reward: dict = {}

    def policy_col(self, policy: MarkovPolicy) -> int:
        return self._policy_col[policy.encoding]

    def exact_value(self, atom_index: int, policy: MarkovPolicy) -> Fraction:
        key = (atom_index, policy.encoding)
        if key not in self._exact_values:
            self._exact_values[key] = policy_value(
                self.prior.atoms[atom_index], policy, exact=True
            )
        return self._exact_values[key]

    def low_reward(self, eps: Fraction) -> np.ndarray:
        """(n, S, A, H) booleans: the atom's mean reward at the triple is
        <= eps, compared exactly. Built once per eps."""
        if eps not in self._low_reward:
            S, A, H = self.S, self.A, self.H
            self._low_reward[eps] = np.array([
                [[[m.mean_reward(x, a, h) <= eps for h in range(1, H + 1)]
                  for a in range(1, A + 1)] for x in range(1, S + 1)]
                for m in self.prior.atoms
            ], dtype=bool)
        return self._low_reward[eps]

    def support_index(self, value: Fraction) -> int:
        return self._support_ix[value]

    def entry_translog(self, traj_steps) -> np.ndarray:
        """log init+path mass per atom for one entry's transition content."""
        n = self.init.shape[0]
        with np.errstate(divide="ignore"):
            out = np.log(self.init[:, traj_steps[0].x - 1])
            for i, s in enumerate(traj_steps[:-1]):
                nxt = traj_steps[i + 1]
                out = out + np.log(self.trans[:, s.x - 1, s.a - 1, s.h - 1, nxt.x - 1])
        return out

    def posterior_from_loglik(self, loglik: np.ndarray, mask=None, provenance=None) -> Posterior:
        """Normalize prior-weighted log-likelihoods into a float Posterior."""
        ll = self.log_weights + loglik
        if mask is not None:
            ll = np.where(mask, ll, -np.inf)
        top = ll.max()
        if top == -np.inf:
            raise ZeroEvidence("all atoms have zero likelihood")
        w = np.exp(ll - top)
        w /= w.sum()
        return Posterior(self.prior, w, provenance or {})


def shared_tables(prior: DiscretePrior) -> PriorTables:
    """The prior's PriorTables (exact-value memo included), built once and
    kept on the prior."""
    if "tables" not in prior._cache:
        prior._cache["tables"] = PriorTables(prior)
    return prior._cache["tables"]
