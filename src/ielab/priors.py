"""Finite discrete priors, exact canonical posteriors, gaps, Bayes-greedy.

All Bayesian computation is exact enumeration over a weighted finite
atom set. ``PriorTables`` carries the float/numpy caches (value matrix,
reward/transition tensors) that the simulation fast paths use. The exact
route (``exact=True``) runs on the prior's ``ExactLattice``: masses and
policy values as Python ints over per-prior common denominators, so
posteriors, conditional values and greedy choices are integer products
and dot products. Fractions appear only at the boundary, in the
weights, values and gaps these functions return.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CapExceeded, DegenerateSplit, ZeroEvidence
from .ledgers import Ledger, count_signature, ledger_probability
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
    paths, a float ndarray on float paths. Exact posteriors also carry
    ``numerators`` = (ints, den) with weights[i] == ints[i] / den, the
    form the lattice's integer dot products take.
    """

    prior: DiscretePrior
    weights: tuple | np.ndarray = field(compare=False)
    provenance: dict = field(default_factory=dict, compare=False)
    numerators: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.exact:
            den = math.lcm(*(w.denominator for w in self.weights))
            nums = tuple(w.numerator * (den // w.denominator) for w in self.weights)
            if sum(nums) != den:
                raise ValueError("posterior weights must sum to 1")
            object.__setattr__(self, "numerators", (nums, den))
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
    ledger mass under the atom, restricted to the event. The exact route
    raises the lattice numerators to the ledger's count signature; the
    common denominator cancels. Raises ZeroEvidence when the
    conditioning is impossible.
    """
    if event is None:
        event = prior.full_event()
    if exact:
        lattice = exact_lattice(prior)
        base = [w if i in event else 0 for i, w in enumerate(lattice.weights)]
        raw = lattice.masses(base, count_signature(ledger))
    else:
        raw = [float(w) * ledger_probability(m, ledger) if i in event else 0.0
               for i, (m, w) in enumerate(zip(prior.atoms, prior.weights))]
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
    return tuple(Fraction(v, total) for v in raw) if exact else np.array(raw) / total


def exact_policy_values(posterior: Posterior) -> tuple[list[int], int]:
    """Conditional values of every policy, in encoding order, of an exact
    posterior: integer numerators over one positive denominator."""
    lattice = exact_lattice(posterior.prior)
    nums, den = posterior.numerators
    return lattice.policy_values(nums), den * lattice.value_den


def conditional_value(posterior: Posterior, policy: MarkovPolicy, tables: "PriorTables | None" = None):
    """E over posterior atoms of policy_value(atom, policy).

    Exact posteriors read the lattice's value matrix; ``tables`` serves
    the float route.
    """
    if posterior.exact:
        lattice = exact_lattice(posterior.prior)
        nums, den = posterior.numerators
        return Fraction(lattice.policy_value(nums, policy.encoding), den * lattice.value_den)
    if tables is not None:
        return float(np.dot(posterior.weights,
                            tables.value_matrix[:, tables.policy_col(policy)]))
    total = 0.0
    for w, m in zip(posterior.weights, posterior.prior.atoms):
        if w:
            total += w * policy_value(m, policy)
    return total


def canonical_gap(posterior: Posterior, Pi, tables: "PriorTables | None" = None):
    """Best conditional value inside Pi minus best outside it.

    Pi is a collection of MarkovPolicy or encodings; must be a nonempty
    strict subset of the enumerated policy space. Exact posteriors compare
    integer conditional values and return the gap as a Fraction.
    """
    if posterior.exact:
        vals, den = exact_policy_values(posterior)
    else:
        S, A, H = posterior.prior.shape
        policies = tables.policies if tables is not None else enumerate_policies(S, A, H)
        vals, den = [conditional_value(posterior, p, tables) for p in policies], None
    enc = policy_encodings(Pi)
    inside = [v for j, v in enumerate(vals) if j in enc]
    outside = [v for j, v in enumerate(vals) if j not in enc]
    if not inside or not outside:
        raise DegenerateSplit("gap needs a nonempty strict subset of policies")
    gap = max(inside) - max(outside)
    return gap if den is None else Fraction(gap, den)


def policy_encodings(Pi) -> frozenset:
    """Canonical encodings of a collection of MarkovPolicy objects or ints."""
    return frozenset(p.encoding if isinstance(p, MarkovPolicy) else int(p) for p in Pi)


GREEDY_TIE_TOL = 1e-9


def bayes_greedy(posterior: Posterior, tables: "PriorTables | None" = None) -> MarkovPolicy:
    """argmax of conditional value; ties broken by smallest encoding.

    Exact posteriors compare integer conditional values exactly. Float
    paths treat values within GREEDY_TIE_TOL (relative) of the max as
    tied, so that mathematically tied policies resolve to the same
    canonical winner regardless of summation order.
    """
    if posterior.exact:
        vals, _ = exact_policy_values(posterior)
        return exact_lattice(posterior.prior).policies[vals.index(max(vals))]
    if tables is not None:
        vals = posterior.weights @ tables.value_matrix
        policies = tables.policies
    else:
        policies = enumerate_policies(*posterior.prior.shape)
        vals = np.array([conditional_value(posterior, p) for p in policies])
    vmax = float(vals.max())
    tol = GREEDY_TIE_TOL * (1.0 + abs(vmax))
    return policies[int(np.flatnonzero(vals >= vmax - tol)[0])]


def greedy_set(posterior: Posterior) -> frozenset:
    """Encodings of every exact maximizer of an exact posterior's conditional value."""
    vals, _ = exact_policy_values(posterior)
    best = max(vals)
    return frozenset(j for j, v in enumerate(vals) if v == best)


class PriorTables:
    """numpy caches over a prior's atoms for the simulation fast paths.

    Arrays: value_matrix (n_atoms, n_policies); init (n, S);
    trans (n, S, A, H, S); and per-support reward log-masses for
    likelihood accumulation.
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

    def policy_col(self, policy: MarkovPolicy) -> int:
        return self._policy_col[policy.encoding]

    def exact_value(self, atom_index: int, policy: MarkovPolicy) -> Fraction:
        """policy_value(atom, policy, exact=True), read off the prior's lattice."""
        lattice = exact_lattice(self.prior)
        return Fraction(lattice.value_cols[policy.encoding][atom_index], lattice.value_den)

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
    """The prior's PriorTables, built once and kept on the prior."""
    if "tables" not in prior._cache:
        prior._cache["tables"] = PriorTables(prior)
    return prior._cache["tables"]


def low_reward_table(prior: DiscretePrior, eps) -> np.ndarray:
    """(n, S, A, H) booleans: the atom's mean reward at the triple is
    <= eps, compared exactly. Built once per eps and kept on the prior."""
    eps = as_fraction(eps)
    key = ("low_reward", eps)
    if key not in prior._cache:
        S, A, H = prior.shape
        prior._cache[key] = np.array([
            [[[m.mean_reward(x, a, h) <= eps for h in range(1, H + 1)]
              for a in range(1, A + 1)] for x in range(1, S + 1)]
            for m in prior.atoms
        ], dtype=bool)
    return prior._cache[key]


def _over_common_den(fracs) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator."""
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


class ExactLattice:
    """A prior's exact masses and policy values as Python ints.

    - ``weights[i]``: prior weight numerators over their common denominator.
    - ``columns[feature][i]``: atom i's mass of a count-signature feature
      (``ledgers.count_signature``) over one per-prior denominator ``den``:
      every init, transition and reward mass of every atom.
    - ``value_cols[j][i]``: policy_value(atom i, policy with encoding j)
      over ``value_den``, filled by one integer backward DP per policy,
      vectorized over atoms.

    Products and sums of masses then stay integers, with no gcd
    normalization per operation; callers convert to Fraction once, at the
    boundary. Built on first exact use (``exact_lattice``), never by
    PriorTables or the float run path.
    """

    def __init__(self, prior: DiscretePrior):
        S, A, H = prior.shape
        self.n = prior.n
        self.policies = enumerate_policies(S, A, H)
        self.weights, _ = _over_common_den(prior.weights)
        triples = [(x, a, h) for x in range(1, S + 1) for a in range(1, A + 1)
                   for h in range(1, H + 1)]
        masses = {("init", x): [m.init[x - 1] for m in prior.atoms] for x in range(1, S + 1)}
        for t in triples:
            for y in range(1, S + 1):
                masses[("trans", *t, y)] = [m.transition(*t)[y - 1] for m in prior.atoms]
            for v in prior.atoms[0].reward_support:
                masses[("reward", *t, v)] = [m.reward_dist(*t).mass(v) for m in prior.atoms]
        flat, self.den = _over_common_den([p for col in masses.values() for p in col])
        self.columns = {f: tuple(flat[k * self.n:(k + 1) * self.n])
                        for k, f in enumerate(masses)}
        flat, mean_den = _over_common_den([m.mean_reward(*t) for t in triples
                                           for m in prior.atoms])
        means = {t: flat[k * self.n:(k + 1) * self.n] for k, t in enumerate(triples)}
        self.value_den = mean_den * self.den ** H
        self.value_cols = [self._values(pol, means, H) for pol in self.policies]

    def _values(self, policy: MarkovPolicy, means: dict, H: int) -> tuple:
        """policy_value(atom, policy) over value_den for every atom: one
        integer backward DP over stages, vectorized over atoms. The
        value-to-go from stage h is over mean_den * den^(H-h)."""
        S = len(policy.actions)
        col = self.columns
        togo = [[0] * self.n for _ in range(S)]
        for h in range(H, 0, -1):
            nxt = []
            for x in range(1, S + 1):
                a = policy.action(x, h)
                scale = self.den ** (H - h)
                v = [r * scale for r in means[(x, a, h)]]
                for y in range(1, S + 1) if h < H else ():
                    row = col[("trans", x, a, h, y)]
                    v = [acc + p * g for acc, p, g in zip(v, row, togo[y - 1])]
                nxt.append(v)
            togo = nxt
        out = [0] * self.n
        for x in range(1, S + 1):
            out = [acc + p * g for acc, p, g in zip(out, col[("init", x)], togo[x - 1])]
        return tuple(out)

    def masses(self, base: list, signature) -> list:
        """Per atom: base[i] times the atom's mass numerators raised to the
        signature's counts. The result is over base's denominator times
        den ** (total count)."""
        out = list(base)
        for feature, count in signature:
            col = self.columns.get(feature)
            if col is None:  # a reward value outside the support: mass 0
                return [0] * self.n
            if count == 1:
                out = [o * c for o, c in zip(out, col)]
            else:
                out = [o * c ** count for o, c in zip(out, col)]
        return out

    def policy_value(self, nums, encoding: int) -> int:
        """sum_i nums[i] * value of the policy under atom i."""
        return sum(map(operator.mul, nums, self.value_cols[encoding]))

    def policy_values(self, nums) -> list[int]:
        """policy_value for every policy, in encoding order."""
        return [sum(map(operator.mul, nums, col)) for col in self.value_cols]


def exact_lattice(prior: DiscretePrior) -> ExactLattice:
    """The prior's ExactLattice, built on first use and kept on the prior."""
    if "lattice" not in prior._cache:
        prior._cache["lattice"] = ExactLattice(prior)
    return prior._cache["lattice"]
