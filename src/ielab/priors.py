"""Finite discrete priors, exact canonical posteriors, gaps, Bayes-greedy.

All Bayesian computation is exact enumeration over a weighted finite
atom set. A prior's atoms are converted once, by its ``ExactLattice``:
one feature index (init, transition and reward features, and a zero
column for revealed rewards outside the support), the atoms' masses as
int columns in that index over one per-prior denominator, and a ledger's
count signature as sorted (feature, count) pairs. Every function that
takes a ``Ledger`` is exact and runs on the lattice, so posteriors,
conditional values and greedy choices are integer products and dot
products; the policy values are ints too, built on first use from one
forward walk per transition table and policy. The lattice also lists
each policy's trajectories once over the atoms' union support, with
every atom's path masses as ints, for the oracle's game enumeration.
A ``Posterior`` is exact: it stores its lattice masses as they come,
``(nums, den)``: ints over one positive denominator. Fractions appear
only at the boundary, in its ``weights`` view and in the values and gaps
these functions return.

Floats live only in the run loop, as plain weight arrays, never in a
``Posterior``. ``PriorTables`` (``shared_tables``) reads its float arrays
off the lattice: a log-mass matrix over the feature index from the
distinct int rows, and the value matrix from the exact policy values,
each rounded once; ``LedgerState`` holds a ledger's counts in that
index, so every float log-likelihood is one product of counts with
log-masses. ``PriorTables.posterior_from_loglik`` normalizes them into
weights, and ``PriorTables.policy_values`` and ``greedy`` are the float
value product and the float Bayes-greedy choice.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, product
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, DegenerateSplit, IncompleteEnumeration, ZeroEvidence
from .ledgers import Ledger
from .mdp import (
    TRAJECTORY_CAP,
    DiscreteDist,
    MarkovPolicy,
    Step,
    TabularModel,
    Trajectory,
    absorbing_steps,
    as_fraction,
    check_model_parts,
    check_prob_vector,
    check_reward_law,
    checked_parts_model,
    enumerate_policies,
    int_parts,
    reward_table,
    support_pairs,
    transition_table,
)
from .rng import cumulative_row

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
        check_prob_vector(self.weights, "weights must be positive",
                          "weights must sum to 1 exactly", zero_ok=False)
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
    """A prior's atoms reweighted exactly, aligned to prior.atoms.

    ``masses`` is the stored form, ``(nums, den)``: the lattice's
    nonnegative integer masses over one positive denominator, with
    sum(nums) == den. ``weights`` is its Fraction view. The run loop's
    float weights are plain arrays (``PriorTables.posterior_from_loglik``).
    """

    prior: DiscretePrior
    masses: tuple = field(compare=False)

    def __post_init__(self):
        nums, den = self.masses
        if len(nums) != self.prior.n or min(nums) < 0 or not 0 < den == sum(nums):
            raise ValueError("posterior masses must be n nonnegative ints summing to den")

    @property
    def weights(self) -> tuple:
        nums, den = self.masses
        return tuple(Fraction(v, den) for v in nums)

    def support(self) -> ModelEvent:
        """The atoms of positive weight."""
        return frozenset(i for i, w in enumerate(self.masses[0]) if w > 0)


def check_weight_sums(w: np.ndarray) -> np.ndarray:
    """Float weights ``w`` (..., n), returned once every row sums to 1
    within ``_sum_error_bound(n)``; raises ValueError otherwise. Both
    makers of float weights, ``PriorTables.posterior_from_loglik`` and
    the fully rational agent's ``_mechanism_weights_float``, check them."""
    if (abs(w.sum(axis=-1) - 1.0) > _sum_error_bound(w.shape[-1])).any():
        raise ValueError("posterior weights must sum to 1")
    return w


def _sum_error_bound(n: int) -> float:
    """Largest |fl(sum w) - 1| for n float weights normalized as v / fl(sum v).

    Every float weight vector is made that way from nonnegative v
    (``posterior_from_loglik``, the float mechanism weights). With unit
    roundoff u = 2**-53, a sum of n nonnegative floats in any order,
    numpy's pairwise one included, carries relative error at most
    gamma(n-1), gamma(k) = k u / (1 - k u), and each quotient at most u.
    So the normalizing sum, the quotients and the check's own sum together
    stay within gamma(2n - 1) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2 and Lemma 3.3). Quotients that
    underflow add at most n * 2**-1075 in all, far below the float spacing
    at this bound. A weight vector that was never normalized misses 1 by
    far more.
    """
    k = (2 * n - 1) * 2.0 ** -53
    return k / (1 - k)


def prior_as_posterior(prior: DiscretePrior) -> Posterior:
    return Posterior(prior, over_common_den(prior.weights))


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

    def _lifted(self) -> dict:
        """triple -> [(mean, prior mass, reward law)], each mean lifted once."""
        return {t: [(m, p, self._lift(m)) for m, p in zip(d.support, d.probs)]
                for t, d in self.reward_marginals.items()}

    def global_support(self, lifted: dict | None = None) -> tuple[Fraction, ...]:
        if self.reward_support is not None:
            return tuple(sorted(as_fraction(v) for v in self.reward_support))
        vals = set()
        for choices in (lifted or self._lifted()).values():
            for _, p, law in choices:
                if p > 0:
                    vals.update(v for v, q in zip(law.support, law.probs) if q > 0)
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
        """Cartesian product of transition atoms and reward assignments.

        Atoms of zero weight are left out. The checks of TabularModel run
        once per transition table and once per reward law, not per atom,
        and raise what building the atoms one by one would raise first.
        An atom's rewards field is one sub-tuple per state x, the laws of
        x's triples: each choice of those laws is combined once, and every
        atom that makes it shares that sub-tuple.
        """
        triples = sorted(self.reward_marginals)
        sizes = [len(self.reward_marginals[t].support) for t in triples]
        n = len(self.transition_atoms)
        for s in sizes:
            n *= s
        if n > cap:
            raise CapExceeded(f"factored expansion {n} exceeds cap {cap}")
        lifted = self._lifted()
        support = tuple(sorted(as_fraction(v) for v in self.global_support(lifted)))
        pairs = support_pairs(support)
        S, A, H = self.S, self.A, self.H
        # the choices an atom of positive weight can take, in product order
        choice_sets = [[(p.numerator, p.denominator, law) for _, p, law in lifted[t] if p]
                       for t in triples]
        parts = None
        atoms, weights = [], []
        for init, transitions, tw in self.transition_atoms:
            # coerced once per transition atom; its reward combinations share them
            init_t, trans = transition_table(S, A, H, init, transitions)
            tw = as_fraction(tw)
            if not tw:
                continue
            first = reward_table(S, A, H, {t: c[0][2] for t, c in zip(triples, choice_sets)})
            check_model_parts(S, A, H, init_t, trans, first, support)
            if parts is None:
                # the first atom to fail varies the last triple with a
                # failing law, at its first failing choice
                for choices in reversed(choice_sets):
                    for _, _, law in choices[1:]:
                        check_reward_law(law, pairs)
                parts = self._reward_parts(triples, choice_sets)
            for combo in product(*parts):
                num, den = tw.numerator, tw.denominator
                for p_num, p_den, _ in combo:
                    num *= p_num
                    den *= p_den
                # a marginal of a state outside 1..S multiplies the atoms
                # but has no sub-tuple, as reward_table ignores it
                rewards = tuple([sub for _, _, sub in combo if sub is not None])
                atoms.append(checked_parts_model(S, A, H, init_t, trans, rewards, support))
                weights.append(Fraction(num, den))
        return DiscretePrior(tuple(atoms), tuple(weights))

    def _reward_parts(self, triples: list, choice_sets: list) -> list:
        """Per state x of the sorted triples, every choice of laws for x's
        triples in product order, as (num, den, sub): the choice's prior
        mass num / den and its sub-tuple of laws at [a-1][h-1]. The states
        in order and their choices in product order are the product over
        all triples in its order."""
        parts = []
        for x, ks in groupby(range(len(triples)), key=lambda k: triples[k][0]):
            ks = list(ks)
            at = {triples[k]: j for j, k in enumerate(ks)}
            part = []
            for combo in product(*(choice_sets[k] for k in ks)):
                num, den = math.prod(c[0] for c in combo), math.prod(c[1] for c in combo)
                sub = tuple(tuple(combo[at[x, a, h]][2] for h in range(1, self.H + 1))
                            for a in range(1, self.A + 1)) if 1 <= x <= self.S else None
                part.append((num, den, sub))
            parts.append(part)
        return parts


def f_min(prior, eps) -> Fraction:
    """min over (x,a,h) of Pr_{mu ~ prior}[mean reward <= eps]."""
    if isinstance(prior, FactoredRewardPrior):
        return prior.f_min(eps)
    if as_fraction(eps) < 0:
        raise ValueError("eps must be >= 0")
    low = low_reward_table(prior, eps).reshape(prior.n, -1)
    return min(sum(w for w, is_low in zip(prior.weights, col) if is_low) for col in low.T)


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
) -> Posterior:
    """Exact posterior treating the ledger's policies and censor set as fixed.

    Atom weight is proportional to prior weight times the canonical
    ledger mass under the atom, restricted to the event: the lattice's
    integer masses raised to the ledger's count signature, stored as they
    are over their sum. Raises ZeroEvidence when the conditioning is
    impossible.
    """
    lattice = exact_lattice(prior)
    base = lattice.weights
    if event is not None:
        base = [w if i in event else 0 for i, w in enumerate(base)]
    raw = lattice.masses(base, lattice.count_signature(ledger))
    total = sum(raw)
    if not total:
        raise ZeroEvidence(
            f"ledger/event inconsistent with the prior "
            f"(|entries|={len(ledger)}, |event|={prior.n if event is None else len(event)})"
        )
    return Posterior(prior, (raw, total))


def policy_values(posterior: Posterior) -> tuple[list[int], int]:
    """(vals, den): the conditional value of every policy, in encoding
    order, as ints on the posterior's lattice over one positive
    denominator."""
    lattice = exact_lattice(posterior.prior)
    nums, den = posterior.masses
    return lattice.policy_values(nums), den * lattice.value_den


def conditional_value(posterior: Posterior, policy: MarkovPolicy) -> Fraction:
    """E over posterior atoms of policy_value(atom, policy): the policy's
    entry of the posterior's policy values."""
    vals, den = policy_values(posterior)
    return Fraction(vals[policy.encoding], den)


def canonical_gap(posterior: Posterior, Pi) -> Fraction:
    """Best conditional value inside Pi minus best outside it.

    Pi is a collection of MarkovPolicy or encodings; must be a nonempty
    strict subset of the enumerated policy space. Compares integer
    conditional values and returns the gap as a Fraction.
    """
    vals, den = policy_values(posterior)
    enc = policy_encodings(Pi)
    inside = np.array([j in enc for j in range(len(vals))])
    if inside.all() or not inside.any():
        raise DegenerateSplit("gap needs a nonempty strict subset of policies")
    return Fraction(split_gap(np.array(vals, dtype=object), inside), den)


def split_gap(vals: np.ndarray, inside: np.ndarray):
    """The best of the policy values ``vals`` where the boolean mask
    ``inside`` holds minus the best where it does not, for one row of
    values or per row of a stack of values and masks. A maximum only
    selects, so each row's gap is its one-row result; object arrays of
    ints stay exact."""
    return (np.max(vals, axis=-1, where=inside, initial=-np.inf)
            - np.max(vals, axis=-1, where=~inside, initial=-np.inf))


def policy_encodings(Pi) -> frozenset:
    """Canonical encodings of a collection of MarkovPolicy objects or ints."""
    return frozenset(p.encoding if isinstance(p, MarkovPolicy) else int(p) for p in Pi)


# The float greedy's tie tolerance (``PriorTables.greedy``). It stays
# because the float values are rounded: policies whose exact values tie
# can differ in their last bits, and an exact comparison would then pick
# by rounding, not by the smallest encoding. Replacing it with an exact
# check of the near-ties is ROADMAP item 2.
GREEDY_TIE_TOL = 1e-9


def bayes_greedy(posterior: Posterior) -> MarkovPolicy:
    """argmax of conditional value, compared exactly on the lattice's
    ints; ties broken by smallest encoding."""
    vals, _ = policy_values(posterior)
    return exact_lattice(posterior.prior).policies[vals.index(max(vals))]


def greedy_set(posterior: Posterior) -> frozenset:
    """Encodings of every exact maximizer of an exact posterior's conditional value."""
    vals, _ = policy_values(posterior)
    best = max(vals)
    return frozenset(j for j, v in enumerate(vals) if v == best)


class PriorTables:
    """numpy arrays over a prior's atoms: the float posterior route.

    Arrays: per feature of the lattice's index and atom, ``zero_mass``
    (F, n), whether the mass is 0, and ``log_mass``, its log where it is
    positive and 0 where it is 0; per support value the reward draw rows
    (``rng.cumulative_row``, one per distinct law), with ``reward_point``
    (n, S, A, H), the one support position of a law that is a point mass
    and -1 elsewhere; and ``value_matrix`` (n_atoms, n_policies), built on
    first use. All are read off the prior's ExactLattice, each number one
    ``int / den`` of the lattice's ints (each distinct row converts once),
    which is correctly rounded: the float nearest the atom's own Fraction,
    within half an ulp of it. ``weights`` holds the float of each prior
    weight, for the run's truth draw. Every array that is a product
    operand (``log_mass`` and ``zero_mass``, their init-and-transition
    rows and their reward rows, ``value_matrix``) is C-contiguous, so
    numpy hands each product to BLAS: on a strided operand it falls back
    to its own slower loop, with other last bits.
    """

    def __init__(self, prior: DiscretePrior):
        self.prior = prior
        S, A, H = self.S, self.A, self.H = prior.shape
        lattice = self.lattice = exact_lattice(prior)
        self.policies, self.support = lattice.policies, lattice.support
        n, den = prior.n, lattice.den
        vecs = np.array([[p / den for p in row] for row in lattice.vec_rows])[lattice.vec_ix]
        laws = np.array(lattice.law_ix).reshape(n, S, A, H)
        law_rows = [[p / den for p in row] for row in lattice.law_rows]
        # the feature index: init, transitions, rewards, the zero column;
        # C order, so that every product operand sliced off it is too
        mass = np.ascontiguousarray(np.concatenate(
            [vecs[:n].T, vecs[n:].reshape(n, -1).T,
             np.array(law_rows)[laws].reshape(n, -1).T, np.zeros((1, n))]))
        self.zero_mass = mass == 0
        self.log_mass = np.log(np.where(self.zero_mass, 1.0, mass))
        # entry_translog's rows (init, transitions, zero column), reward_loglik's
        path, start = np.r_[:lattice.reward_start, -1], lattice.reward_start
        zero = self.zero_mass.astype(float)
        self._path = path, self.log_mass[path], zero[path]
        self._rewards = self.log_mass[start:-1], zero[start:-1]
        self.reward_cum = np.array([cumulative_row(row) for row in law_rows])[laws]
        positive = [[k for k, m in enumerate(row) if m] for row in lattice.law_rows]
        self.reward_point = np.array([ks[0] if len(ks) == 1 else -1 for ks in positive])[laws]
        self.weights = np.array([float(w) for w in prior.weights])
        self.log_weights = np.log(self.weights)

    @functools.cached_property
    def value_matrix(self) -> np.ndarray:
        """policy_value(atom i, policy j) at [i, j], C-contiguous float64:
        the lattice's exact value ints, each rounded once, so every entry
        is within half an ulp of the exact value: an object array divides
        each Python int by value_den with int's true division."""
        ints = np.array(self.lattice.value_cols, dtype=object)
        return np.ascontiguousarray((ints / self.lattice.value_den).astype(float).T)

    def exact_value(self, atom_index: int, policy: MarkovPolicy) -> Fraction:
        """policy_value(atom, policy), read off the prior's lattice."""
        lattice = self.lattice
        return Fraction(lattice.value_cols[policy.encoding][atom_index], lattice.value_den)

    def entry_translog(self, counts: np.ndarray) -> np.ndarray:
        """log init+path mass per atom of the entries whose feature counts
        are ``counts`` (F,), or per row of a stack of them: (..., n). A
        revealed reward outside the support, counted in the zero column,
        gives -inf under every atom, as in the exact route."""
        path, log_mass, zero = self._path
        return _loglik(counts[..., path], log_mass, zero)

    def reward_loglik(self, counts: np.ndarray) -> np.ndarray:
        """Per-atom log reward mass for revealed-reward counts (S, A, H, V),
        or per row of a stack of them: (..., n)."""
        return _loglik(counts.reshape(counts.shape[:-4] + (-1,)), *self._rewards)

    def event_mask(self, event: ModelEvent) -> np.ndarray:
        """The event as a boolean vector over the atoms."""
        mask = np.zeros(self.prior.n, dtype=bool)
        mask[list(event)] = True
        return mask

    def posterior_from_loglik(self, loglik: np.ndarray, mask=None) -> np.ndarray:
        """Normalize prior-weighted log-likelihoods into float posterior
        weights (n,), restricted to ``mask`` when one is given, with the
        sum check; a stack of log-likelihood rows (and masks, which
        broadcast against them) gives a stack of weights, each row
        normalized as it would be alone."""
        ll = self.log_weights + loglik
        if mask is not None:
            ll = np.where(mask, ll, -np.inf)
        top = ll.max(axis=-1, keepdims=True)
        if top.min() == -np.inf:
            raise ZeroEvidence("all atoms have zero likelihood")
        w = np.exp(np.subtract(ll, top, out=ll), out=ll)
        w /= w.sum(axis=-1, keepdims=True)
        return check_weight_sums(w)

    def policy_values(self, w: np.ndarray) -> np.ndarray:
        """The conditional value of every policy, in encoding order, under
        float weights ``w`` (n,), or per row of a stack of them: (..., P),
        the stacked (..., 1, n) @ (n, P) product with the value matrix,
        whose rows' bits do not depend on the other rows, where a plain
        (R, n) @ (n, P) product's would."""
        return (w[..., None, :] @ self.value_matrix)[..., 0, :]

    def greedy(self, w: np.ndarray):
        """The float Bayes-greedy policy under weights ``w`` (n,): values
        within GREEDY_TIE_TOL (relative) of the max count as tied, so that
        exactly tied policies resolve to the smallest encoding whatever
        the summation order. A stack of weights gives the list of its
        rows' choices, its leading axes flattened, each from its row's
        ``policy_values``."""
        vals = self.policy_values(w)
        vmax = vals.max(axis=-1, keepdims=True)
        tol = GREEDY_TIE_TOL * (1.0 + abs(vmax))
        best = (vals >= vmax - tol).argmax(axis=-1)  # the first index within tol of the max
        if best.ndim == 0:
            return self.policies[int(best)]
        return [self.policies[j] for j in best.ravel().tolist()]


class LedgerState:
    """A ledger's float-route state: ``counts`` (F,), its count vector in
    the lattice's feature index (its ``count_signature``, dense), and
    ``translog``, its entries' log init+path mass, ``entry_translog`` of
    the counts, taken at each push. Beside them, per-triple visit counts,
    which count censored steps too, and the flat triple of every
    occurrence in entry order, which the hallucinated-reward draw reads.

    ``LedgerState(tables, rows)`` is a stack of ``rows`` ledgers that grow
    in lockstep, one entry per ledger at a time: every array gains a
    leading axis of rows, and ``row(r)`` is ledger r alone, on the same
    memory. Each ledger's numbers are bit for bit what it would hold alone.
    """

    def __init__(self, tables: PriorTables, rows: int | None = None):
        self.tables = tables
        S, A, H = tables.S, tables.A, tables.H
        lead = () if rows is None else (rows,)
        self.counts = np.zeros(lead + (len(tables.log_mass),), dtype=int)
        self.translog = tables.entry_translog(self.counts)
        # entries visiting each (x, a, h): a trajectory visits each stage
        # once, so these are also its occurrence counts
        self.visits = np.zeros(lead + (S, A, H), dtype=int)
        # (x-1, a-1, h-1) as one index into an (S, A, H) array; the buffer
        # doubles when full, and occurrences() is its filled prefix
        self._occ = np.empty(lead + (4 * H,), dtype=np.intp)
        self._n_occ = 0

    def row(self, r: int) -> LedgerState:
        """Ledger r of a stack, as a one-ledger state viewing its arrays."""
        one = object.__new__(LedgerState)
        one.tables, one._n_occ = self.tables, self._n_occ
        one.counts, one.translog = self.counts[r], self.translog[r]
        one.visits, one._occ = self.visits[r], self._occ[r]
        return one

    def snapshot(self) -> LedgerState:
        """The state as it stands, on arrays that later pushes leave
        alone: its own counts, translog and visits, and the occurrence
        buffer's filled prefix, which a push never writes into."""
        one = object.__new__(LedgerState)
        one.tables, one._occ, one._n_occ = self.tables, self._occ, self._n_occ
        one.counts, one.translog = self.counts.copy(), self.translog.copy()
        one.visits = self.visits.copy()
        return one

    def keep(self, rows: list) -> None:
        """Drop every ledger of a stack but ``rows``, in that order."""
        self.counts, self.translog = self.counts[rows], self.translog[rows]
        self.visits, self._occ = self.visits[rows], self._occ[rows]

    @property
    def reward_counts(self) -> np.ndarray:
        """The reward features of ``counts`` as (..., S, A, H, V), a view."""
        t = self.tables
        return self.counts[..., t.lattice.reward_start:-1].reshape(
            self.counts.shape[:-1] + (t.S, t.A, t.H, len(t.support)))

    def push_entry(self, traj) -> None:
        """Add one entry's trajectory to a one-ledger state."""
        self.push_entries([traj.steps])

    def push_entries(self, steps: list) -> None:
        """Add one entry per ledger, ``steps[r]`` the trajectory steps of
        ledger r, all of one length (one ledger: a list of one), by the
        feature walk of ``count_signature``."""
        walk, F = self.tables.lattice.entry_features, self.counts.shape[-1]
        feats, ts = [], []
        for r, row in enumerate(steps):
            f, t = walk(row)
            feats += [r * F + i for i in f]
            ts.append(t)
        # a feature can repeat within an entry (the zero column)
        self.counts += np.bincount(feats, minlength=self.counts.size).reshape(self.counts.shape)
        self.translog[...] = self.tables.entry_translog(self.counts)
        t = np.array(ts)
        R, L = t.shape
        self.visits.reshape(R, -1)[np.arange(R)[:, None], t] += 1
        n = self._n_occ
        if n + L > self._occ.shape[-1]:
            self._occ = np.concatenate([self._occ, np.empty_like(self._occ)], axis=-1)
        self._occ.reshape(R, -1)[:, n:n + L] = t
        self._n_occ = n + L

    def occurrences(self) -> np.ndarray:
        return self._occ[..., :self._n_occ]

    def posteriors(self, masks: np.ndarray) -> np.ndarray:
        """The weights of the canonical posterior of the entries'
        transitions alone (the censored ledger's) restricted to each of
        ``masks`` (2, ..., n), stacked in that order: the caller keeps
        ``masks[0]`` all true, for the censored posterior itself, and
        ``masks[1]`` the punish event, for the hallucination posterior, so
        no phase builds the pair afresh. Both normalize the one sum of the
        prior's log weights and ``translog``, in one stacked
        normalization."""
        return self.tables.posterior_from_loglik(self.translog, masks)

    def revealed_weights(self, counts: np.ndarray) -> np.ndarray:
        """The canonical posterior weights of the entries with the
        revealed-reward ``counts``; counts stacked on leading axes before
        a stack's rows give one row of weights per stacked count."""
        ll = self.translog + self.tables.reward_loglik(counts)
        return self.tables.posterior_from_loglik(ll)


def _loglik(counts: np.ndarray, log_mass: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Per row of ``counts`` (..., K), sum_f count_f log mass_f for every
    atom, (..., n): the stacked (..., 1, K) @ (K, n) product, whose rows'
    bits do not depend on the other rows. A zero mass's log is held as 0,
    so a count of 0 never meets -inf; ``counts @ zero > 0`` (zero is 1.0
    at a zero mass; exact) is the -inf mask ``(counts > 0) @ zero_mass``."""
    counts = counts.astype(float)
    out = (counts[..., None, :] @ log_mass)[..., 0, :]
    return np.where(counts @ zero > 0, -np.inf, out)


def shared_tables(prior: DiscretePrior) -> PriorTables:
    """The prior's PriorTables, built once and kept on the prior."""
    if "tables" not in prior._cache:
        prior._cache["tables"] = PriorTables(prior)
    return prior._cache["tables"]


def low_reward_table(prior: DiscretePrior, eps) -> np.ndarray:
    """(n, S, A, H) booleans: the atom's mean reward at the triple is
    <= eps, compared exactly on the lattice's int means, once per distinct
    reward law. Built once per eps and kept on the prior."""
    eps = as_fraction(eps)
    key = ("low_reward", eps)
    if key not in prior._cache:
        lattice = exact_lattice(prior)
        low = [m * eps.denominator <= eps.numerator * lattice.mean_den
               for m in lattice.law_means]
        prior._cache[key] = np.array(low)[lattice.law_ix].reshape(prior.n, *prior.shape)
    return prior._cache[key]


def over_common_den(fracs) -> tuple[list[int], int]:
    """Rationals as ints over their least common denominator: (ints, den)."""
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


class LatticePaths(NamedTuple):
    """Every trajectory of one policy with positive mass under some atom.

    ``masses[k][i]`` is the mass of ``trajectories[k]`` under atom i over
    ``den``; ``of_atom[i]`` lists the k with positive mass under atom i,
    in the order ``mdp.enumerate_trajectories`` yields them for the atom.
    """

    trajectories: list
    masses: list
    den: int
    of_atom: list


class ExactLattice:
    """A prior's atoms converted once: its feature index, and its masses
    and policy values as Python ints.

    - ``weights[i]``: prior weights as ints over their common denominator.
    - The distinct rows. Expanded priors share init vectors, transition
      tables and per-x reward sub-tuples between atoms, so each distinct
      table and sub-tuple is walked once and each distinct row and law
      converted once: ``vec_rows`` holds the init vectors and transition
      rows and ``law_rows`` each law's masses at the support values, as
      ints over one per-prior denominator ``den``, and ``law_means`` the
      laws' mean rewards over ``mean_den``. ``vec_ix`` gives each atom's
      init row, then every atom's transition rows in the C order of
      (x, a, h); ``law_ix`` gives every atom's laws in the same order.
    - The feature index: init x, then transition (x, a, h, y) in the C
      order of ``LedgerState``'s flat triple index, then reward
      (x, a, h, support position) in the layout of
      ``LedgerState.reward_counts``, then one all-zero column for any
      revealed reward outside the support: ``n_features`` in all.
      ``columns[f][i]`` is atom i's mass of feature f over ``den``, built
      on first use; ``entry_features`` is the one walk from an entry's
      steps to its features, ``count_signature`` turns a ledger into
      (feature, count) pairs with it and ``masses`` raises the columns to
      them.
    - ``value_cols[j][i]``: policy_value(atom i, policy with encoding j)
      over ``value_den``, filled on first use: per transition table (by
      ``transition_key``) and policy, one ``mdp.absorbing_steps`` walk's
      visit masses times the mean rewards of each distinct per-x reward
      sub-tuple among the table's atoms. They are the
      exact route's values and, rounded once, ``PriorTables``'
      ``value_matrix``; the float route never builds ``columns``.
    - ``paths(policy)``: the policy's trajectories over the atoms' union
      support with their masses over den ** (2H), built on first use.

    Products and sums of masses then stay integers, with no gcd
    normalization per operation; callers convert to Fraction once, at the
    boundary. Built once per prior (``exact_lattice``), also by
    ``PriorTables``, which reads its float arrays off it.
    """

    def __init__(self, prior: DiscretePrior):
        S, A, H = prior.shape
        self.n = prior.n
        self.S, self.A, self.H = S, A, H
        self.support = prior.atoms[0].reward_support
        # support positions by (numerator, denominator): int hashes, not Fraction ones
        self.support_ix = {(v.numerator, v.denominator): k for k, v in enumerate(self.support)}
        self.weights, _ = over_common_den(prior.weights)
        atoms = self._atoms = prior.atoms
        # each distinct transition table and per-x reward sub-tuple is
        # walked once; the atoms that share it repeat its positions
        tables, table_ix = _distinct([m.trans for m in atoms])
        vecs, ix = _distinct([m.init for m in atoms] + [
            vec for table in tables for by_a in table for by_h in by_a for vec in by_h])
        self.vec_ix = ix[:self.n] + _repeat(ix[self.n:], table_ix, S * A * H)
        subs, sub_ix = _distinct([sub for m in atoms for sub in m.rewards])
        laws, ix = _distinct([d for sub in subs for by_h in sub for d in by_h])
        self.law_ix = _repeat(ix, sub_ix, A * H)
        self._sub_ix, self._sub_laws = sub_ix, ix
        masses = [[d.mass(v) for v in self.support] for d in laws]
        flat, self.den = over_common_den([p for row in vecs + masses for p in row])
        flat = iter(flat)
        self.vec_rows = [[next(flat) for _ in row] for row in vecs]
        self.law_rows = [[next(flat) for _ in row] for row in masses]
        self.law_means, self.mean_den = over_common_den([d.mean() for d in laws])
        self.value_den = self.mean_den * self.den ** H
        self.reward_start = S + S * A * H * S
        self.n_features = self.reward_start + S * A * H * len(self.support) + 1
        self._paths: dict = {}

    def _triple(self, x: int, a: int, h: int) -> int:
        """The flat index of (x, a, h): C order over (S, A, H)."""
        return ((x - 1) * self.A + a - 1) * self.H + h - 1

    def transition_key(self, atom: int) -> tuple:
        """The atom's init vector and transition rows as their positions
        among the distinct rows: atoms with one key share one transition
        table."""
        n, T = self.n, self.S * self.A * self.H
        return (self.vec_ix[atom], *self.vec_ix[n + atom * T:n + (atom + 1) * T])

    def table_members(self) -> list[list[int]]:
        """The atoms of each distinct transition table (by
        ``transition_key``), in first-seen order."""
        tables: dict = {}
        for i in range(self.n):
            tables.setdefault(self.transition_key(i), []).append(i)
        return list(tables.values())

    def trans_feature(self, x: int, a: int, h: int, y: int) -> int:
        """The feature of the transition from (x, a, h) to state y."""
        return self.S * (self._triple(x, a, h) + 1) + y - 1

    def reward_features(self, x: int, a: int, h: int) -> range:
        """The reward features of (x, a, h), one per support value, in order."""
        V = len(self.support)
        start = self.reward_start + self._triple(x, a, h) * V
        return range(start, start + V)

    def entry_features(self, steps) -> tuple[list[int], list[int]]:
        """One entry's features, and the flat triple of each of its steps:
        its initial state, a transition per later step, and per revealed
        reward its reward feature, or the zero column when the value is
        outside the support (a censored reward, None, has none)."""
        S, A, H, V = self.S, self.A, self.H, len(self.support)
        zero, find = self.n_features - 1, self.support_ix.get
        feats, triples = [steps[0].x - 1], []
        for s in steps:
            t = ((s.x - 1) * A + s.a - 1) * H + s.h - 1
            if triples:
                feats.append(S * (triples[-1] + 1) + s.x - 1)
            if s.r is not None:
                k = find((s.r.numerator, s.r.denominator))
                feats.append(zero if k is None else self.reward_start + t * V + k)
            triples.append(t)
        return feats, triples

    def count_signature(self, ledger: Ledger) -> tuple:
        """The ledger's canonical mass as counts: sorted (feature, count) pairs.

        ledger_probability is the product over the pairs of the atom's
        column entry raised to the count, over den ** (total count), so
        every canonical posterior depends on a ledger only through this
        signature.
        """
        counts: dict = {}
        for _, traj in ledger.entries:
            for f in self.entry_features(traj.steps)[0]:
                counts[f] = counts.get(f, 0) + 1
        return tuple(sorted(counts.items()))

    @functools.cached_property
    def columns(self) -> list[tuple]:
        """Built on first use, by the exact route's masses and paths."""
        n, T, vec_ix, law_ix = self.n, self.S * self.A * self.H, self.vec_ix, self.law_ix
        # zip(*rows) turns the atoms' rows into one column per entry
        columns = list(zip(*[self.vec_rows[j] for j in vec_ix[:n]]))
        for t in range(T):
            columns.extend(zip(*[self.vec_rows[j] for j in vec_ix[n + t::T]]))
        for t in range(T):
            columns.extend(zip(*[self.law_rows[j] for j in law_ix[t::T]]))
        columns.append((0,) * n)
        return columns

    @functools.cached_property
    def policies(self) -> list[MarkovPolicy]:
        """Every policy in encoding order, enumerated on first use, so a
        prior whose policy space exceeds the cap still has a lattice."""
        return enumerate_policies(self.S, self.A, self.H)

    @functools.cached_property
    def value_cols(self) -> list[tuple]:
        """Built on first use: by the exact route's policy values, and by
        the float route's ``PriorTables.value_matrix``. A policy's value
        under an atom is the sum over its steps of the step's visit mass
        times the atom's mean reward there. The visit masses depend only
        on the transition table, so each table and policy takes one
        ``mdp.absorbing_steps`` walk, with nothing absorbing; the steps
        at state x then meet only the atom's reward sub-tuple of x, so
        their sum is taken once per distinct sub-tuple, and each atom's
        value adds up its S sub-tuples' sums."""
        S, AH, H = self.S, self.A * self.H, self.H
        # per distinct reward sub-tuple: its laws' means, in (a, h) order
        laws = self._sub_laws
        sub_means = [[self.law_means[j] for j in laws[k:k + AH]]
                     for k in range(0, len(laws), AH)]
        cols = [[0] * self.n for _ in self.policies]
        for members in self.table_members():
            model = self._atoms[members[0]]
            # the walk's masses are over the table's own den ** H; that den
            # divides the lattice's, the lcm over every row
            scale = (self.den // int_parts(model)[0]) ** H
            # per x: each member's position among the distinct sub-tuples
            # of x, and their means per (a, h) position
            pos, means = [], []
            for x in range(S):
                first: dict = {}
                pos.append([first.setdefault(self._sub_ix[i * S + x], len(first))
                            for i in members])
                means.append([[sub_means[k][t] for k in first] for t in range(AH)])
            for pol, out in zip(self.policies, cols):
                # per x: each distinct sub-tuple's sum
                sums = [[0] * len(x_means[0]) for x_means in means]
                for x, a, h, mass in absorbing_steps(model, pol, frozenset())[0]:
                    terms = map((mass * scale).__mul__, means[x - 1][(a - 1) * H + h - 1])
                    sums[x - 1] = list(map(operator.add, sums[x - 1], terms))
                # each member's value: its S sub-tuples' sums
                values = [0] * len(members)
                for x_sums, x_pos in zip(sums, pos):
                    if any(x_sums):  # an all-zero x, one the policy never visits, adds nothing
                        values = list(map(operator.add, values, map(x_sums.__getitem__, x_pos)))
                for i, v in zip(members, values):
                    out[i] = v
        return [tuple(out) for out in cols]

    def paths(self, policy: MarkovPolicy) -> LatticePaths:
        """The policy's LatticePaths, built on first use and kept.

        One depth-first walk in the order and with the zero-mass skips of
        ``mdp.enumerate_trajectories``, multiplying init, reward and
        transition columns over all atoms at once. Raises CapExceeded past
        TRAJECTORY_CAP trajectories, and IncompleteEnumeration unless every
        atom's masses sum to exactly den ** (2H).
        """
        if policy.encoding not in self._paths:
            self._paths[policy.encoding] = self._build_paths(policy)
        return self._paths[policy.encoding]

    def _build_paths(self, policy: MarkovPolicy) -> LatticePaths:
        col, S, H = self.columns, self.S, self.H
        trajectories, masses = [], []

        def rec(h: int, x: int, mass: list, steps: list):
            a = policy.action(x, h)
            for v, f in zip(self.support, self.reward_features(x, a, h)):
                m1 = [p * r for p, r in zip(mass, col[f])]
                if not any(m1):
                    continue
                new_steps = steps + [Step(x, a, h, v)]
                if h == H:
                    if len(trajectories) >= TRAJECTORY_CAP:
                        raise CapExceeded(
                            f"trajectory enumeration exceeds cap {TRAJECTORY_CAP}")
                    trajectories.append(Trajectory(tuple(new_steps)))
                    masses.append(tuple(m1))
                    continue
                for y in range(1, S + 1):
                    m2 = [p * t for p, t in zip(m1, col[self.trans_feature(x, a, h, y)])]
                    if any(m2):
                        rec(h + 1, y, m2, new_steps)

        for x in range(S):
            if any(col[x]):
                rec(1, x + 1, col[x], [])
        den = self.den ** (2 * H)
        totals = [sum(c) for c in zip(*masses)] or [0] * self.n
        bad = [i for i, t in enumerate(totals) if t != den]
        if bad:
            raise IncompleteEnumeration(
                f"trajectories of policy {policy.encoding} carry mass "
                f"{Fraction(totals[bad[0]], den)} under atom {bad[0]} "
                f"({len(bad)} atoms off 1)")
        of_atom = [[] for _ in range(self.n)]
        for k, ms in enumerate(masses):
            for i, m in enumerate(ms):
                if m:
                    of_atom[i].append(k)
        return LatticePaths(trajectories, masses, den, of_atom)

    def masses(self, base: list, signature) -> list:
        """Per atom: base[i] times the atom's integer masses raised to the
        signature's counts. The result is over base's denominator times
        den ** (total count)."""
        out = list(base)
        for feature, count in signature:
            col = self.columns[feature]
            if count == 1:
                out = [o * c for o, c in zip(out, col)]
            else:
                out = [o * c ** count for o, c in zip(out, col)]
        return out

    def policy_values(self, nums) -> list[int]:
        """policy_value for every policy, in encoding order."""
        return [sum(map(operator.mul, nums, col)) for col in self.value_cols]


def _distinct(objs: list) -> tuple[list, list[int]]:
    """The list's distinct objects and each item's position among them.

    Identity picks the distinct objects: an expanded prior's atoms share
    their rows and laws as objects, and hashing tuples of Fractions costs
    more than converting them. Every object stays alive through the call.
    """
    first: dict[int, int] = {}
    rows, index = [], []
    for obj in objs:
        k = first.get(id(obj))
        if k is None:
            k = first[id(obj)] = len(rows)
            rows.append(obj)
        index.append(k)
    return rows, index


def _repeat(ix: list[int], group_ix: list[int], size: int) -> list[int]:
    """The positions ``ix`` of the distinct groups' items, ``size`` a
    group, repeated for each item of ``group_ix`` (``_distinct``'s index
    of the groups): the index of every group's items in turn."""
    runs = [ix[k:k + size] for k in range(0, len(ix), size)]
    return [p for g in group_ix for p in runs[g]]


def exact_lattice(prior: DiscretePrior) -> ExactLattice:
    """The prior's ExactLattice, built on first use and kept on the prior."""
    if "lattice" not in prior._cache:
        prior._cache["lattice"] = ExactLattice(prior)
    return prior._cache["lattice"]
