"""Tabular MDP hypotheses and exact dynamic-programming primitives.

States, actions and stages are 1-based everywhere (x in [S], a in [A],
h in [H]). All probabilities and reward values are stored as exact
`Fraction`s. The value and absorbing DPs run on a model's ints over one
common denominator (``int_parts``, ``int_means``, built once per model),
so no operation pays a gcd, and return Fractions. A model's checks come
in parts (``check_model_parts``), so a builder whose models share
transition rows and reward laws can check each once, and a builder that
holds a vector as ints over a known denominator checks it on those
(``check_int_vector``). One forward recursion walks a policy's visits,
``absorbing_steps``; the visit events, occupancy weights and reachable
triples are read off it.
Sampling reads one table of ``rng.cumulative_row`` rows per model,
indexed by the flat (x, a, h) index; the float posterior route lives in
``priors.PriorTables``.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import CapExceeded
from .rng import cumulative_row, sample_index

POLICY_CAP = 10**6
TRAJECTORY_CAP = 10**7

Triple = tuple[int, int, int]
TripleSet = frozenset  # of (x, a, h)


def as_fraction(v) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats are read through their shortest decimal repr, so an authored
    0.8 means exactly 4/5. Strings accept "p/q" and decimal forms.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a probability")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(str(v))
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational")


def all_triples(S: int, A: int, H: int) -> TripleSet:
    return frozenset(
        (x, a, h) for x in range(1, S + 1) for a in range(1, A + 1) for h in range(1, H + 1)
    )


def complement_triples(U: TripleSet, S: int, A: int, H: int) -> TripleSet:
    return all_triples(S, A, H) - U


@dataclass(frozen=True)
class DiscreteDist:
    """Finite discrete distribution over rational values.

    The support is stored in increasing order, its probabilities with it,
    so sampling and enumeration walk every law in the order of the global
    reward support, whatever order the law was given in.
    """

    support: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support/probs length mismatch")
        # adjacent comparisons, no hashing: an increasing support has no
        # duplicates, and a sorted one has its duplicates side by side
        support = self.support
        increasing = all(a < b for a, b in zip(support, support[1:]))
        if not increasing:
            order = sorted(range(len(support)), key=support.__getitem__)
            support = tuple(support[i] for i in order)
            object.__setattr__(self, "support", support)
            object.__setattr__(self, "probs", tuple(self.probs[i] for i in order))
        check_prob_vector(self.probs, "negative probability",
                           "probabilities must sum to 1 exactly")
        if not increasing and any(a == b for a, b in zip(support, support[1:])):
            raise ValueError("duplicate support values")

    @staticmethod
    def point(v) -> "DiscreteDist":
        return DiscreteDist((as_fraction(v),), (Fraction(1),))

    @staticmethod
    def of(pairs: Iterable[tuple]) -> "DiscreteDist":
        vs, ps = zip(*[(as_fraction(v), as_fraction(p)) for v, p in pairs])
        return DiscreteDist(tuple(vs), tuple(ps))

    def mean(self) -> Fraction:
        return sum(v * p for v, p in zip(self.support, self.probs))

    def mass(self, value) -> Fraction:
        value = as_fraction(value)
        for v, p in zip(self.support, self.probs):
            if v == value:
                return p
        return Fraction(0)

    def is_point(self) -> bool:
        return sum(1 for p in self.probs if p > 0) == 1

    def sample(self, rng) -> Fraction:
        return self.support[sample_index(self.probs, rng)]


class Step(NamedTuple):
    """One trajectory step; ``r`` is None in censored trajectories."""

    x: int
    a: int
    h: int
    r: object  # Fraction | None


@dataclass(frozen=True)
class Trajectory:
    """Raw H-step trajectory; every step carries its realized reward."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        if any(s.r is None for s in self.steps):
            raise ValueError("raw trajectory has no censored rewards")

    def triples(self) -> list[Triple]:
        return [(s.x, s.a, s.h) for s in self.steps]

    def reward_sum(self) -> Fraction:
        return sum(s.r for s in self.steps)


def check_prob_vector(vec, negative: str, not_one: str, zero_ok: bool = True) -> None:
    """Raise ValueError(negative) on an entry below 0 (or at 0 unless
    zero_ok), else ValueError(not_one) unless the entries sum to exactly 1.

    Exact on Fractions and ints without Fraction arithmetic: signs are read
    from each numerator, and the sum is taken as ints over the lcm of the
    denominators, which must equal that lcm.
    """
    lowest = 0 if zero_ok else 1
    if any(p.numerator < lowest for p in vec):
        raise ValueError(negative)
    den = math.lcm(*[p.denominator for p in vec])
    if sum([p.numerator * (den // p.denominator) for p in vec]) != den:
        raise ValueError(not_one)


def check_int_vector(nums, den: int, negative: str, not_one: str) -> None:
    """``check_prob_vector``'s rule on the vector nums / den (den > 0),
    read on the ints: every entry at least 0, and the sum equal to den."""
    if min(nums, default=0) < 0:
        raise ValueError(negative)
    if sum(nums) != den:
        raise ValueError(not_one)


@dataclass(frozen=True)
class MarkovPolicy:
    """Deterministic Markov policy; actions[x-1][h-1] in [A].

    The canonical integer encoding reads the action table in row-major
    (x, h) order as base-A digits, most significant first, so encoding
    order coincides with lexicographic order of the table.
    """

    actions: tuple[tuple[int, ...], ...]
    num_actions: int

    def action(self, x: int, h: int) -> int:
        return self.actions[x - 1][h - 1]

    @functools.cached_property
    def encoding(self) -> int:
        """Computed on first use and kept."""
        code = 0
        for row in self.actions:
            for a in row:
                code = code * self.num_actions + (a - 1)
        return code

    @staticmethod
    def from_table(table, num_actions: int) -> "MarkovPolicy":
        return MarkovPolicy(tuple(tuple(row) for row in table), num_actions)

    @staticmethod
    def from_encoding(code: int, S: int, A: int, H: int) -> "MarkovPolicy":
        digits = []
        for _ in range(S * H):
            digits.append(code % A)
            code //= A
        digits.reverse()
        table = tuple(
            tuple(digits[x * H + h] + 1 for h in range(H)) for x in range(S)
        )
        return MarkovPolicy(table, A)

    def __lt__(self, other: "MarkovPolicy") -> bool:
        return self.actions < other.actions


@dataclass(frozen=True)
class TabularModel:
    """One MDP hypothesis: initial distribution, transitions, reward laws.

    ``trans[x-1][a-1][h-1]`` is the next-state probability vector; the
    stage-H row exists but only feeds the inconsequential terminal state
    (builders default it to a point mass on state 1). ``rewards`` maps the
    same index to a DiscreteDist over [0,1] supported inside the shared
    ``reward_support`` of the experiment's model class.
    """

    S: int
    A: int
    H: int
    init: tuple[Fraction, ...]
    trans: tuple  # [x][a][h] -> tuple[Fraction,...] over next states
    rewards: tuple  # [x][a][h] -> DiscreteDist
    reward_support: tuple[Fraction, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        check_model_parts(self.S, self.A, self.H, self.init, self.trans, self.rewards,
                          self.reward_support)

    def transition(self, x: int, a: int, h: int) -> tuple[Fraction, ...]:
        return self.trans[x - 1][a - 1][h - 1]

    def reward_dist(self, x: int, a: int, h: int) -> DiscreteDist:
        return self.rewards[x - 1][a - 1][h - 1]

    def mean_reward(self, x: int, a: int, h: int) -> Fraction:
        key = ("mr", x, a, h)
        if key not in self._cache:
            self._cache[key] = self.reward_dist(x, a, h).mean()
        return self._cache[key]

    @property
    def is_deterministic(self) -> bool:
        if "det" not in self._cache:
            det = all(p in (0, 1) for p in self.init)
            if det:
                for x in range(self.S):
                    for a in range(self.A):
                        for h in range(self.H):
                            if any(p not in (0, 1) for p in self.trans[x][a][h]):
                                det = False
                            if not self.rewards[x][a][h].is_point():
                                det = False
            self._cache["det"] = det
        return self._cache["det"]


def check_shape(S, A, H) -> None:
    """TabularModel's first check: every dimension at least 1."""
    if min(S, A, H) < 1:
        raise ValueError("S, A, H must be positive")


def check_model_parts(S, A, H, init, trans, rewards, reward_support) -> None:
    """TabularModel's checks, in its order: the shape, the init vector,
    then per (x, a, h) the transition row and the reward law."""
    check_shape(S, A, H)
    if len(init) != S:
        raise ValueError("init length != S")
    check_prob_vector(init, "init: negative entry", "init: does not sum to 1")
    support = support_pairs(reward_support)
    for x in range(S):
        for a in range(A):
            for h in range(H):
                vec = trans[x][a][h]
                if len(vec) != S:
                    raise ValueError("transition row length != S")
                what = f"transitions({x+1},{a+1},{h+1})"
                check_prob_vector(vec, f"{what}: negative entry",
                                   f"{what}: does not sum to 1")
                check_reward_law(rewards[x][a][h], support)


def support_pairs(values) -> set:
    """The values as (numerator, denominator) pairs: a set that tests
    membership by int hashes, not Fraction ones."""
    return {(v.numerator, v.denominator) for v in values}


def check_reward_law(dist: DiscreteDist, support: set) -> None:
    """A law's values lie in [0, 1], and those of positive mass in the
    global support, given as ``support_pairs``."""
    for v, p in zip(dist.support, dist.probs):
        if not 0 <= v.numerator <= v.denominator:
            raise ValueError("reward support outside [0,1]")
        if p.numerator > 0 and (v.numerator, v.denominator) not in support:
            raise ValueError("reward value outside global support")


_MODEL_FIELDS = tuple(f.name for f in fields(TabularModel))


def checked_parts_model(S, A, H, init, trans, rewards, reward_support) -> TabularModel:
    """A TabularModel from parts its caller has already run through
    ``check_model_parts``; skips the per-model checks of ``__post_init__``."""
    model = object.__new__(TabularModel)
    # field by field, as the generated __init__ sets them, so the instance
    # keeps its compact attribute storage instead of a dict of its own
    values = (S, A, H, init, trans, rewards, reward_support, {})
    for name, value in zip(_MODEL_FIELDS, values, strict=True):
        object.__setattr__(model, name, value)
    return model


def checked_dist(support: tuple, probs: tuple) -> DiscreteDist:
    """A DiscreteDist whose caller has already checked what
    ``__post_init__`` checks: a nonempty increasing support, and a
    probability vector of its length; skips those checks."""
    dist = object.__new__(DiscreteDist)
    object.__setattr__(dist, "support", support)
    object.__setattr__(dist, "probs", probs)
    return dist


def build_model(S, A, H, init, transitions, rewards, reward_support=None):
    """Construct a TabularModel from 1-based mappings.

    ``transitions``: {(x,a,h): vector} — stage-H entries may be omitted
    and default to a point mass on state 1. ``rewards``:
    {(x,a,h): DiscreteDist | value} (bare values become point masses).
    """
    init_t, trans = transition_table(S, A, H, init, transitions)
    rews = reward_table(S, A, H, rewards)
    if reward_support is None:
        reward_support = tuple(sorted({v for by_a in rews for by_h in by_a for d in by_h
                                       for v, p in zip(d.support, d.probs) if p > 0}))
    else:
        reward_support = tuple(sorted(as_fraction(v) for v in reward_support))
    return TabularModel(S, A, H, init_t, trans, rews, reward_support)


def transition_table(S, A, H, init, transitions) -> tuple:
    """The (init, trans) fields of ``build_model``'s TabularModel, as
    Fractions; models that share them can share these tuples. An omitted
    stage-H row is a point mass on state 1."""
    init_t = tuple(as_fraction(p) for p in init)
    sink = (Fraction(1),) + (Fraction(0),) * (S - 1)
    trans = []
    for x in range(1, S + 1):
        tx = []
        for a in range(1, A + 1):
            ta = []
            for h in range(1, H + 1):
                vec = transitions.get((x, a, h))
                if vec is None:
                    if h < H:
                        raise ValueError(f"missing transition ({x},{a},{h})")
                    ta.append(sink)
                else:
                    ta.append(tuple(as_fraction(p) for p in vec))
            tx.append(tuple(ta))
        trans.append(tuple(tx))
    return init_t, tuple(trans)


def reward_table(S, A, H, rewards) -> tuple:
    """The rewards field of ``build_model``'s TabularModel."""
    def law(d) -> DiscreteDist:
        return d if isinstance(d, DiscreteDist) else DiscreteDist.point(d)

    return tuple(tuple(tuple(law(rewards[(x, a, h)]) for h in range(1, H + 1))
                       for a in range(1, A + 1)) for x in range(1, S + 1))


# ---------------------------------------------------------------------------
# exact DP primitives


def int_parts(model: TabularModel) -> tuple:
    """The model's init and transition entries as ints over one common
    denominator, built once per model: (den, init, trans), with init[x-1]
    and trans[x, a, h][y-1] over den.

    The exact DPs below run on these, so a product or a sum costs no gcd;
    each returns its result over a power of the denominators.
    """
    if "ints" not in model._cache:
        triples = [(x, a, h) for x in range(1, model.S + 1) for a in range(1, model.A + 1)
                   for h in range(1, model.H + 1)]
        rows = [model.init] + [model.transition(*t) for t in triples]
        den = math.lcm(*[p.denominator for row in rows for p in row])
        rows = [[p.numerator * (den // p.denominator) for p in row] for row in rows]
        model._cache["ints"] = den, rows[0], dict(zip(triples, rows[1:]))
    return model._cache["ints"]


def int_means(model: TabularModel) -> tuple:
    """The model's mean rewards as ints over one common denominator, built
    once per model: (mean_den, means), with means[x, a, h] over mean_den."""
    if "int_means" not in model._cache:
        triples = [(x, a, h) for x in range(1, model.S + 1) for a in range(1, model.A + 1)
                   for h in range(1, model.H + 1)]
        terms = [[(v.numerator * p.numerator, v.denominator * p.denominator)
                  for v, p in zip(d.support, d.probs)]
                 for d in (model.reward_dist(*t) for t in triples)]
        mean_den = math.lcm(*[d for law in terms for _, d in law])
        means = [sum(n * (mean_den // d) for n, d in law) for law in terms]
        model._cache["int_means"] = mean_den, dict(zip(triples, means))
    return model._cache["int_means"]


def _stage_values(model: TabularModel, policy: MarkovPolicy) -> tuple[list, list]:
    """pi's value-to-go vectors by backward DP over mean rewards, as ints.

    Returns (values, dens): values[h-1][x-1] / dens[h-1] is E^pi[sum of
    rewards from stage h on | x_h = x], for h = 1..H+1, with dens[h-1] =
    mean_den * den ** (H - h) (``int_parts``, ``int_means``); stage H+1
    is all zeros.
    """
    den, _, trans = int_parts(model)
    mean_den, means = int_means(model)
    S, H = model.S, model.H
    values = [[0] * S]
    for h in range(H, 0, -1):
        togo = values[-1]
        scale = den ** (H - h)
        nxt = []
        for x in range(1, S + 1):
            a = policy.action(x, h)
            v = means[x, a, h] * scale
            if h < H:
                v += sum(map(operator.mul, trans[x, a, h], togo))
            nxt.append(v)
        values.append(nxt)
    values.reverse()
    return values, [mean_den * den ** (H - h) for h in range(1, H + 1)] + [mean_den]


def policy_value(model: TabularModel, policy: MarkovPolicy) -> Fraction:
    """E^pi[sum of rewards] by backward DP over mean rewards; in [0, H]."""
    values, dens = _stage_values(model, policy)
    den, init, _ = int_parts(model)
    return Fraction(sum(map(operator.mul, init, values[0])), den * dens[0])


def optimal_value(model: TabularModel) -> Fraction:
    """max over Markov policies of policy_value, by backward max-DP."""
    S, A, H = model.S, model.A, model.H
    value = [Fraction(0)] * S
    for h in range(H, 0, -1):
        nxt = []
        for x in range(1, S + 1):
            best = None
            for a in range(1, A + 1):
                v = model.mean_reward(x, a, h)
                if h < H:
                    row = model.transition(x, a, h)
                    v = v + sum(row[y] * value[y] for y in range(S))
                best = v if best is None or v > best else best
            nxt.append(best)
        value = nxt
    return sum(model.init[x] * value[x] for x in range(S))


def trajectory_probability(model, policy, trajectory: Trajectory) -> Fraction:
    """Exact mass of a raw trajectory under P^pi; 0 if inconsistent with pi."""
    steps = trajectory.steps
    if len(steps) != model.H:
        raise ValueError("trajectory length != H")
    for i, s in enumerate(steps):
        if s.h != i + 1:
            raise ValueError("stages must be 1..H in order")
        if policy.action(s.x, s.h) != s.a:
            return Fraction(0)
    return path_mass(model, steps)


def path_mass(model, steps) -> Fraction:
    """Initial, reward and transition mass of a step sequence, in step order.

    A step whose reward is None (censored) contributes no reward factor:
    censored rewards marginalize out.
    """
    prob = model.init[steps[0].x - 1]
    for i, s in enumerate(steps):
        if s.r is not None:
            prob *= model.reward_dist(s.x, s.a, s.h).mass(s.r)
        if i + 1 < len(steps):
            prob *= model.transition(s.x, s.a, s.h)[steps[i + 1].x - 1]
        if not prob:
            return prob
    return prob


def _sampling_rows(model: TabularModel) -> tuple:
    """The model's sampling rows, built once: ``rng.cumulative_row`` of the
    init vector, then per flat (x, a, h) index (C order over (S, A, H)) of
    the reward law and of the transition row, and one table of Steps with
    the reward value at position k of triple t's law at t * width + k.

    Reward rows are padded with inf to one width, and the table with None;
    no uniform reaches an inf, so the padding is never drawn. Returns
    (lists, arrays, step_table, width): ``rollout`` bisects the rows as
    lists, and ``rollout_rows`` counts against the same rows as arrays.
    """
    if "sampling" not in model._cache:
        triples = [(x, a, h) for x in range(1, model.S + 1) for a in range(1, model.A + 1)
                   for h in range(1, model.H + 1)]
        laws = [model.reward_dist(*t) for t in triples]
        width = max(len(d.probs) for d in laws)
        step_table, reward_rows = [], []
        for t, d in zip(triples, laws):
            pad = width - len(d.probs)
            step_table += [Step(*t, v) for v in d.support] + [None] * pad
            reward_rows.append(cumulative_row(d.probs) + [math.inf] * pad)
        lists = (cumulative_row(model.init), reward_rows,
                 [cumulative_row(model.transition(*t)) for t in triples])
        model._cache["sampling"] = (lists, tuple(map(np.array, lists)), step_table, width)
    return model._cache["sampling"]


def rollout(model, policy, u) -> tuple[Step, ...]:
    """The steps of one trajectory, driven by 2H uniforms in [0, 1).

    ``u[0]`` draws the initial state; stage h draws its reward with
    ``u[2h-1]`` and, below stage H, its next state with ``u[2h]``.
    """
    (init, reward_rows, trans_rows), _, step_table, width = _sampling_rows(model)
    actions, A, H = policy.actions, model.A, model.H
    x = 1 + bisect_right(init, u[0])
    steps = []
    for h in range(1, H + 1):
        t = ((x - 1) * A + actions[x - 1][h - 1] - 1) * H + h - 1
        steps.append(step_table[t * width + bisect_right(reward_rows[t], u[2 * h - 1])])
        if h < H:
            x = 1 + bisect_right(trans_rows[t], u[2 * h])
    return tuple(steps)


def rollout_rows(model, policy, u: np.ndarray) -> tuple[list[tuple[Step, ...]], np.ndarray]:
    """``rollout`` of every row of an (n, 2H) array of uniforms, as one
    array operation per draw.

    Returns the distinct trajectories, each as ``rollout`` returns it, and
    per row the index of its trajectory among them. A draw's index is the
    count of cumulative entries <= u, which is what ``bisect_right``
    returns: the same float comparisons as ``rollout``. A single row is
    faster through ``rollout``.
    """
    _, (init_row, reward_rows, trans_rows), step_table, width = _sampling_rows(model)
    A, H = model.A, model.H
    actions = np.array(policy.actions) - 1
    x = np.count_nonzero(init_row <= u[:, :1], axis=1)  # 0-based states
    step_ids = np.empty((len(u), H), dtype=np.intp)
    which = np.zeros(len(u), dtype=np.intp)  # the rows' distinct prefixes so far
    for h in range(H):
        xah = (x * A + actions[x, h]) * H + h
        step_ids[:, h] = xah * width + np.count_nonzero(
            reward_rows[xah] <= u[:, 2 * h + 1, None], axis=1)
        # numbering the prefixes densely keeps the codes below n * len(step_table)
        _, first, which = np.unique(which * len(step_table) + step_ids[:, h],
                                    return_index=True, return_inverse=True)
        if h + 1 < H:
            x = np.count_nonzero(trans_rows[xah] <= u[:, 2 * h + 2, None], axis=1)
    return [tuple(step_table[i] for i in row) for row in step_ids[first].tolist()], which


def sample_trajectory(model, policy, rng) -> Trajectory:
    """Roll out one trajectory from 2H draws of ``rng``; identical streams
    give identical output (``rng.random(n)`` equals n single draws)."""
    return Trajectory(rollout(model, policy, rng.random(2 * model.H)))


def enumerate_policies(S: int, A: int, H: int, cap: int = POLICY_CAP) -> list[MarkovPolicy]:
    """All A^(S·H) deterministic Markov policies in canonical-encoding order."""
    n = A ** (S * H)
    if n > cap:
        raise CapExceeded(f"policy space {A}^{S * H} = {n} exceeds cap {cap}")
    return [MarkovPolicy.from_encoding(code, S, A, H) for code in range(n)]


def enumerate_trajectories(model, policy, cap: int = TRAJECTORY_CAP) -> Iterator[tuple[Trajectory, Fraction]]:
    """Yield (trajectory, exact probability) over the support of P^pi."""
    count = 0

    def rec(h: int, x: int, prob: Fraction, steps: list):
        nonlocal count
        a = policy.action(x, h)
        rdist = model.reward_dist(x, a, h)
        for rv, rp in zip(rdist.support, rdist.probs):
            if rp == 0:
                continue
            p1 = prob * rp
            new_steps = steps + [Step(x, a, h, rv)]
            if h == model.H:
                count += 1
                if count > cap:
                    raise CapExceeded(f"trajectory enumeration exceeds cap {cap}")
                yield Trajectory(tuple(new_steps)), p1
            else:
                row = model.transition(x, a, h)
                for y in range(model.S):
                    if row[y] == 0:
                        continue
                    yield from rec(h + 1, y + 1, p1 * row[y], new_steps)

    for x0 in range(model.S):
        if model.init[x0] == 0:
            continue
        yield from rec(1, x0 + 1, model.init[x0], [])


def reach_probability(model, x: int, h: int) -> Fraction:
    """max over policies of P^pi[x_h = x], by backward max-DP."""
    S = model.S
    g = [Fraction(1 if y == x - 1 else 0) for y in range(S)]
    for tau in range(h - 1, 0, -1):
        nxt = []
        for s in range(1, S + 1):
            best = None
            for a in range(1, model.A + 1):
                row = model.transition(s, a, tau)
                v = sum(row[y] * g[y] for y in range(S))
                best = v if best is None or v > best else best
            nxt.append(best)
        g = nxt
    return sum(model.init[y] * g[y] for y in range(S))


def reach_set(model, rho) -> TripleSet:
    """All (x,a,h) with reach probability >= rho (exact comparison).

    Reachability is a property of the (x,h) pair; every action at a
    reachable pair is included.
    """
    rho = as_fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    out = set()
    for x in range(1, model.S + 1):
        for h in range(1, model.H + 1):
            if reach_probability(model, x, h) >= rho:
                out.update((x, a, h) for a in range(1, model.A + 1))
    return frozenset(out)


def absorbing_steps(model, policy, U: TripleSet) -> tuple[list, int]:
    """Every step pi takes up to and including its first U-visit, with its mass.

    Returns ([(x, a, h, mass)] in stage order, den), where mass / den =
    P^pi[x_h = x, no U-visit strictly before h], an int over one
    denominator; a U-visit absorbs its mass. Steps of zero mass are left
    out.
    """
    den, init, trans = int_parts(model)
    H = model.H
    alpha = init  # stage-h masses are over den ** h
    steps = []
    for h in range(1, H + 1):
        scale = den ** (H - h)
        nxt = [0] * model.S
        for x, mass in enumerate(alpha, 1):
            if not mass:
                continue
            a = policy.action(x, h)
            steps.append((x, a, h, mass * scale))
            if (x, a, h) in U or h == H:
                continue
            for y, p in enumerate(trans[x, a, h]):
                if p:
                    nxt[y] += mass * p
        alpha = nxt
    return steps, den ** H


def reachable_triples(model, policy) -> TripleSet:
    """Every (x, a, h) that pi visits with positive probability: the
    support of ``absorbing_steps`` with nothing absorbing. So
    ``event_visit_probability(model, policy, U) > 0`` exactly when this
    set meets U."""
    steps, _ = absorbing_steps(model, policy, frozenset())
    return frozenset((x, a, h) for x, a, h, _ in steps)


def event_visit_probability(model, policy, U: TripleSet) -> Fraction:
    """P^pi[some step's (x,a,h) lands in U], via an absorbing visited flag."""
    steps, den = absorbing_steps(model, policy, U)
    return Fraction(sum(mass for x, a, h, mass in steps if (x, a, h) in U), den)


def occupancy_omega(model, policy, U: TripleSet) -> dict:
    """For each (x,a,h) in U: P[visit (x,a,h) at h, staying in U^c before h].

    Summing the mapping over U reproduces event_visit_probability.
    """
    steps, den = absorbing_steps(model, policy, U)
    return {(x, a, h): Fraction(mass, den) for x, a, h, mass in steps if (x, a, h) in U}


def deterministic_trajectory(model, policy) -> Trajectory:
    """The unique trajectory of a deterministic model (means as rewards)."""
    if not model.is_deterministic:
        raise ValueError("model is not deterministic")
    traj, prob = next(iter(enumerate_trajectories(model, policy)))
    assert prob == 1
    return traj
