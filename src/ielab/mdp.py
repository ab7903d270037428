"""Tabular MDP hypotheses and exact dynamic-programming primitives.

States, actions and stages are 1-based everywhere (x in [S], a in [A],
h in [H]). A model stores its probabilities as int rows over one
denominator, and reward values and laws as exact `Fraction`s; its
`Fraction` rows are views, built on first read. The value, reach and
absorbing DPs run on the int rows and the mean rewards' ints over one
denominator (``int_means``, built once per model), so no operation pays
a gcd, and return Fractions. A model's checks run on the int rows, in
parts (``check_model_parts``), and ``int_model`` builds a model from int
rows: a builder whose models share rows and reward laws checks each once
and builds its models with ``checked=True``. One forward recursion walks
a policy's visits, ``absorbing_steps``; the visit events, occupancy
weights and reachable triples are read off it.
One trajectory sampler, ``rollout``, reads one table of
``rng.cumulative_row`` rows per model, indexed by the flat (x, a, h)
index; the float posterior route lives in ``priors.PriorTables``.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

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


@dataclass(frozen=True, init=False)
class TabularModel:
    """One MDP hypothesis: initial distribution, transitions, reward laws.

    Stored as int rows over ``den``, the lcm of their reduced
    denominators, so models are equal exactly when their probabilities
    are: ``init_nums`` and ``trans_nums[x-1][a-1][h-1]``, the next-state
    row; ``init``, ``trans`` and ``transition`` are their Fraction views.
    The stage-H row only feeds the inconsequential terminal state
    (builders default it to a point mass on state 1). ``rewards`` maps the
    same index to a DiscreteDist over [0,1] supported inside the shared
    ``reward_support`` of the experiment's model class.
    ``TabularModel(...)`` takes Fraction rows, ``int_model`` int rows.
    """

    S: int
    A: int
    H: int
    den: int
    init_nums: tuple[int, ...]
    trans_nums: tuple  # [x][a][h] -> tuple[int, ...] over next states, over den
    rewards: tuple  # [x][a][h] -> DiscreteDist
    reward_support: tuple[Fraction, ...]
    _cache: dict = field(compare=False, repr=False)

    def __init__(self, S, A, H, init, trans, rewards, reward_support):
        den, init, trans = _int_rows(init, trans)
        check_model_parts(S, A, H, den, init, trans, rewards, reward_support)
        _fill(self, S, A, H, den, init, trans, rewards, reward_support)

    @functools.cached_property
    def init(self) -> tuple[Fraction, ...]:
        """The Fraction view of ``init_nums``."""
        return tuple(Fraction(p, self.den) for p in self.init_nums)

    @functools.cached_property
    def trans(self) -> tuple:
        """The Fraction view of ``trans_nums``: [x][a][h] -> tuple[Fraction, ...]."""
        return _map_rows(lambda row: tuple(Fraction(p, self.den) for p in row), self.trans_nums)

    def transition(self, x: int, a: int, h: int) -> tuple[Fraction, ...]:
        return self.trans[x - 1][a - 1][h - 1]

    def transition_nums(self, x: int, a: int, h: int) -> tuple[int, ...]:
        return self.trans_nums[x - 1][a - 1][h - 1]

    def reward_dist(self, x: int, a: int, h: int) -> DiscreteDist:
        return self.rewards[x - 1][a - 1][h - 1]

    def mean_reward(self, x: int, a: int, h: int) -> Fraction:
        key = ("mr", x, a, h)
        if key not in self._cache:
            self._cache[key] = self.reward_dist(x, a, h).mean()
        return self._cache[key]

    @functools.cached_property
    def is_deterministic(self) -> bool:
        """Every probability 0 or 1 (so den is 1) and every reward law a point mass."""
        return self.den == 1 and all(d.is_point() for d in _rows(self.rewards))


def _rows(table) -> list:
    """The entries of an [x][a][h] table, in the C order of (x, a, h)."""
    return [v for by_a in table for by_h in by_a for v in by_h]


def _map_rows(f, table) -> tuple:
    """An [x][a][h] table of f of each entry."""
    return tuple(tuple(tuple(map(f, by_h)) for by_h in by_a) for by_a in table)


def check_shape(S, A, H) -> None:
    """TabularModel's first check: every dimension at least 1."""
    if min(S, A, H) < 1:
        raise ValueError("S, A, H must be positive")


def check_model_parts(S, A, H, den, init, trans, rewards, reward_support) -> None:
    """TabularModel's checks, in its order: the shape, the init vector,
    then per (x, a, h) the transition row and the reward law. The rows are
    ints over den, read by ``check_int_vector``."""
    check_shape(S, A, H)
    if len(init) != S:
        raise ValueError("init length != S")
    check_int_vector(init, den, "init: negative entry", "init: does not sum to 1")
    support = support_pairs(reward_support)
    for x in range(S):
        for a in range(A):
            for h in range(H):
                vec = trans[x][a][h]
                if len(vec) != S:
                    raise ValueError("transition row length != S")
                what = f"transitions({x+1},{a+1},{h+1})"
                check_int_vector(vec, den, f"{what}: negative entry",
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


def _fill(model: TabularModel, S, A, H, den, init, trans, rewards,
          reward_support) -> TabularModel:
    """Set the model's fields, and an empty cache. The rows are stored
    divided by their gcd with den, over the canonical den; rows already
    over it are stored as the given objects, so models built from one
    init and trans share them."""
    g = math.gcd(den, *init)
    if g > 1:  # else already canonical, with no row read
        g = math.gcd(g, *[p for row in _rows(trans) for p in row])
    if g > 1:
        den //= g
        init = tuple([p // g for p in init])
        trans = _map_rows(lambda row: tuple([p // g for p in row]), trans)
    values = (S, A, H, den, init, trans, rewards, reward_support, {})
    # key by key, in field order, as a generated __init__ sets them, so the
    # instance dict shares its keys with every model's (a dict of keywords
    # would be merged into a dict of its own)
    model.__dict__.update(zip(_MODEL_FIELDS, values))
    return model


def int_model(S, A, H, den, init, trans, rewards, reward_support,
              checked: bool = False) -> TabularModel:
    """The TabularModel of int rows over ``den``: init[x-1] and
    trans[x-1][a-1][h-1][y-1], checked by ``check_model_parts`` unless
    ``checked``: the caller has run those checks on the parts, once for
    every model that shares them."""
    if not checked:
        check_model_parts(S, A, H, den, init, trans, rewards, reward_support)
    return _fill(object.__new__(TabularModel), S, A, H, den, init, trans, rewards,
                 reward_support)


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
    rows = transition_table(S, A, H, init, transitions)
    rews = reward_table(S, A, H, rewards)
    if reward_support is None:
        reward_support = tuple(sorted({v for d in _rows(rews)
                                       for v, p in zip(d.support, d.probs) if p > 0}))
    else:
        reward_support = tuple(sorted(as_fraction(v) for v in reward_support))
    return int_model(S, A, H, *rows, rews, reward_support)


def transition_table(S, A, H, init, transitions) -> tuple:
    """The rows of ``build_model``'s TabularModel, unchecked: (den, init,
    trans) as ``int_model`` takes them, over the canonical den; models
    that share them can share these tuples. An omitted stage-H row is a
    point mass on state 1."""
    def row(x: int, a: int, h: int) -> list:
        vec = transitions.get((x, a, h))
        if vec is None and h < H:
            raise ValueError(f"missing transition ({x},{a},{h})")
        return sink if vec is None else [as_fraction(p) for p in vec]

    sink = [1] + [0] * (S - 1)
    trans = [[[row(x, a, h) for h in range(1, H + 1)] for a in range(1, A + 1)]
             for x in range(1, S + 1)]
    return _int_rows([as_fraction(p) for p in init], trans)


def _int_rows(init, trans) -> tuple:
    """Rational rows as ints over the lcm of their denominators, the
    canonical den: (den, init, trans)."""
    den = math.lcm(*[p.denominator for row in (init, *_rows(trans)) for p in row])

    def nums(row) -> tuple[int, ...]:
        return tuple([p.numerator * (den // p.denominator) for p in row])

    return den, nums(init), _map_rows(nums, trans)


def reward_table(S, A, H, rewards) -> tuple:
    """The rewards field of ``build_model``'s TabularModel."""
    def law(d) -> DiscreteDist:
        return d if isinstance(d, DiscreteDist) else DiscreteDist.point(d)

    return tuple(tuple(tuple(law(rewards[(x, a, h)]) for h in range(1, H + 1))
                       for a in range(1, A + 1)) for x in range(1, S + 1))


# ---------------------------------------------------------------------------
# exact DP primitives


def int_means(model: TabularModel) -> tuple:
    """The model's mean rewards as ints over one common denominator, built
    once per model: (mean_den, means), with means[x, a, h] over mean_den."""
    if "int_means" not in model._cache:
        triples = [(x, a, h) for x in range(1, model.S + 1) for a in range(1, model.A + 1)
                   for h in range(1, model.H + 1)]
        terms = [[(v.numerator * p.numerator, v.denominator * p.denominator)
                  for v, p in zip(d.support, d.probs)]
                 for d in _rows(model.rewards)]
        mean_den = math.lcm(*[d for law in terms for _, d in law])
        means = [sum(n * (mean_den // d) for n, d in law) for law in terms]
        model._cache["int_means"] = mean_den, dict(zip(triples, means))
    return model._cache["int_means"]


def _stage_values(model: TabularModel, policy: MarkovPolicy) -> tuple[list, list]:
    """pi's value-to-go vectors by backward DP over mean rewards, as ints.

    Returns (values, dens): values[h-1][x-1] / dens[h-1] is E^pi[sum of
    rewards from stage h on | x_h = x], for h = 1..H+1, with dens[h-1] =
    mean_den * den ** (H - h) (the model's ``den``, ``int_means``); stage
    H+1 is all zeros.
    """
    den, trans, H = model.den, model.trans_nums, model.H
    mean_den, means = int_means(model)
    values = [[0] * model.S]
    for h in range(H, 0, -1):
        togo, scale = values[-1], den ** (H - h)
        # stage H's row meets the zero values, so it adds nothing
        values.append([means[x, a, h] * scale
                       + sum(map(operator.mul, trans[x - 1][a - 1][h - 1], togo))
                       for x, a in enumerate([row[h - 1] for row in policy.actions], 1)])
    values.reverse()
    return values, [mean_den * den ** (H - h) for h in range(1, H + 1)] + [mean_den]


def policy_value(model: TabularModel, policy: MarkovPolicy) -> Fraction:
    """E^pi[sum of rewards] by backward DP over mean rewards; in [0, H]."""
    values, dens = _stage_values(model, policy)
    return Fraction(sum(map(operator.mul, model.init_nums, values[0])), model.den * dens[0])


def optimal_value(model: TabularModel) -> Fraction:
    """max over Markov policies of policy_value, by backward max-DP on the
    model's int rows and ``int_means``."""
    mean_den, means = int_means(model)
    den, H = model.den, model.H
    value = [0] * model.S  # stage-h values over mean_den * den ** (H - h)
    for h in range(H, 0, -1):
        # stage H's row meets the zero values, so it adds nothing
        value = [max(means[x, a, h] * den ** (H - h) + sum(map(operator.mul, by_h[h - 1], value))
                     for a, by_h in enumerate(by_a, 1))
                 for x, by_a in enumerate(model.trans_nums, 1)]
    return Fraction(sum(map(operator.mul, model.init_nums, value)), mean_den * den ** H)


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
    init vector, then per flat (x, a, h) index (C order over (S, A, H))
    that of the reward law and of the transition row, and the law's Steps,
    one per support value. Returns (init, reward_rows, trans_rows,
    step_rows), lists that ``rollout`` indexes directly.
    """
    if "sampling" not in model._cache:
        triples = [(x, a, h) for x in range(1, model.S + 1) for a in range(1, model.A + 1)
                   for h in range(1, model.H + 1)]
        laws = _rows(model.rewards)
        step_rows = [[Step(*t, v) for v in d.support] for t, d in zip(triples, laws)]
        reward_rows = [cumulative_row(d.probs) for d in laws]
        # an int quotient p / den is the float of Fraction(p, den): both round it once
        rows = [cumulative_row([p / model.den for p in row])
                for row in (model.init_nums, *_rows(model.trans_nums))]
        model._cache["sampling"] = (rows[0], reward_rows, rows[1:], step_rows)
    return model._cache["sampling"]


def rollout(model, policy, u) -> tuple[Step, ...]:
    """The steps of one trajectory, driven by 2H uniforms in [0, 1).

    ``u[0]`` draws the initial state; stage h draws its reward with
    ``u[2h-1]`` and, below stage H, its next state with ``u[2h]``. Each
    draw's index is the ``bisect_right`` of its uniform in the triple's
    ``_sampling_rows`` row: the count of cumulative entries <= u.
    """
    init, reward_rows, trans_rows, step_rows = _sampling_rows(model)
    actions, A, H = policy.actions, model.A, model.H
    x = 1 + bisect_right(init, u[0])
    steps = []
    for h in range(1, H + 1):
        t = ((x - 1) * A + actions[x - 1][h - 1] - 1) * H + h - 1
        steps.append(step_rows[t][bisect_right(reward_rows[t], u[2 * h - 1])])
        if h < H:
            x = 1 + bisect_right(trans_rows[t], u[2 * h])
    return tuple(steps)


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
    """max over policies of P^pi[x_h = x], by backward max-DP on the
    model's int rows."""
    g = [int(y == x - 1) for y in range(model.S)]  # stage-tau values over den ** (h - tau)
    for tau in range(h - 1, 0, -1):
        g = [max(sum(map(operator.mul, by_h[tau - 1], g)) for by_h in by_a)
             for by_a in model.trans_nums]
    return Fraction(sum(map(operator.mul, model.init_nums, g)), model.den ** h)


def reach_set(model, rho) -> TripleSet:
    """All (x,a,h) with reach probability >= rho (exact comparison).

    Reachability is a property of the (x,h) pair; every action at a
    reachable pair is included.
    """
    rho = as_fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    return frozenset((x, a, h) for x in range(1, model.S + 1) for h in range(1, model.H + 1)
                     if reach_probability(model, x, h) >= rho for a in range(1, model.A + 1))


def absorbing_steps(model, policy, U: TripleSet) -> tuple[list, int]:
    """Every step pi takes up to and including its first U-visit, with its mass.

    Returns ([(x, a, h, mass)] in stage order, den), where mass / den =
    P^pi[x_h = x, no U-visit strictly before h], an int over one
    denominator; a U-visit absorbs its mass. Steps of zero mass are left
    out.
    """
    den, trans, H = model.den, model.trans_nums, model.H
    alpha = model.init_nums  # stage-h masses are over den ** h
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
            for y, p in enumerate(trans[x - 1][a - 1][h - 1]):
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
