"""Fixed desk-scale instances and random families used by tests and demos.

The random families are built and checked on the grid's integers: every
probability of ``random_model`` is k / GRID, and ``perturb_model`` shifts
a base model's int rows. TabularModel's and DiscreteDist's checks run on
those ints, once per vector, and once per call on what all the vectors
share (the shape, the reward support, the stage-H row); ``mdp.int_model``
stores those int rows as the model, with no Fraction built for them. The
reward laws' probabilities are Fractions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice

import numpy as np

from .mdp import (DiscreteDist, TabularModel, as_fraction, check_int_vector, check_shape,
                  checked_dist, int_model)
from .priors import FactoredRewardPrior


def micro_det_1() -> FactoredRewardPrior:
    """2-state / 2-action / 2-stage deterministic class, shared transitions.

    One point-mass transition structure known to every atom; each of the
    8 triples has a mean reward uniform on {0, 0.8} (deterministic
    rewards). Six triples are reachable: state 2 cannot occur at h=1.
    Prior parameters: r_min = 0.4, f_min(0.1) = 0.5.
    """
    S = A = H = 2
    init = [1, 0]
    transitions = {
        (1, 1, 1): [1, 0],  # stay
        (1, 2, 1): [0, 1],  # switch
        (2, 1, 1): [0, 1],
        (2, 2, 1): [0, 1],
    }
    marginals = {
        (x, a, h): DiscreteDist.of([(0, Fraction(1, 2)), ("0.8", Fraction(1, 2))])
        for x in range(1, S + 1)
        for a in range(1, A + 1)
        for h in range(1, H + 1)
    }
    return FactoredRewardPrior(
        S, A, H,
        transition_atoms=((init, transitions, Fraction(1)),),
        reward_marginals=marginals,
    )


def _bernoulli_of_mean(mean: Fraction) -> DiscreteDist:
    if mean == 0:
        return DiscreteDist.of([(0, 1)])
    if mean == 1:
        return DiscreteDist.of([(1, 1)])
    return DiscreteDist.of([(0, 1 - mean), (1, mean)])


def micro_stoch_1() -> FactoredRewardPrior:
    """2-state / 2-action / 2-stage stochastic class, two transition atoms.

    Atom T1 has uniform transitions everywhere; T2 tilts the stage-1 rows
    of state 1 to (3/4, 1/4) and (1/4, 3/4). Rewards are Bernoulli with
    per-triple means uniform on {0, 0.7}; r_min = 0.35, f_min(eps) = 0.5
    for eps < 0.7. Every triple is 1/4-reachable under both atoms.
    """
    S = A = H = 2
    half = Fraction(1, 2)
    init = [half, half]
    uniform = {
        (x, a, 1): [half, half] for x in range(1, S + 1) for a in range(1, A + 1)
    }
    tilted = dict(uniform)
    tilted[(1, 1, 1)] = [Fraction(3, 4), Fraction(1, 4)]
    tilted[(1, 2, 1)] = [Fraction(1, 4), Fraction(3, 4)]
    marginals = {
        (x, a, h): DiscreteDist.of([(0, half), ("0.7", half)])
        for x in range(1, S + 1)
        for a in range(1, A + 1)
        for h in range(1, H + 1)
    }
    return FactoredRewardPrior(
        S, A, H,
        transition_atoms=((init, uniform, half), (init, tilted, half)),
        reward_marginals=marginals,
        dist_of_mean=_bernoulli_of_mean,
        reward_support=(0, 1),
    )


GRID = 64  # random probabilities are multiples of 1/GRID
_GRID_FRACTIONS = tuple(Fraction(k, GRID) for k in range(GRID + 1))


def grid_widths(cuts, where=None) -> list[int]:
    """The widths of [0, GRID] cut at the sorted cuts: the numerators over
    GRID of a probability vector, checked as ints by check_prob_vector's
    rule, with its messages for the vector ``where`` names: "init", a
    transition row's (x, a, h), or None for a reward law. Cuts in
    [0, GRID] always pass, so the messages are built only on failure."""
    cuts = [0, *sorted(cuts), GRID]
    widths = list(map(operator.sub, cuts[1:], cuts))
    if min(widths) < 0 or sum(widths) != GRID:
        if where is None:
            negative, not_one = "negative probability", "probabilities must sum to 1 exactly"
        else:
            what = where if isinstance(where, str) else "transitions({},{},{})".format(*where)
            negative, not_one = f"{what}: negative entry", f"{what}: does not sum to 1"
        check_int_vector(widths, GRID, negative, not_one)
    return widths


def _sink_row(S: int, H: int, den: int) -> tuple[int, ...]:
    """The stage-H transition row of every triple, a point mass on state
    1, over den, checked once for all of them."""
    row = (den,) + (0,) * (S - 1)
    check_int_vector(row, den, f"transitions(1,1,{H}): negative entry",
                     f"transitions(1,1,{H}): does not sum to 1")
    return row


def random_model(rng: np.random.Generator, S: int, A: int, H: int,
                 support=(0, Fraction(1, 2), 1)) -> TabularModel:
    """Random rational tabular model (for property tests).

    Every probability vector is cut from a 1/GRID lattice at uniform
    integer points. All of a model's cuts come from one
    ``rng.integers(0, GRID + 1, size=n)`` call, the same stream as n
    scalar calls, taken in the order init, then per (x, a, h) the
    transition row (h < H) and the reward law.

    The checks of TabularModel and DiscreteDist run on the ints the model
    is cut from: each vector's widths over GRID (``grid_widths``), and
    once per call the shape and the one support every law shares, which
    is the model's sorted ``reward_support``. The lengths hold by
    construction: n - 1 cuts cut [0, GRID] into n widths.
    """
    check_shape(S, A, H)
    support = tuple(as_fraction(v) for v in support)
    k = len(support)
    # DiscreteDist's support rules and check_reward_law's range, once: each
    # law holds the sorted support, its probabilities in the same order
    order = sorted(range(k), key=support.__getitem__)
    law_support = tuple(support[i] for i in order)
    if not law_support:
        raise ValueError("support/probs length mismatch")
    if any(a == b for a, b in zip(law_support, law_support[1:])):
        raise ValueError("duplicate support values")
    if any(not 0 <= v.numerator <= v.denominator for v in law_support):
        raise ValueError("reward support outside [0,1]")
    n_cuts = (S - 1) + S * A * ((H - 1) * (S - 1) + H * (k - 1))
    # each vector's widths are cut at the next n - 1 cuts, n its length
    cuts = iter(rng.integers(0, GRID + 1, size=n_cuts).tolist())
    init = tuple(grid_widths(islice(cuts, S - 1), "init"))
    sink = _sink_row(S, H, GRID)
    trans, rewards = [], []
    for x in range(1, S + 1):
        t_x, r_x = [], []
        for a in range(1, A + 1):
            t_xa, r_xa = [], []
            for h in range(1, H + 1):
                if h < H:
                    t_xa.append(tuple(grid_widths(islice(cuts, S - 1), (x, a, h))))
                else:
                    t_xa.append(sink)
                probs = grid_widths(islice(cuts, k - 1))
                r_xa.append(checked_dist(law_support, tuple(_GRID_FRACTIONS[probs[i]]
                                                            for i in order)))
            t_x.append(tuple(t_xa))
            r_x.append(tuple(r_xa))
        trans.append(tuple(t_x))
        rewards.append(tuple(r_x))
    return int_model(S, A, H, GRID, init, tuple(trans), tuple(rewards), law_support,
                     checked=True)


def perturb_model(rng: np.random.Generator, model: TabularModel, scale: Fraction,
                  grid: int = GRID) -> TabularModel:
    """A model with transitions (and init) perturbed by at most ~scale in l1.

    Rewards are kept; similarity ignores rewards. Each vector draws its
    two indices, then, when they differ, the amount moved between them,
    each in a scalar call: the stream of one size-2 call for the indices,
    without numpy's cost of a sized call.

    The shift runs on the base's int rows, and only the rows it changes,
    and the stage-H point mass on state 1, are checked again, as ints; the
    reward laws are the base's, checked against the same support.
    """
    budget = as_fraction(scale) / 2
    b, c = budget.numerator, budget.denominator
    D = model.den
    # every row is over E: the base's D, budget's c, the amount's grid
    E = D * c * grid

    def shift(ints, t=None) -> tuple[int, ...]:
        row = [p * c * grid for p in ints]
        n = len(ints)
        # a one-state vector draws nothing
        i, j = (int(rng.integers(0, n)), int(rng.integers(0, n))) if n > 1 else (0, 0)
        if i != j:
            # min(budget, ints[i] / D) * k / grid, over E
            moved = min(b * D, ints[i] * c) * int(rng.integers(0, grid + 1))
            row[i] -= moved
            row[j] += moved
            what = "init" if t is None else "transitions({},{},{})".format(*t)
            check_int_vector(row, E, f"{what}: negative entry", f"{what}: does not sum to 1")
        return tuple(row)

    S, A, H = model.S, model.A, model.H
    init = shift(model.init_nums)
    sink = _sink_row(S, H, E)
    trans = tuple(tuple(tuple(shift(model.transition_nums(x, a, h), (x, a, h))
                              if h < H else sink
                              for h in range(1, H + 1))
                        for a in range(1, A + 1)) for x in range(1, S + 1))
    return int_model(S, A, H, E, init, trans, model.rewards, tuple(sorted(model.reward_support)),
                     checked=True)
