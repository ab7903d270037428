"""Fixed desk-scale instances and random families used by tests and demos."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import numpy as np

from .mdp import DiscreteDist, TabularModel, as_fraction
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


def _grid_vector(cuts) -> tuple[Fraction, ...]:
    """The probability vector cut from [0, GRID] at the sorted cuts."""
    cuts = sorted(cuts)
    return tuple(_GRID_FRACTIONS[b - a] for a, b in zip([0, *cuts], [*cuts, GRID]))


def random_model(rng: np.random.Generator, S: int, A: int, H: int,
                 support=(0, Fraction(1, 2), 1)) -> TabularModel:
    """Random rational tabular model (for property tests).

    Every probability vector is cut from a 1/GRID lattice at uniform
    integer points. All of a model's cuts come from one
    ``rng.integers(0, GRID + 1, size=n)`` call, the same stream as n
    scalar calls, taken in the order init, then per (x, a, h) the
    transition row (h < H) and the reward law.
    """
    support = tuple(as_fraction(v) for v in support)
    k = len(support)
    n_cuts = (S - 1) + S * A * ((H - 1) * (S - 1) + H * (k - 1))
    cuts = iter(rng.integers(0, GRID + 1, size=n_cuts).tolist())

    def vector(n: int) -> tuple[Fraction, ...]:
        return _grid_vector(islice(cuts, n - 1))

    init = vector(S)
    sink = tuple(Fraction(int(y == 0)) for y in range(S))
    trans, rewards = [], []
    for _ in range(S):
        t_x, r_x = [], []
        for _ in range(A):
            t_xa, r_xa = [], []
            for h in range(1, H + 1):
                t_xa.append(vector(S) if h < H else sink)
                r_xa.append(DiscreteDist(support, vector(k)))
            t_x.append(tuple(t_xa))
            r_x.append(tuple(r_xa))
        trans.append(tuple(t_x))
        rewards.append(tuple(r_x))
    return TabularModel(S, A, H, init, tuple(trans), tuple(rewards), tuple(sorted(support)))


def perturb_model(rng: np.random.Generator, model: TabularModel, scale: Fraction,
                  grid: int = GRID) -> TabularModel:
    """A model with transitions (and init) perturbed by at most ~scale in l1.

    Rewards are kept; similarity ignores rewards. Each vector draws its
    two indices in one call and, when they differ, the amount moved
    between them.
    """
    budget = as_fraction(scale) / 2

    def shift(vec):
        if len(vec) == 1:
            return vec
        i, j = rng.integers(0, len(vec), size=2).tolist()
        if i == j:
            return vec
        vec = list(vec)
        amount = min(budget, vec[i]) * Fraction(int(rng.integers(0, grid + 1)), grid)
        vec[i] -= amount
        vec[j] += amount
        return tuple(vec)

    S, A, H = model.S, model.A, model.H
    init = shift(model.init)
    sink = tuple(Fraction(int(y == 0)) for y in range(S))
    trans = tuple(tuple(tuple(shift(model.transition(x, a, h)) if h < H else sink
                              for h in range(1, H + 1))
                        for a in range(1, A + 1)) for x in range(1, S + 1))
    return TabularModel(S, A, H, init, trans, model.rewards, tuple(sorted(model.reward_support)))
