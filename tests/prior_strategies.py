"""Priors that several test modules draw from: the Hypothesis strategy of
small random factored priors, and a hand-built prior whose atoms list one
reward law in opposite orders."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from ielab import DiscreteDist, DiscretePrior, FactoredRewardPrior, all_triples, build_model

MAX_ATOMS = 64
QUARTERS = [Fraction(k, 4) for k in range(5)]


def _bernoulli(mean: Fraction) -> DiscreteDist:
    return DiscreteDist.of([(0, 1 - mean), (1, mean)]) if 0 < mean < 1 \
        else DiscreteDist.point(mean)


@st.composite
def small_priors(draw) -> DiscretePrior:
    """A factored prior on S, A, H <= 2 with at most 64 atoms.

    Every triple's mean-reward marginal puts mass on 0, so the punish
    event of any explored set keeps positive censored mass.
    """
    # weighted toward the larger shapes and atom counts, which plain
    # strategies reach rarely because they favour the simplest draws
    likely = st.sampled_from([True, True, False])
    S, A, H = (2 if draw(likely) else 1 for _ in range(3))
    triples = sorted(all_triples(S, A, H))

    def vec():
        if S == 1:
            return [Fraction(1)]
        p = draw(st.sampled_from(QUARTERS))
        return [p, 1 - p]

    n_trans = draw(st.integers(1, 2))
    tw = draw(st.sampled_from(QUARTERS[1:4])) if n_trans == 2 else Fraction(1)
    trans_atoms = tuple(
        (vec(), {t: vec() for t in triples if t[2] < H}, w)
        for w in ([tw, 1 - tw] if n_trans == 2 else [tw])
    )
    n_atoms = n_trans
    marginals = {}
    for t in triples:
        if n_atoms * 2 <= MAX_ATOMS and draw(likely):
            n_atoms *= 2
            q = draw(st.sampled_from(QUARTERS[1:4]))
            mean = draw(st.sampled_from([Fraction(1, 2), Fraction(1)]))
            marginals[t] = DiscreteDist.of([(0, q), (mean, 1 - q)])
        else:
            marginals[t] = DiscreteDist.point(0)
    if draw(st.booleans()):
        fp = FactoredRewardPrior(S, A, H, trans_atoms, marginals, dist_of_mean=_bernoulli,
                                 reward_support=(0, 1))
    else:
        fp = FactoredRewardPrior(S, A, H, trans_atoms, marginals,
                                 reward_support=(0, Fraction(1, 2), 1))
    return fp.expand()


def mixed_reward_order_prior() -> DiscretePrior:
    """One atom lists its Bernoulli reward law as (1, 0), the other as
    (0, 1); each atom uses one law object at every triple."""
    support = (Fraction(0), Fraction(1))

    def atom(pairs):
        law = DiscreteDist.of(pairs)
        rewards = {t: law for t in all_triples(2, 1, 2)}
        return build_model(2, 1, 2, [Fraction(1, 2), Fraction(1, 2)],
                           {(1, 1, 1): [Fraction(1, 4), Fraction(3, 4)],
                            (2, 1, 1): [1, 0]}, rewards, reward_support=support)

    return DiscretePrior((atom([(1, Fraction(1, 3)), (0, Fraction(2, 3))]),
                          atom([(0, Fraction(1, 2)), (1, Fraction(1, 2))])),
                         (Fraction(1, 2), Fraction(1, 2)))
