"""Censoring sets and ledgers.

A ledger is one censoring set U plus an ordered sequence of
(policy, steps) entries whose rewards are hidden exactly on U. A
``Ledger`` is a frozen dataclass, so a ledger value is its own exact
dictionary key, as the oracle uses it; equality is order-sensitive. A
ledger's count signature, on which every canonical posterior depends, is
read in the prior's feature index (``priors.ExactLattice.count_signature``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mdp import Step, TabularModel, TripleSet, all_triples, path_mass


def censor_trajectory(steps, U: TripleSet) -> tuple[Step, ...]:
    """The steps with rewards nulled exactly on U; transitions and actions
    are preserved."""
    return tuple(Step(s.x, s.a, s.h, None if (s.x, s.a, s.h) in U else s.r) for s in steps)


@dataclass(frozen=True)
class Ledger:
    """Censoring set + ordered (policy, steps) entries, whose rewards are
    hidden exactly on the censor set."""

    S: int
    A: int
    H: int
    censor_set: TripleSet
    entries: tuple  # of (MarkovPolicy, tuple[Step, ...])

    def __post_init__(self):
        U = self.censor_set
        for _, steps in self.entries:
            for s in steps:
                if ((s.x, s.a, s.h) in U) != (s.r is None):
                    raise ValueError("reward censoring must match the censor set")

    def __len__(self) -> int:
        return len(self.entries)


def reveal_rewards(ledger: Ledger, U: TripleSet, rewards) -> Ledger:
    """The U-ledger over the ledger's entries that reveals ``rewards``, in
    entry order, at the occurrences outside U and censors those in U.

    ``rewards`` is consumed lazily, one value per revealed occurrence.
    """
    rewards = iter(rewards)
    entries = tuple(
        (pol, tuple(Step(s.x, s.a, s.h, None if (s.x, s.a, s.h) in U else next(rewards))
                    for s in steps))
        for pol, steps in ledger.entries)
    return Ledger(ledger.S, ledger.A, ledger.H, U, entries)


def raw_ledger(S, A, H, entries) -> Ledger:
    """Ledger with U = {} from (policy, raw Trajectory) pairs."""
    return Ledger(S, A, H, frozenset(), tuple((pol, traj.steps) for pol, traj in entries))


def censor_ledger(ledger: Ledger, U: TripleSet) -> Ledger:
    """Re-censor every entry with the (absorbing) set U."""
    if not ledger.censor_set <= U:
        raise ValueError("censoring only coarsens: U must contain the old set")
    return Ledger(
        ledger.S,
        ledger.A,
        ledger.H,
        U,
        tuple((pol, censor_trajectory(steps, U)) for pol, steps in ledger.entries),
    )


def totally_censor(ledger: Ledger) -> Ledger:
    return censor_ledger(ledger, all_triples(ledger.S, ledger.A, ledger.H))


def ledger_probability(model: TabularModel, ledger: Ledger) -> Fraction:
    """Canonical ledger mass: product of i.i.d. censored-entry masses.

    Censored rewards contribute a factor of 1 (they marginalize out);
    revealed rewards contribute their reward mass, transitions their
    path mass.
    """
    prob = Fraction(1)
    for _, steps in ledger.entries:
        prob *= path_mass(model, steps)
        if not prob:
            return prob
    return prob


def ledger_reward_mass(model: TabularModel, ledger: Ledger) -> Fraction:
    """Only the revealed-reward factors of ledger_probability."""
    prob = Fraction(1)
    for _, steps in ledger.entries:
        for s in steps:
            if s.r is not None:
                prob *= model.reward_dist(s.x, s.a, s.h).mass(s.r)
                if not prob:
                    return prob
    return prob


def visit_counts(ledger: Ledger) -> dict:
    """Number of entries whose trajectory contains each (x,a,h).

    Counts depend only on transitions, so they are censoring-invariant.
    """
    counts: dict = {}
    for _, steps in ledger.entries:
        for t in {(s.x, s.a, s.h) for s in steps}:
            counts[t] = counts.get(t, 0) + 1
    return counts


def underexplored_set(ledger: Ledger, n_lrn: int) -> TripleSet:
    """Triples visited fewer than n_lrn times across the ledger's entries."""
    counts = visit_counts(ledger)
    return frozenset(
        t for t in all_triples(ledger.S, ledger.A, ledger.H) if counts.get(t, 0) < n_lrn
    )

