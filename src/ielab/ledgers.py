"""Censoring sets, censored trajectories, and ledgers.

A ledger is one censoring set U plus an ordered sequence of
(policy, U-censored trajectory) pairs. Ledger equality is
order-sensitive; ``Ledger.key()`` gives a canonical serialization
usable as an exact dictionary key by the oracle. A ledger's count
signature, on which every canonical posterior depends, is read in the
prior's feature index (``priors.ExactLattice.count_signature``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mdp import Step, TabularModel, TripleSet, all_triples, path_mass


@dataclass(frozen=True)
class CensoredTrajectory:
    """Trajectory with rewards nulled exactly on the censor set."""

    steps: tuple[Step, ...]
    censor_set: TripleSet

    def __post_init__(self):
        for s in self.steps:
            censored = (s.x, s.a, s.h) in self.censor_set
            if censored != (s.r is None):
                raise ValueError("reward censoring must match the censor set")

    def triples(self) -> list[tuple[int, int, int]]:
        return [(s.x, s.a, s.h) for s in self.steps]


def censor_trajectory(traj, U: TripleSet) -> CensoredTrajectory:
    """Null rewards exactly on U; transitions and actions are preserved.

    Accepts a raw Trajectory or an already-censored one whose censor set
    is contained in U (censoring is absorbing; rewards cannot be revealed).
    """
    if isinstance(traj, CensoredTrajectory) and not traj.censor_set <= U:
        raise ValueError("cannot un-censor: new set must contain the old one")
    out = tuple(
        Step(s.x, s.a, s.h, None if (s.x, s.a, s.h) in U else s.r) for s in traj.steps
    )
    return CensoredTrajectory(out, U)


@dataclass(frozen=True)
class Ledger:
    """Censoring set + ordered (policy, censored trajectory) entries."""

    S: int
    A: int
    H: int
    censor_set: TripleSet
    entries: tuple  # of (MarkovPolicy, CensoredTrajectory)

    def __post_init__(self):
        for _, traj in self.entries:
            if traj.censor_set != self.censor_set:
                raise ValueError("all entries must share the ledger's censor set")

    def __len__(self) -> int:
        return len(self.entries)

    def key(self) -> tuple:
        """Canonical hashable serialization (sorted U, entry order kept)."""
        return (
            tuple(sorted(self.censor_set)),
            tuple(
                (pol.encoding, tuple((s.x, s.a, s.h, s.r) for s in traj.steps))
                for pol, traj in self.entries
            ),
        )


def reveal_rewards(ledger: Ledger, U: TripleSet, rewards) -> Ledger:
    """The U-ledger over the ledger's entries that reveals ``rewards``, in
    entry order, at the occurrences outside U and censors those in U.

    ``rewards`` is consumed lazily, one value per revealed occurrence.
    """
    rewards = iter(rewards)
    entries = []
    for pol, traj in ledger.entries:
        steps = tuple(Step(s.x, s.a, s.h, None if (s.x, s.a, s.h) in U else next(rewards))
                      for s in traj.steps)
        entries.append((pol, CensoredTrajectory(steps, U)))
    return Ledger(ledger.S, ledger.A, ledger.H, U, tuple(entries))


def raw_ledger(S, A, H, entries) -> Ledger:
    """Ledger with U = {} from (policy, raw Trajectory) pairs."""
    made = tuple(
        (pol, censor_trajectory(traj, frozenset())) for pol, traj in entries
    )
    return Ledger(S, A, H, frozenset(), made)


def censor_ledger(ledger: Ledger, U: TripleSet) -> Ledger:
    """Re-censor every entry with the (absorbing) set U."""
    if not ledger.censor_set <= U:
        raise ValueError("censoring only coarsens: U must contain the old set")
    return Ledger(
        ledger.S,
        ledger.A,
        ledger.H,
        U,
        tuple((pol, censor_trajectory(traj, U)) for pol, traj in ledger.entries),
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
    for _, traj in ledger.entries:
        prob *= path_mass(model, traj.steps)
        if not prob:
            return prob
    return prob


def ledger_reward_mass(model: TabularModel, ledger: Ledger) -> Fraction:
    """Only the revealed-reward factors of ledger_probability."""
    prob = Fraction(1)
    for _, traj in ledger.entries:
        for s in traj.steps:
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
    for _, traj in ledger.entries:
        for t in set(traj.triples()):
            counts[t] = counts.get(t, 0) + 1
    return counts


def underexplored_set(ledger: Ledger, n_lrn: int) -> TripleSet:
    """Triples visited fewer than n_lrn times across the ledger's entries."""
    counts = visit_counts(ledger)
    return frozenset(
        t for t in all_triples(ledger.S, ledger.A, ledger.H) if counts.get(t, 0) < n_lrn
    )

