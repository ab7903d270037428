from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ielab import (
    Ledger,
    all_triples,
    censor_ledger,
    censor_trajectory,
    enumerate_policies,
    enumerate_trajectories,
    ledger_probability,
    raw_ledger,
    totally_censor,
    underexplored_set,
    visit_counts,
)
from ielab.serialize import ledger_from_jsonl, ledger_to_jsonl


def one_traj(model, policy, idx=0):
    return list(enumerate_trajectories(model, policy))[idx][0]


def test_censoring_extremes(det_prior):
    m = det_prior.atoms[11]
    pol = enumerate_policies(2, 2, 2)[5]
    traj = one_traj(m, pol)
    raw = censor_trajectory(traj, frozenset())
    assert [s.r for s in raw.steps] == [s.r for s in traj.steps]
    full = censor_trajectory(traj, all_triples(2, 2, 2))
    assert all(s.r is None for s in full.steps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_censoring_absorption(master):
    rng = np.random.default_rng(master)
    triples = sorted(all_triples(2, 2, 2))
    U = frozenset(t for t in triples if rng.random() < 0.4)
    U2 = U | frozenset(t for t in triples if rng.random() < 0.4)
    from ielab.instances import micro_det_1

    m = micro_det_1().expand().atoms[int(rng.integers(0, 256))]
    pol = enumerate_policies(2, 2, 2)[int(rng.integers(0, 16))]
    traj = one_traj(m, pol)
    once = censor_trajectory(censor_trajectory(traj, U), U2)
    direct = censor_trajectory(traj, U2)
    assert once == direct


def test_ledger_probability_own_raw_ledger(det_prior):
    m = det_prior.atoms[42]
    pol = enumerate_policies(2, 2, 2)[7]
    lam = raw_ledger(2, 2, 2, [(pol, one_traj(m, pol))])
    assert ledger_probability(m, lam) == 1


def test_ledger_probability_foreign_reward_zero(det_prior):
    pol = enumerate_policies(2, 2, 2)[7]
    m_a = det_prior.atoms[0]    # all rewards 0
    m_b = det_prior.atoms[255]  # all rewards 0.8
    lam = raw_ledger(2, 2, 2, [(pol, one_traj(m_b, pol))])
    assert ledger_probability(m_a, lam) == 0


def test_ledger_probability_totally_censored_marginalizes(stoch_prior):
    m = stoch_prior.atoms[200]
    pol = enumerate_policies(2, 2, 2)[13]
    trajs = list(enumerate_trajectories(m, pol))
    lam = totally_censor(raw_ledger(2, 2, 2, [(pol, trajs[0][0])]))
    path = [s.x for s in trajs[0][0].steps]
    expected = sum(p for t, p in trajs if [s.x for s in t.steps] == path)
    assert ledger_probability(m, lam) == expected


def enumerate_censored_ledgers(model, policies, U):
    """All U-censored single-per-policy ledgers with their masses."""
    per_policy = []
    for pol in policies:
        outcomes: dict = {}
        for traj, p in enumerate_trajectories(model, pol):
            c = censor_trajectory(traj, U)
            key = tuple(c.steps)
            outcomes[key] = (c, outcomes.get(key, (None, Fraction(0)))[1] + p)
        per_policy.append([(c, p) for c, p in outcomes.values()])
    for combo in product(*per_policy):
        entries = tuple((pol, c) for pol, (c, _) in zip(policies, combo))
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        yield Ledger(model.S, model.A, model.H, U, entries), prob


def test_censored_ledger_masses_sum_to_one(stoch_prior):
    m = stoch_prior.atoms[77]
    policies = enumerate_policies(2, 2, 2)[3:5]
    U = frozenset({(1, 1, 1), (2, 2, 2)})
    total = Fraction(0)
    for lam, prob in enumerate_censored_ledgers(m, policies, U):
        assert ledger_probability(m, lam) == prob
        total += prob
    assert total == 1


def test_censoring_is_pushforward(stoch_prior):
    """Mass of a censored ledger equals the sum over its raw preimages."""
    m = stoch_prior.atoms[310]
    policies = enumerate_policies(2, 2, 2)[6:8]
    U = frozenset({(1, 2, 1), (1, 1, 2)})
    raw_masses: dict = {}
    for raw_lam, prob in enumerate_censored_ledgers(m, policies, frozenset()):
        key = censor_ledger(raw_lam, U).key()
        raw_masses[key] = raw_masses.get(key, Fraction(0)) + prob
    for lam, _ in enumerate_censored_ledgers(m, policies, U):
        assert ledger_probability(m, lam) == raw_masses.get(lam.key(), Fraction(0))


def test_visit_counts_additive_and_censoring_invariant(det_prior):
    m = det_prior.atoms[63]
    pols = enumerate_policies(2, 2, 2)
    t1, t2 = one_traj(m, pols[0]), one_traj(m, pols[9])
    lam1 = raw_ledger(2, 2, 2, [(pols[0], t1)])
    lam2 = raw_ledger(2, 2, 2, [(pols[0], t1), (pols[9], t2)])
    assert visit_counts(raw_ledger(2, 2, 2, [])) == {}
    c1, c2 = visit_counts(lam1), visit_counts(lam2)
    for t in set(c1) | set(c2):
        extra = 1 if t in set(t2.triples()) else 0
        assert c2.get(t, 0) == c1.get(t, 0) + extra
    assert visit_counts(totally_censor(lam2)) == c2


def test_underexplored_set(det_prior):
    m = det_prior.atoms[17]
    pol = enumerate_policies(2, 2, 2)[0]
    traj = one_traj(m, pol)
    empty = raw_ledger(2, 2, 2, [])
    assert underexplored_set(empty, 1) == all_triples(2, 2, 2)
    lam = raw_ledger(2, 2, 2, [(pol, traj)])
    assert underexplored_set(lam, 1) == all_triples(2, 2, 2) - frozenset(traj.triples())
    twice = raw_ledger(2, 2, 2, [(pol, traj), (pol, traj)])
    assert underexplored_set(twice, 2) == all_triples(2, 2, 2) - frozenset(traj.triples())
    assert underexplored_set(lam, 2) == all_triples(2, 2, 2)


def test_ledger_jsonl_roundtrip(stoch_prior):
    m = stoch_prior.atoms[5]
    pols = enumerate_policies(2, 2, 2)
    U = frozenset({(1, 1, 1), (2, 1, 2)})
    lam = censor_ledger(
        raw_ledger(2, 2, 2, [(pols[3], one_traj(m, pols[3], 1)),
                             (pols[12], one_traj(m, pols[12], 2))]),
        U,
    )
    text = ledger_to_jsonl(lam)
    back = ledger_from_jsonl(text)
    assert back.key() == lam.key()
    assert ledger_to_jsonl(back) == text
