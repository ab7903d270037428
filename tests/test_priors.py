from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ielab import (
    DegenerateSplit,
    DiscreteDist,
    DiscretePrior,
    FactoredRewardPrior,
    MarkovPolicy,
    ZeroEvidence,
    bayes_greedy,
    build_model,
    canonical_gap,
    canonical_posterior,
    conditional_value,
    enumerate_policies,
    enumerate_trajectories,
    f_min,
    ledger_probability,
    optimal_value,
    policy_value,
    prior_as_posterior,
    r_min,
    raw_ledger,
)
from ielab.priors import LedgerState, Posterior, over_common_den, shared_tables


def test_f_min_examples(det_factored, det_prior):
    assert f_min(det_factored, "0.1") == Fraction(1, 2)
    assert f_min(det_prior, "0.1") == Fraction(1, 2)
    assert f_min(det_prior, 1) == 1
    # all-positive support at eps=0
    fp = FactoredRewardPrior(
        1, 1, 1,
        transition_atoms=(([1], {}, 1),),
        reward_marginals={(1, 1, 1): DiscreteDist.of([("0.3", "0.5"), ("0.8", "0.5")])},
    )
    assert fp.f_min(0) == 0


def test_r_min_examples(det_factored, det_prior):
    assert r_min(det_factored) == Fraction(2, 5)
    assert r_min(det_prior) == Fraction(2, 5)
    fp = FactoredRewardPrior(
        1, 1, 2,
        transition_atoms=(([1], {(1, 1, 1): [1]}, 1),),
        reward_marginals={
            (1, 1, 1): DiscreteDist.point("0.3"),
            (1, 1, 2): DiscreteDist.of([(0, "0.25"), (1, "0.75")]),
        },
    )
    assert fp.r_min() == Fraction(3, 10)
    # heterogeneous: brute force over the expansion agrees
    assert r_min(fp.expand()) == fp.r_min()


def test_factored_expansion_consistency(stoch_factored, stoch_prior):
    for eps in ("0.1", "0.7", "0.05"):
        assert stoch_factored.f_min(eps) == f_min(stoch_prior, eps)
    assert stoch_factored.r_min() == r_min(stoch_prior)


def test_expansion_atoms_equal_build_model(det_factored, det_prior, stoch_factored,
                                           stoch_prior):
    """expand coerces each transition atom's vectors once and shares them
    across its reward combinations; every atom equals the build_model of
    its transition atom and reward laws."""
    for fp, prior in ((det_factored, det_prior), (stoch_factored, stoch_prior)):
        support = fp.global_support()
        for atom in prior.atoms:
            rewards = {t: atom.reward_dist(*t) for t in fp.reward_marginals}
            assert any(
                build_model(fp.S, fp.A, fp.H, init, transitions, rewards,
                            reward_support=support) == atom
                for init, transitions, _ in fp.transition_atoms
            )
        per_transition_atom = {id(atom.trans) for atom in prior.atoms}
        assert len(per_transition_atom) == len(fp.transition_atoms)


def test_canonical_posterior_empty_ledger_is_prior(det_prior):
    post = canonical_posterior(det_prior, raw_ledger(2, 2, 2, []))
    assert post.weights == det_prior.weights


def test_canonical_posterior_consistency_filter(det_prior):
    pol = enumerate_policies(2, 2, 2)[0]
    m = det_prior.atoms[200]
    traj = next(iter(enumerate_trajectories(m, pol)))[0]
    lam = raw_ledger(2, 2, 2, [(pol, traj)])
    post = canonical_posterior(det_prior, lam)
    support = post.support()
    for i in support:
        atom = det_prior.atoms[i]
        for t in traj.triples():
            assert atom.mean_reward(*t) == m.mean_reward(*t)
    assert sum(post.weights) == 1


def test_canonical_posterior_brute_force_bayes(stoch_prior):
    pol = enumerate_policies(2, 2, 2)[11]
    m = stoch_prior.atoms[17]
    traj = list(enumerate_trajectories(m, pol))[1][0]
    lam = raw_ledger(2, 2, 2, [(pol, traj)])
    post = canonical_posterior(stoch_prior, lam)
    raw = [
        w * ledger_probability(atom, lam)
        for atom, w in zip(stoch_prior.atoms, stoch_prior.weights)
    ]
    total = sum(raw)
    assert post.weights == tuple(v / total for v in raw)


def test_sequential_conditioning_consistency(stoch_prior):
    pols = enumerate_policies(2, 2, 2)
    m = stoch_prior.atoms[390]
    t1 = list(enumerate_trajectories(m, pols[2]))[0][0]
    t2 = list(enumerate_trajectories(m, pols[9]))[2][0]
    both = raw_ledger(2, 2, 2, [(pols[2], t1), (pols[9], t2)])
    joint = canonical_posterior(stoch_prior, both)
    first = canonical_posterior(stoch_prior, raw_ledger(2, 2, 2, [(pols[2], t1)]))
    # condition the reweighted prior on the second entry alone
    reweighted = DiscretePrior(stoch_prior.atoms, first.weights)
    second = canonical_posterior(reweighted, raw_ledger(2, 2, 2, [(pols[9], t2)]))
    assert second.weights == joint.weights


def test_zero_evidence(det_prior):
    pol = enumerate_policies(2, 2, 2)[0]
    m1, m2 = det_prior.atoms[5], det_prior.atoms[250]
    t1 = next(iter(enumerate_trajectories(m1, pol)))[0]
    t2 = next(iter(enumerate_trajectories(m2, pol)))[0]
    lam = raw_ledger(2, 2, 2, [(pol, t1), (pol, t2)])
    with pytest.raises(ZeroEvidence):
        canonical_posterior(det_prior, lam)


def folded_state(prior, ledger) -> LedgerState:
    """The run loop's float state of a ledger, its entries pushed in order."""
    state = LedgerState(shared_tables(prior))
    for _, traj in ledger.entries:
        state.push_entry(traj)
    return state


def test_out_of_support_reward_has_mass_zero_on_both_routes(det_prior):
    """A revealed reward outside the support has mass 0 under every atom:
    the exact canonical posterior and the run loop's float posterior of the
    folded ledger both raise ZeroEvidence. Censoring that occurrence leaves
    a consistent ledger whose reward counts skip it."""
    from ielab import Step, Trajectory, censor_ledger

    pol = enumerate_policies(2, 2, 2)[0]
    traj = next(iter(enumerate_trajectories(det_prior.atoms[5], pol)))[0]
    s = traj.steps[0]
    odd = Trajectory((Step(s.x, s.a, s.h, Fraction(1, 3)), *traj.steps[1:]))
    lam = raw_ledger(2, 2, 2, [(pol, traj), (pol, odd)])
    with pytest.raises(ZeroEvidence):
        canonical_posterior(det_prior, lam)
    state = folded_state(det_prior, lam)
    with pytest.raises(ZeroEvidence):
        state.revealed_posterior(state.reward_counts)
    censored = censor_ledger(lam, frozenset({(s.x, s.a, s.h)}))
    state = folded_state(det_prior, censored)
    counts = state.reward_counts
    assert not counts[s.x - 1, s.a - 1, s.h - 1].any() and np.isfinite(state.translog).any()
    exact = canonical_posterior(det_prior, censored).weights
    assert state.revealed_posterior(counts).weights == pytest.approx(
        [float(w) for w in exact], abs=1e-12)


def test_float_posterior_sum_check_is_the_rounding_bound(det_prior):
    """Weights normalized as v / sum(v) pass whatever the spread and zeros
    of v; weights 1e-12 off, which a 1e-9 tolerance let through, do not."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = np.exp(rng.uniform(-700, 0, det_prior.n) * rng.random())
        v[rng.random(det_prior.n) < 0.3] = 0.0
        v[0] = 1.0
        Posterior(det_prior, v / v.sum())
    with pytest.raises(ValueError, match="sum to 1"):
        Posterior(det_prior, v / v.sum() * (1 + 1e-12))


def test_conditional_value_linearity(det_prior):
    pol = enumerate_policies(2, 2, 2)[4]
    point = canonical_posterior(
        det_prior,
        raw_ledger(2, 2, 2, []),
        event=frozenset({33}),
    )
    assert conditional_value(point, pol) == policy_value(det_prior.atoms[33], pol)
    two = canonical_posterior(det_prior, raw_ledger(2, 2, 2, []),
                              event=frozenset({10, 20}))
    v = conditional_value(two, pol)
    expected = (policy_value(det_prior.atoms[10], pol)
                + policy_value(det_prior.atoms[20], pol)) / 2
    assert v == expected
    # the run loop's float posterior of the same event agrees
    tables = shared_tables(det_prior)
    two_f = tables.posterior_from_loglik(np.zeros(det_prior.n),
                                         tables.event_mask(frozenset({10, 20})))
    assert conditional_value(two_f, pol) == pytest.approx(float(expected), abs=1e-12)


def test_canonical_gap_properties(stoch_prior, stoch_tables):
    post = prior_as_posterior(stoch_prior)
    pols = stoch_tables.policies
    vals = [conditional_value(post, p) for p in pols]
    best = max(range(len(pols)), key=lambda i: vals[i])
    Pi = {pols[best]}
    g = canonical_gap(post, Pi)
    assert g >= 0
    comp = set(pols) - Pi
    assert canonical_gap(post, comp) == -g
    with pytest.raises(DegenerateSplit):
        canonical_gap(post, set())
    with pytest.raises(DegenerateSplit):
        canonical_gap(post, set(pols))


def test_canonical_gap_symmetric_split_is_zero(det_prior, det_tables):
    """Swapping actions 1 and 2 everywhere maps the class onto itself, so the
    two symmetric policy halves have equal best values under the prior."""
    post = prior_as_posterior(det_prior)
    pols = det_tables.policies
    def swap(p):
        table = tuple(tuple(3 - a for a in row) for row in p.actions)
        return MarkovPolicy(table, 2)
    half = {p for p in pols if p.encoding < swap(p).encoding}
    rest = set(pols) - half
    # prior is symmetric in rewards, transitions are not; use a reward-only
    # value comparison: under the flat prior all policies have equal value.
    g = canonical_gap(post, half)
    assert g == 0
    assert canonical_gap(post, rest) == 0


def test_bayes_greedy_point_mass_matches_dp(det_prior):
    for idx in (0, 77, 255):
        point = canonical_posterior(det_prior, raw_ledger(2, 2, 2, []),
                                    event=frozenset({idx}))
        pol = bayes_greedy(point)
        m = det_prior.atoms[idx]
        assert policy_value(m, pol) == optimal_value(m)


def test_bayes_greedy_tie_break_smallest_encoding(det_prior):
    # flat prior: every policy has conditional value 0.8, so the canonical
    # tie-break must return encoding 0
    post = prior_as_posterior(det_prior)
    assert bayes_greedy(post).encoding == 0
    post_f = shared_tables(det_prior).posterior_from_loglik(np.zeros(det_prior.n))
    assert bayes_greedy(post_f).encoding == 0


def test_bayes_greedy_brute_force(stoch_prior, stoch_tables):
    pol0 = enumerate_policies(2, 2, 2)[14]
    m = stoch_prior.atoms[100]
    traj = list(enumerate_trajectories(m, pol0))[3][0]
    lam = raw_ledger(2, 2, 2, [(pol0, traj)])
    post = canonical_posterior(stoch_prior, lam)
    got = bayes_greedy(post)
    vals = {p.encoding: conditional_value(post, p)
            for p in stoch_tables.policies}
    vmax = max(vals.values())
    winners = [e for e, v in vals.items() if v == vmax]
    assert got.encoding == min(winners)


def test_bayes_greedy_rescaling_invariance(stoch_prior):
    """Scaling all unnormalized masses by a positive constant cannot change
    the argmax: over their sum they give the canonical posterior's weights."""
    pol0 = enumerate_policies(2, 2, 2)[1]
    m = stoch_prior.atoms[260]
    traj = list(enumerate_trajectories(m, pol0))[0][0]
    lam = raw_ledger(2, 2, 2, [(pol0, traj)])
    post = canonical_posterior(stoch_prior, lam)
    raw = [w * ledger_probability(atom, lam) * 7
           for atom, w in zip(stoch_prior.atoms, stoch_prior.weights)]
    nums, _ = over_common_den(raw)
    scaled = Posterior(stoch_prior, (nums, sum(nums)))
    assert scaled.weights == post.weights
    assert bayes_greedy(scaled) == bayes_greedy(post)


def test_exact_posterior_masses_are_checked(det_prior):
    """An exact posterior stores n nonnegative ints over a positive den
    equal to their sum; a negative mass is rejected even when the sum
    holds."""
    n = det_prior.n
    post = Posterior(det_prior, ((3, 1) + (0,) * (n - 2), 4))
    assert post.weights[:3] == (Fraction(3, 4), Fraction(1, 4), 0)
    assert post.support() == {0, 1}
    for masses in [((2, -1) + (0,) * (n - 2), 1),
                   ((1,) * n, n + 1),
                   ((0,) * n, 0),
                   ((1,), 1)]:
        with pytest.raises(ValueError, match="nonnegative ints"):
            Posterior(det_prior, masses)


def test_expansion_cap():
    from ielab.errors import CapExceeded

    marginals = {
        (x, a, h): DiscreteDist.of([(0, "0.5"), (1, "0.5")])
        for x in (1, 2) for a in (1, 2) for h in (1, 2)
    }
    fp = FactoredRewardPrior(
        2, 2, 2,
        transition_atoms=(([1, 0], {(x, a, 1): [1, 0] for x in (1, 2) for a in (1, 2)}, 1),),
        reward_marginals=marginals,
    )
    with pytest.raises(CapExceeded):
        fp.expand(cap=10)
