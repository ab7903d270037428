from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ielab import priors
from ielab.mdp import TabularModel, as_fraction, reward_table, rollout, transition_table
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
        per_transition_atom = {id(atom.trans_nums) for atom in prior.atoms}
        assert len(per_transition_atom) == len(fp.transition_atoms)


def expand_atom_by_atom(fp: FactoredRewardPrior) -> DiscretePrior:
    """The expansion as each atom used to be built: every TabularModel
    from Fraction rows, through its own Fraction checks, every weight a
    product of Fractions."""
    triples = sorted(fp.reward_marginals)
    lifted = fp._lifted()
    support = tuple(sorted(as_fraction(v) for v in fp.global_support(lifted)))
    atoms, weights = [], []
    for init, transitions, tw in fp.transition_atoms:
        den, init_n, trans_n = transition_table(fp.S, fp.A, fp.H, init, transitions)
        init_t = tuple(Fraction(p, den) for p in init_n)
        trans = tuple(tuple(tuple(tuple(Fraction(p, den) for p in row) for row in by_h)
                            for by_h in by_a) for by_a in trans_n)
        for combo in product(*(lifted[t] for t in triples)):
            w = as_fraction(tw)
            for _, p, _ in combo:
                w *= p
            if w == 0:
                continue
            rewards = reward_table(fp.S, fp.A, fp.H,
                                   {t: law for t, (_, _, law) in zip(triples, combo)})
            atoms.append(TabularModel(fp.S, fp.A, fp.H, init_t, trans, rewards, support))
            weights.append(w)
    return DiscretePrior(tuple(atoms), tuple(weights))


def outcome(build, fp):
    """The built prior's (atoms, weights), or the raised (type, message)."""
    try:
        prior = build(fp)
    except Exception as e:  # noqa: BLE001 - the type is part of the outcome
        return type(e), str(e)
    return prior.atoms, prior.weights


def two_atom_prior(row=(Fraction(1, 2), Fraction(1, 2)), law_values=(0, 1), support=None,
                   first_row=(Fraction(1, 2), Fraction(1, 2)), laws=None):
    """micro_stoch_1's shape with the transition atoms' (1, 2, 1) rows and
    the two mean values of the reward laws given (per triple in ``laws``,
    ``law_values`` elsewhere), each with mass 1/2."""
    half = Fraction(1, 2)
    first = {(x, a, 1): [half, half] for x in (1, 2) for a in (1, 2)}
    second = dict(first)
    first[(1, 2, 1)] = list(first_row)
    second[(1, 2, 1)] = list(row)
    laws = laws or {}
    marginals = {t: DiscreteDist.of([(v, half) for v in laws.get(t, law_values)])
                 for t in product((1, 2), repeat=3)}
    return FactoredRewardPrior(2, 2, 2, transition_atoms=(([half, half], first, half),
                                                          ([half, half], second, half)),
                               reward_marginals=marginals, reward_support=support)


def test_expand_checks_every_transition_atom_and_law():
    """expand checks shared parts once, yet a bad row in the second
    transition atom, or a law with mass outside the global support, raises
    the message building that atom on its own raises; with several faults,
    the first atom built one by one picks the message."""
    bad_row = two_atom_prior(row=(Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match=r"^transitions\(1,2,1\): does not sum to 1$"):
        bad_row.expand()
    off_support = two_atom_prior(law_values=(0, Fraction(1, 2)), support=(0, 1))
    with pytest.raises(ValueError, match="^reward value outside global support$"):
        off_support.expand()
    # second choices fail at (1,1,1) and (2,2,2): the atoms vary the last
    # triple first, so (2,2,2)'s law fails first
    two_laws = two_atom_prior(support=(0, 1), laws={(1, 1, 1): (0, Fraction(3, 2)),
                                                    (2, 2, 2): (0, Fraction(1, 2))})
    with pytest.raises(ValueError, match="^reward value outside global support$"):
        two_laws.expand()
    # the first atom meets (1,1,1)'s law (mean -1/4 sorts first) before the (1,2,1) row
    law_then_row = two_atom_prior(first_row=(Fraction(1, 2), Fraction(1, 3)),
                                  laws={(1, 1, 1): (Fraction(-1, 4), 0)})
    with pytest.raises(ValueError, match=r"^reward support outside \[0,1\]$"):
        law_then_row.expand()
    for fp in (bad_row, off_support, two_laws, law_then_row, two_atom_prior()):
        assert outcome(FactoredRewardPrior.expand, fp) == outcome(expand_atom_by_atom, fp)


MEANS = [0, Fraction(1, 2), Fraction(7, 10), 1] * 4 + [Fraction(3, 2), Fraction(-1, 4)]


@st.composite
def faulty_factored_priors(draw):
    """Small factored priors, some with a fault: a transition row that
    does not sum to 1, has a negative entry or the wrong length, a mean
    outside [0, 1], a reward value outside an explicit global support,
    zero-mass choices or a zero-weight transition atom."""
    S, A, H = (draw(st.integers(1, 2)) for _ in range(3))
    triples = [(x, a, h) for x in range(1, S + 1) for a in range(1, A + 1)
               for h in range(1, H + 1)]

    def vector(n):
        cut = Fraction(draw(st.integers(0, 4)), 4)
        vec = [cut, 1 - cut] if n == 2 else [Fraction(1)]
        fault = draw(st.sampled_from(["none"] * 24 + ["sum", "negative", "length"]))
        if fault == "sum":
            vec[0] += Fraction(1, 8)
        elif fault == "negative" and n == 2:
            vec = [Fraction(-1, 4), Fraction(5, 4)]
        elif fault == "length":
            vec = vec + [Fraction(0)]
        return vec

    n_atoms = draw(st.integers(1, 3))
    tws = [Fraction(draw(st.integers(0, 2)), 1) for _ in range(n_atoms - 1)] + [Fraction(1)]
    total = sum(tws)
    atoms = tuple((vector(S), {(x, a, h): vector(S) for x, a, h in triples if h < H},
                   tw / total) for tw in tws)
    marginals = {}
    for t in triples:
        values = list(dict.fromkeys(draw(st.lists(st.sampled_from(MEANS), min_size=1,
                                                  max_size=2))))
        masses = [Fraction(1)] if len(values) == 1 else draw(st.sampled_from(
            [[Fraction(1, 2)] * 2, [Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]))
        marginals[t] = DiscreteDist(tuple(values), tuple(masses))
    support = draw(st.sampled_from([None, (0, 1), (0, Fraction(1, 2), 1)]))
    return FactoredRewardPrior(S, A, H, atoms, marginals, reward_support=support)


@settings(max_examples=150, deadline=None)
@given(faulty_factored_priors())
def test_expand_matches_atom_by_atom_build(fp):
    """Same atoms and weights, or the same error type and message, as
    building and checking every atom on its own. The atoms that make one
    choice of laws for a state x's triples share one rewards sub-tuple for
    x, whatever their transition atom or their other choices."""
    expanded = outcome(FactoredRewardPrior.expand, fp)
    assert expanded == outcome(expand_atom_by_atom, fp)
    if isinstance(expanded[0], tuple):
        for x in range(fp.S):
            subs = [m.rewards[x] for m in expanded[0]]
            assert len({id(sub) for sub in subs}) == len(set(subs))


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
    for _, steps in ledger.entries:
        state.push_entries([steps])
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
        state.revealed_weights(state.reward_counts)
    censored = censor_ledger(lam, frozenset({(s.x, s.a, s.h)}))
    state = folded_state(det_prior, censored)
    counts = state.reward_counts
    assert not counts[s.x - 1, s.a - 1, s.h - 1].any() and np.isfinite(state.translog).any()
    exact = canonical_posterior(det_prior, censored).weights
    assert state.revealed_weights(counts) == pytest.approx(
        [float(w) for w in exact], abs=1e-12)


def test_float_posterior_sum_check_is_the_rounding_bound(det_prior):
    """Weights normalized as v / sum(v) pass whatever the spread and zeros
    of v; weights 1e-12 off, which a 1e-9 tolerance let through, do not."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = np.exp(rng.uniform(-700, 0, det_prior.n) * rng.random())
        v[rng.random(det_prior.n) < 0.3] = 0.0
        v[0] = 1.0
        priors.check_weight_sums(v / v.sum())
    with pytest.raises(ValueError, match="sum to 1"):
        priors.check_weight_sums(v / v.sum() * (1 + 1e-12))


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
    assert tables.policy_values(two_f)[pol.encoding] == pytest.approx(float(expected),
                                                                      abs=1e-12)


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
    tables = shared_tables(det_prior)
    assert tables.greedy(tables.posterior_from_loglik(np.zeros(det_prior.n))).encoding == 0


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
    holds, and so are float or Fraction masses, or a float den, whose sum
    equals den."""
    n = det_prior.n
    post = Posterior(det_prior, ((3, 1) + (0,) * (n - 2), 4))
    assert post.weights[:3] == (Fraction(3, 4), Fraction(1, 4), 0)
    assert post.support() == {0, 1}
    for masses in [((2, -1) + (0,) * (n - 2), 1),
                   ((1,) * n, n + 1),
                   ((0,) * n, 0),
                   ((1,), 1),
                   ([1 / n] * n, 1.0),
                   ((Fraction(1, n),) * n, 1),
                   ((1,) * n, float(n))]:
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


def test_snapshot_keeps_its_ledgers_through_later_pushes(stoch_prior):
    """A stack's ``snapshot`` holds the ledgers as they stood: after more
    pushes, also past a doubling of the occurrence buffer, its counts,
    translog, visits and occurrences, and each of its rows, equal those of
    a stack that only ever saw the entries before it."""
    tables = shared_tables(stoch_prior)
    rng = np.random.default_rng(4)
    entries = [[rollout(stoch_prior.atoms[int(rng.integers(stoch_prior.n))],
                        tables.policies[int(rng.integers(len(tables.policies)))],
                        rng.random(4).tolist()) for _ in range(3)] for _ in range(9)]
    fast, before = LedgerState(tables, 3), LedgerState(tables, 3)
    for steps in entries[:5]:
        fast.push_entries(steps)
        before.push_entries(steps)
    snap = fast.snapshot()
    for steps in entries[5:]:
        fast.push_entries(steps)
    for got, want in ((snap, before), *((snap.row(r), before.row(r)) for r in range(3))):
        assert np.array_equal(got.counts, want.counts)
        assert np.array_equal(got.translog, want.translog)
        assert np.array_equal(got.visits, want.visits)
        assert np.array_equal(got.occurrences(), want.occurrences())
    assert not np.array_equal(fast.counts, snap.counts)


@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 127, 128, 129, 256, 512, 4096])
def test_stacked_float_operations_equal_their_rows(n):
    """The lockstep run loop rests on these bit identities: on a stack of
    R rows, a row's sum, cumsum, exp and log, and its (R, 1, n) @ (n, P)
    product, equal the same operation on that row alone (``w @ V`` for the
    product). A plain (R, n) @ (n, P) product is not among them. Values
    spread over hundreds of orders of magnitude, with zeros; R includes 1.
    A numpy or BLAS change that breaks one fails here before any golden
    digest does."""
    rng = np.random.default_rng(n)
    for R in (1, 2, 5, 17):
        w = np.exp(rng.uniform(-700, 0, (R, n))) * rng.random((R, 1))
        w[rng.random((R, n)) < 0.2] = 0.0
        V = rng.random((n, 16)) * 10.0 ** rng.integers(-8, 8, (n, 1))
        ll = rng.uniform(-745, 0, (R, n))
        with np.errstate(divide="ignore"):
            pairs = [
                (w.sum(axis=-1), [row.sum() for row in w]),
                (np.cumsum(w, axis=-1), [np.cumsum(row) for row in w]),
                (np.exp(ll), [np.exp(row) for row in ll]),
                (np.log(w), [np.log(row) for row in w]),
                ((w[:, None, :] @ V)[:, 0, :], [row @ V for row in w]),
            ]
        for stacked, rows in pairs:
            for got, want in zip(stacked, rows):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("R", [2, 4, 17])
def test_stacked_policy_values_equal_their_rows(R, monkeypatch, stoch_prior):
    """On micro_stoch_1, ``PriorTables.policy_values`` of a stack of float
    weights is, row for row and bit for bit, ``policy_values`` of that row
    alone, and ``PriorTables.greedy`` of the stack is the per-row choices,
    also with GREEDY_TIE_TOL at 0, where any bit that differed could flip
    a choice. A plain (R, n) @ (n, P) product fails the first check."""
    monkeypatch.setattr(priors, "GREEDY_TIE_TOL", 0.0)
    tables = shared_tables(stoch_prior)
    rng = np.random.default_rng(R)
    w = np.exp(rng.uniform(-700, 0, (R, stoch_prior.n)) * rng.random((R, 1)))
    w[rng.random(w.shape) < 0.2] = 0.0
    w /= w.sum(axis=-1, keepdims=True)
    stacked = tables.policy_values(w)
    for got, row in zip(stacked, w):
        assert np.array_equal(got, tables.policy_values(row))
    assert tables.greedy(w) == [tables.greedy(row) for row in w]


def _stacked_state(prior, R: int, seed: int):
    """A stack of R ledgers of 6 random entries each, row r's rolled out
    under its own atom and policies; and per row a punish-like mask that
    keeps the row's own atom, so no masked posterior is empty."""
    tables = shared_tables(prior)
    rng = np.random.default_rng(seed)
    atoms = rng.integers(prior.n, size=R).tolist()
    fast = LedgerState(tables, R)
    for _ in range(6):
        fast.push_entries([rollout(prior.atoms[j],
                                   tables.policies[int(rng.integers(len(tables.policies)))],
                                   rng.random(2 * prior.shape[2]).tolist()) for j in atoms])
    masks = np.ones((2, R, prior.n), dtype=bool)
    masks[1] = rng.random((R, prior.n)) < 0.5
    masks[1, range(R), atoms] = True
    return tables, fast, masks


@pytest.mark.parametrize("R", [1, 2, 4, 17])
@pytest.mark.parametrize("instance", ["det", "stoch"])
def test_stacked_logliks_and_posteriors_equal_their_rows(instance, R, det_prior, stoch_prior):
    """At the run loop's call sites, on micro_det_1 and micro_stoch_1: a
    stack's ``PriorTables.entry_translog`` and ``reward_loglik`` and its
    ``LedgerState.posteriors`` equal, row for row and bit for bit, each
    row's own result. The -inf entries (zero masses met, the zero column)
    are among them: row 0 of ``odd`` counts a reward outside the
    support."""
    prior = det_prior if instance == "det" else stoch_prior
    tables, fast, masks = _stacked_state(prior, R, seed=R)
    translog = tables.entry_translog(fast.counts)
    odd = fast.counts.copy()
    odd[0, -1] += 1
    odd_translog = tables.entry_translog(odd)
    assert np.isneginf(odd_translog[0]).all() and np.isfinite(translog).any()
    # two signals' reward counts per row, as choose_signal stacks them
    counts = np.stack([fast.reward_counts, fast.reward_counts[::-1]])
    reward = tables.reward_loglik(counts)
    assert np.isneginf(reward).any()
    both = fast.posteriors(masks)
    assert both.shape == (2, R, prior.n)
    for r in range(R):
        one = fast.row(r)
        assert np.array_equal(translog[r], tables.entry_translog(fast.counts[r]))
        assert np.array_equal(odd_translog[r], tables.entry_translog(odd[r]))
        assert np.array_equal(one.translog, tables.entry_translog(one.counts))
        for k in range(2):
            assert np.array_equal(reward[k, r], tables.reward_loglik(counts[k, r]))
        assert np.array_equal(both[:, r], one.posteriors(masks[:, r]))


@pytest.mark.parametrize("R", [1, 2, 4])
def test_stacked_det_values_greedy_and_gaps_equal_their_rows(R, monkeypatch, det_prior):
    """On micro_det_1, a (2, R, n) stack of the run loop's float weights
    (``LedgerState.posteriors``: censored, and restricted to a mask) gives,
    row for row and bit for bit, each row's own ``PriorTables.policy_values``,
    ``greedy`` (with GREEDY_TIE_TOL at 0) and ``split_gap``, also with its
    leading axes flattened to (2R, n). Only these take float weights: the
    exact ``conditional_value`` and ``canonical_gap`` take a ``Posterior``,
    which holds no stack whose rows they could misread as policies."""
    monkeypatch.setattr(priors, "GREEDY_TIE_TOL", 0.0)
    tables, fast, masks = _stacked_state(det_prior, R, seed=R)
    w = fast.posteriors(masks)
    vals = tables.policy_values(w)
    inside = np.random.default_rng(R).random(vals.shape) < 0.5
    inside[..., 0], inside[..., -1] = True, False
    gaps = priors.split_gap(vals, inside)
    rows = [(k, r) for k in range(2) for r in range(R)]
    want = [tables.greedy(w[k, r]) for k, r in rows]
    assert tables.greedy(w) == want
    assert tables.greedy(w.reshape(2 * R, det_prior.n)) == want
    for k, r in rows:
        one = tables.policy_values(w[k, r])
        assert np.array_equal(vals[k, r], one)
        assert np.array_equal(gaps[k, r], priors.split_gap(one, inside[k, r]))


@pytest.mark.parametrize("instance", ["det", "stoch"])
def test_prior_tables_product_operands_are_c_contiguous(instance, det_prior, stoch_prior):
    """Every array of ``PriorTables`` that is an operand of a product is
    C-contiguous, so numpy hands the products to BLAS. It guards against
    a ``mass`` built by ``np.concatenate`` of transposed blocks, which
    comes out F-ordered: ``log_mass``, ``zero_mass`` and the reward rows
    sliced off them are then strided views, on which numpy's matmul skips
    BLAS for its own loop (about 1.5x the time of ``_loglik`` at a run's
    shape)."""
    tables = shared_tables(det_prior if instance == "det" else stoch_prior)
    operands = {"log_mass": tables.log_mass, "zero_mass": tables.zero_mass,
                "path log_mass": tables._path[1], "path zero": tables._path[2],
                "reward log_mass": tables._rewards[0], "reward zero": tables._rewards[1],
                "value_matrix": tables.value_matrix}
    assert [name for name, a in operands.items() if not a.flags.c_contiguous] == []
