from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ielab import (
    DiscretePrior,
    MechanismConfig,
    PreconditionViolated,
    all_triples,
    build_model,
    canonical_posterior,
    complement_triples,
    empirical_estimators,
    enumerate_policies,
    event_visit_probability,
    first_unexplored_stage,
    good_model_predicate,
    make_agent,
    performance_difference,
    policy_value,
    replay_signals,
    run_game,
    similarity,
    simulation_gap,
    sufficiently_visiting_policies,
    truncated_expected_sum,
)
from ielab.analysis import eps_p_bound, eps_r_bound
from ielab.harness import PERF_PAIRS, SIM_PAIRS, sample_similar_pair
from ielab.instances import GRID, grid_widths, random_model
from ielab.mdp import DiscreteDist, TabularModel, check_int_vector, check_prob_vector


def test_is_punished(det_prior):
    """The punish half of good_model_predicate: a model compared with itself
    is similar, so the predicate holds exactly when every mean reward on the
    fully-explored complement of U is at most eps_pun."""
    m_high = det_prior.atoms[255]  # reward 0.8 everywhere
    everything = all_triples(2, 2, 2)
    assert good_model_predicate(m_high, m_high, everything, "0.1", 0, 0)
    assert good_model_predicate(m_high, m_high, frozenset(), 1, 0, 0)
    assert not good_model_predicate(m_high, m_high, everything - {(1, 1, 1)}, "0.1", 0, 0)
    m_low = det_prior.atoms[0]
    assert good_model_predicate(m_low, m_low, frozenset(), "0.1", 0, 0)


def test_similarity_self_and_disjoint(stoch_prior):
    m = stoch_prior.atoms[42]
    rep = similarity(m, m, all_triples(2, 2, 2))
    assert rep.init_distance == 0
    assert all(d == 0 for d in rep.transition_distances.values())
    assert rep.is_similar(0)
    # disjoint point masses have l1 distance 2
    from ielab.mdp import DiscreteDist

    def point_chain(target):
        return build_model(
            2, 1, 2, [1, 0],
            {(x, 1, 1): ([1, 0] if target == 1 else [0, 1]) for x in (1, 2)},
            {(x, 1, h): DiscreteDist.point(0) for x in (1, 2) for h in (1, 2)},
            reward_support=(0, 1),
        )
    rep2 = similarity(point_chain(1), point_chain(2), frozenset({(1, 1, 1)}))
    assert rep2.transition_distances[(1, 1, 1)] == 2


def test_similarity_micro_stoch_hand_value(stoch_prior, stoch_factored):
    # uniform vs tilted transition structures differ by 1/2 at the two tilted rows
    uniform = stoch_prior.atoms[0]
    tilted = stoch_prior.atoms[256]
    rep = similarity(uniform, tilted, all_triples(2, 2, 2))
    assert rep.init_distance == 0
    assert rep.transition_distances[(1, 1, 1)] == Fraction(1, 2)
    assert rep.transition_distances[(1, 2, 1)] == Fraction(1, 2)
    assert rep.transition_distances[(2, 1, 1)] == 0


def test_simulation_gap_identical_models(stoch_prior):
    m = stoch_prior.atoms[77]
    pol = enumerate_policies(2, 2, 2)[4]
    U = frozenset({(1, 1, 2)})
    lhs, bound = simulation_gap(m, m, U, lambda t: Fraction(1, 2), pol, 0)
    assert lhs == 0 and bound == 0


def test_simulation_gap_indicator_recovers_visit_probability(stoch_prior):
    """With the indicator reward, the truncated sum is exactly the U-visit
    event probability (the lemma's 'in particular' clause)."""
    m1 = stoch_prior.atoms[10]
    m2 = stoch_prior.atoms[266]
    U = frozenset({(2, 1, 2), (1, 2, 1)})
    indicator = lambda t: 1 if t in U else 0
    for pol in enumerate_policies(2, 2, 2)[::3]:
        v1 = truncated_expected_sum(m1, pol, U, indicator)
        assert v1 == event_visit_probability(m1, pol, U)
        rep = similarity(m1, m2, complement_triples(U, 2, 2, 2))
        eps = rep.max_distance()
        lhs, bound = simulation_gap(m1, m2, U, indicator, pol, eps)
        assert lhs == abs(event_visit_probability(m1, pol, U)
                          - event_visit_probability(m2, pol, U))
        assert lhs <= bound


def test_simulation_gap_precondition():
    rng = np.random.default_rng(0)
    m1 = random_model(rng, 2, 1, 2)
    m2 = random_model(rng, 2, 1, 2)
    pol = enumerate_policies(2, 1, 2)[0]
    with pytest.raises(PreconditionViolated):
        simulation_gap(m1, m2, frozenset(), lambda t: 1, pol, 0)
    # the pair's own report, passed in, decides the same way
    rep = similarity(m1, m2, all_triples(2, 1, 2))
    with pytest.raises(PreconditionViolated):
        simulation_gap(m1, m2, frozenset(), lambda t: 1, pol, 0, rep)
    assert simulation_gap(m1, m2, frozenset(), lambda t: 1, pol, rep.max_distance(), rep) == \
        simulation_gap(m1, m2, frozenset(), lambda t: 1, pol, rep.max_distance())


def test_verify_sim_lemma_takes_each_similarity_once(monkeypatch):
    """``verify_sim_lemma`` takes the similarity of each of its 212 draws
    once, in the draw, and hands it to ``simulation_gap``."""
    from ielab import analysis, harness

    calls = []

    def counted(*args):
        calls.append(args)
        return similarity(*args)

    monkeypatch.setattr(harness, "similarity", counted)
    monkeypatch.setattr(analysis, "similarity", counted)
    assert all(check["ok"] for check in harness.verify_sim_lemma())
    assert len(calls) == 212


def test_simulation_gap_randomized_bound():
    rng = np.random.default_rng(13)
    done = 0
    while done < 200:
        base, other, U, rt, pol, rep = sample_similar_pair(rng)
        eps = rep.max_distance()
        if eps == 0:
            continue
        done += 1
        lhs, bound = simulation_gap(base, other, U, lambda t: rt[t], pol, eps, rep)
        assert isinstance(lhs, Fraction) and isinstance(bound, Fraction)
        assert lhs <= bound


def test_performance_difference_identity_cases():
    rng = np.random.default_rng(5)
    m = random_model(rng, 3, 1, 3)
    pol = enumerate_policies(3, 1, 3)[0]
    lhs, rhs, parts = performance_difference(m, m, pol)
    assert lhs == 0 and rhs == 0

    # differ only in the initial distribution: transition and reward terms vanish
    m2 = random_model(rng, 3, 1, 3)
    mixed = build_model(3, 1, 3, m2.init,
                        {t: m.transition(*t) for t in all_triples(3, 1, 3)},
                        {t: m.reward_dist(*t) for t in all_triples(3, 1, 3)},
                        reward_support=m.reward_support)
    lhs, rhs, parts = performance_difference(mixed, m, pol)
    assert all(t == 0 for t in parts["transition_terms"])
    assert all(t == 0 for t in parts["reward_terms"])
    assert lhs == parts["init_term"] == rhs


def test_performance_difference_shared_rewards():
    """On the same reward laws, every reward term is 0 and the identity is
    the Markov-reward-process form: init term plus transition terms."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        m1 = random_model(rng, 3, 2, 3)
        m2 = random_model(rng, 3, 2, 3)
        shared = build_model(3, 2, 3, m2.init,
                             {t: m2.transition(*t) for t in all_triples(3, 2, 3)},
                             {t: m1.reward_dist(*t) for t in all_triples(3, 2, 3)},
                             reward_support=m1.reward_support)
        pol = enumerate_policies(3, 2, 3)[int(rng.integers(0, 2 ** 9))]
        lhs, rhs, parts = performance_difference(m1, shared, pol)
        assert all(t == 0 for t in parts["reward_terms"])
        assert lhs == rhs == parts["init_term"] + sum(parts["transition_terms"])


def test_performance_difference_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        S = int(rng.integers(2, 4))
        A = int(rng.integers(1, 3))
        H = int(rng.integers(2, 4))
        m1 = random_model(rng, S, A, H)
        m2 = random_model(rng, S, A, H)
        pol = enumerate_policies(S, A, H)[int(rng.integers(0, A ** (S * H)))]
        lhs, rhs, _ = performance_difference(m1, m2, pol)
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
        assert lhs == rhs == policy_value(m1, pol) - policy_value(m2, pol)


def test_good_model_predicate(det_prior):
    m = det_prior.atoms[255]  # reward 0.8 everywhere
    # reflexive with eps_pun at the max reward; fails below it
    assert good_model_predicate(m, m, frozenset(), "0.8", 0, 0)
    assert not good_model_predicate(m, m, frozenset(), "0.1", 0, 0)
    # punished but dissimilar
    from ielab.instances import micro_stoch_1

    sp = micro_stoch_1().expand()
    punished_uniform = sp.atoms[0]
    punished_tilted = sp.atoms[256]
    U = frozenset()  # everything fully explored
    assert good_model_predicate(punished_uniform, punished_uniform, U, 0, 0, 0)
    assert not good_model_predicate(punished_tilted, punished_uniform, U, "0.01", 0, "0.1")


def test_error_bound_formulas():
    assert eps_r_bound(0.1, 64) == pytest.approx(math.sqrt(2 * math.log(10) / 64), abs=1e-15)
    assert eps_p_bound(0.1, 64, 2) == pytest.approx(
        2 * math.sqrt(2 * (2 * math.log(5) + math.log(10)) / 64), abs=1e-15
    )


def test_empirical_estimators_deterministic(det_prior, det_config):
    agent = make_agent("fully_rational", det_prior, det_config)
    log = run_game(det_config, det_prior, agent, seed=2, episode_log="hallucination")
    est = empirical_estimators(log, n_lrn=1, S=2)
    m = det_prior.atoms[log.true_atom]
    for t, val in est.theta_r.items():
        assert val == float(m.mean_reward(*t))
    for t, freq in est.theta_p.items():
        assert sum(freq) == pytest.approx(1.0, abs=1e-12)
        expected = [float(p) for p in m.transition(*t)]
        assert freq == expected
    assert est.theta_p0 is not None
    assert sum(est.theta_p0) == pytest.approx(1.0, abs=1e-12)


def test_empirical_estimators_cover_states_no_episode_reaches():
    """Frequency vectors have one entry per model state. Here states 2 and
    3 are reachable but no hallucination episode reaches them; shorter
    vectors would drop their l1 terms when zipped against the true rows."""
    model = build_model(3, 1, 2, ["98/100", "1/100", "1/100"],
                        {(x, 1, 1): [1, 0, 0] for x in (1, 2, 3)},
                        {(x, 1, h): 0 for x in (1, 2, 3) for h in (1, 2)})
    prior = DiscretePrior((model,), (Fraction(1),))
    cfg = MechanismConfig(1, 2, Fraction(1, 4), 4)
    log = run_game(cfg, prior, make_agent("canonical_truster", prior, cfg), seed=0,
                   episode_log="hallucination")
    assert {x for _, _, steps in log.hallucination_history() for x, *_ in steps} == {1}
    est = empirical_estimators(log, n_lrn=2, S=3)
    assert est.theta_p0 == [1.0, 0.0, 0.0]
    assert est.theta_p == {(1, 1, 1): [1.0, 0.0, 0.0]}
    l1 = sum(abs(f - float(p)) for f, p in zip(est.theta_p0, model.init, strict=True))
    assert l1 == pytest.approx(0.04, abs=1e-15)


def test_first_unexplored_stage(det_prior):
    m = det_prior.atoms[7]
    pol = enumerate_policies(2, 2, 2)[0]
    assert first_unexplored_stage(m, pol, all_triples(2, 2, 2)) == 1
    assert first_unexplored_stage(m, pol, frozenset()) == 3
    from ielab.mdp import enumerate_trajectories

    traj = next(iter(enumerate_trajectories(m, pol)))[0]
    t2 = traj.triples()[1]
    assert first_unexplored_stage(m, pol, frozenset({t2})) == 2


def test_sufficiently_visiting_policies(stoch_prior):
    m = stoch_prior.atoms[111]
    pols = enumerate_policies(2, 2, 2)
    assert len(sufficiently_visiting_policies(m, all_triples(2, 2, 2), 1)) == len(pols)
    # an unreachable U: nothing visits state-2 at stage 1 with probability 1/4
    # under a model... state 2 at h=1 ix reachable via init here, so use an
    # empty U instead for the unreachable case
    assert sufficiently_visiting_policies(m, frozenset(), "1/100") == []
    rho0 = Fraction(1, 3)
    U = frozenset({(2, 2, 2)})
    expected = [
        p for p in pols if event_visit_probability(m, p, U) >= rho0
    ]
    assert sufficiently_visiting_policies(m, U, rho0) == expected


def test_deterministic_simulation_lemma_invariant(det_prior, det_config, det_tables):
    """Atoms in the support of the posterior given the hallucinated ledger
    agree with the truth up to the first unexplored stage and are punished
    before it."""
    agent = make_agent("fully_rational", det_prior, det_config)
    log = run_game(det_config, det_prior, agent, seed=6, episode_log="hallucination")
    m_star = det_prior.atoms[log.true_atom]
    from ielab.mdp import deterministic_trajectory

    signals = dict(replay_signals(log, det_prior))
    for p in log.phases:
        lam_hal = signals[p.ell]["hallucinated"]
        post = canonical_posterior(det_prior, lam_hal)
        U = frozenset(tuple(t) for t in p.U)
        for pol in det_tables.policies[::3]:
            h_cut = first_unexplored_stage(m_star, pol, U)
            star_traj = deterministic_trajectory(m_star, pol)
            for i in post.support():
                mu = det_prior.atoms[i]
                traj = deterministic_trajectory(mu, pol)
                for h in range(1, min(h_cut, 2) + 1):
                    if h <= 2:
                        s_mu, s_star = traj.steps[h - 1], star_traj.steps[h - 1]
                        assert (s_mu.x, s_mu.a) == (s_star.x, s_star.a)
                for h in range(1, min(h_cut, 3)):
                    if h <= 2:
                        s_mu = traj.steps[h - 1]
                        assert mu.mean_reward(s_mu.x, s_mu.a, h) <= det_config.eps_pun


def test_value_bounds_on_good_models(stoch_prior, stoch_tables):
    """Posterior atoms given a hallucinated ledger obey the good-model value
    bounds at generous tolerances."""
    cfg = MechanismConfig(70218, 4, Fraction(7, 2880), 60, rho=Fraction(1, 4))
    agent = make_agent("canonical_truster", stoch_prior, cfg)
    log = run_game(cfg, stoch_prior, agent, seed=8, episode_log="hallucination")
    m_star = stoch_prior.atoms[log.true_atom]
    eps_r, eps_p = 0.25, 0.2
    checked = 0
    signals = dict(replay_signals(log, stoch_prior))
    for p in log.phases[-10:]:
        U = frozenset(tuple(t) for t in p.U)
        lam_hal = signals[p.ell]["hallucinated"]
        post = canonical_posterior(stoch_prior, lam_hal)
        H = 2
        for i, w in enumerate(post.weights):
            if w < 1e-6:
                continue
            mu = stoch_prior.atoms[i]
            if not good_model_predicate(mu, m_star, U, cfg.eps_pun, eps_r, eps_p):
                continue
            checked += 1
            for pol in stoch_tables.policies[::5]:
                value = float(stoch_tables.value_matrix[i, pol.encoding])
                p_star = event_visit_probability(m_star, pol, U)
                upper = (H * p_star + H * (2 * eps_r + float(cfg.eps_pun))
                         + H * (H - 1) * eps_p)
                assert value <= upper + 1e-9
                from ielab.mdp import occupancy_omega

                omega = occupancy_omega(m_star, pol, U)
                lower = sum(
                    float(mu.mean_reward(*t)) * v for t, v in omega.items()
                ) - H * (H - 1) * eps_p
                assert value >= lower - 1e-9
    assert checked > 0


def _fraction_l1(p, q) -> Fraction:
    return sum((abs(a - b) for a, b in zip(p, q)), Fraction(0))


def _probability_vector(weights) -> list[Fraction]:
    """The weights normalized, or a point mass on state 1 if all are 0."""
    total = sum(weights)
    return [w / total for w in weights] if total else [Fraction(int(i == 0))
                                                       for i in range(len(weights))]


weight = st.fractions(min_value=0, max_value=1, max_denominator=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(weight, weight, weight), min_size=1, max_size=3))
def test_l1_over_common_denominator_matches_fraction_sum(rows):
    """similarity's l1, taken on both models' int rows over the product
    of their denominators, equals the plain Fraction sum of |p - q|: two
    one-action models whose init vectors and transition rows have
    unrelated denominators (up to 40 before normalizing)."""
    S = len(rows)
    p, q, r = (_probability_vector(w) for w in zip(*rows))
    zero = {(x, 1, h): 0 for x in range(1, S + 1) for h in (1, 2)}
    m1 = build_model(S, 1, 2, p, {(x, 1, 1): q for x in range(1, S + 1)}, zero)
    m2 = build_model(S, 1, 2, q, {(x, 1, 1): r for x in range(1, S + 1)}, zero)
    rep = similarity(m1, m2, all_triples(S, 1, 2))
    assert rep.init_distance == _fraction_l1(p, q)
    for (x, a, h), d in rep.transition_distances.items():
        assert d == (_fraction_l1(q, r) if h == 1 else 0)


def fraction_view_ints(m) -> tuple:
    """(den, init, trans) of the model's Fraction views: every entry as an
    int over the lcm of their denominators."""
    rows = [m.init, *[row for by_a in m.trans for by_h in by_a for row in by_h]]
    den = math.lcm(*[p.denominator for row in rows for p in row])

    def ints(row):
        return tuple(p.numerator * (den // p.denominator) for p in row)

    return den, ints(m.init), tuple(tuple(tuple(ints(row) for row in by_h) for by_h in by_a)
                                    for by_a in m.trans)


def test_int_side_checks_equal_fraction_checks():
    """Every model of ``verify_sim_lemma``'s own stream, ``default_rng(7)``
    (its 212 similar-pair draws, base and perturbed model each, also the
    eps = 0 draws it skips, then its 200 performance-difference models),
    built and checked on the grid's ints, passes four references: its
    stored int rows are the ints of its Fraction views over their lcm;
    the public constructor accepts those views and builds an equal model;
    each law equals the DiscreteDist the public constructor builds from
    its support and probabilities; and ``similarity`` equals the plain
    Fraction sum of |p - q| on every vector."""
    rng = np.random.default_rng(7)
    pairs = []
    tested = 0
    while tested < SIM_PAIRS:
        base, other, _, _, _, rep = sample_similar_pair(rng)
        tested += rep.max_distance() != 0
        pairs.append((base, other))
    n_similar = len(pairs)
    for _ in range(PERF_PAIRS):
        S = int(rng.integers(2, 4))
        H = int(rng.integers(2, 4))
        pairs.append((random_model(rng, S, 1, H), random_model(rng, S, 1, H)))
    assert (n_similar, len(pairs) - n_similar) == (212, PERF_PAIRS)
    for m1, m2 in pairs:
        everything = all_triples(m1.S, m1.A, m1.H)
        for m in (m1, m2):
            assert (m.den, m.init_nums, m.trans_nums) == fraction_view_ints(m)
            assert TabularModel(m.S, m.A, m.H, m.init, m.trans, m.rewards,
                                m.reward_support) == m
            for t in everything:
                law = m.reward_dist(*t)
                assert law == DiscreteDist(law.support, law.probs)
        rep = similarity(m1, m2, everything)
        assert rep.init_distance == _fraction_l1(m1.init, m2.init)
        assert rep.transition_distances == {
            t: _fraction_l1(m1.transition(*t), m2.transition(*t)) for t in everything}


def test_prior_atoms_store_their_fraction_views_over_the_lcm(det_prior, stoch_prior):
    """Every atom of both bundled priors stores the ints of its Fraction
    views over their lcm."""
    for m in (*det_prior.atoms, *stoch_prior.atoms):
        assert (m.den, m.init_nums, m.trans_nums) == fraction_view_ints(m)


def test_grid_int_checks_raise_the_fraction_messages():
    """Negative control: int widths with a negative entry, or summing to
    GRID - 1, raise the ValueError that check_prob_vector raises on the
    same vector as Fractions over GRID; so does a cut outside [0, GRID]
    in ``grid_widths``, which builds its message only then and names the
    vector as TabularModel and DiscreteDist do: init, a transition row by
    its (x, a, h), a reward law by the law's own text."""
    negative, not_one = "init: negative entry", "init: does not sum to 1"
    for widths in ([-1, GRID + 1], [0, GRID - 1], [GRID - 2, 1, 0]):
        with pytest.raises(ValueError) as want:
            check_prob_vector([Fraction(w, GRID) for w in widths], negative, not_one)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            check_int_vector(widths, GRID, negative, not_one)
    for where, message in (("init", negative),
                           ((2, 1, 1), "transitions(2,1,1): negative entry"),
                           (None, "negative probability")):
        for cuts in ([GRID + 1], [-1, 5]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                grid_widths(cuts, where)
    assert grid_widths([GRID, 0, 5], "init") == [0, 5, GRID - 5, 0]
