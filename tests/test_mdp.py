from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ielab import (
    CapExceeded,
    DiscreteDist,
    MarkovPolicy,
    all_triples,
    build_model,
    enumerate_policies,
    enumerate_trajectories,
    event_visit_probability,
    occupancy_omega,
    policy_value,
    reach_probability,
    reach_set,
    sample_trajectory,
    trajectory_probability,
)
from ielab.instances import random_model
from ielab.mdp import deterministic_trajectory, path_mass, rollout, rollout_rows
from ielab.rng import sample_index, stream


def constant_reward_model(S, A, H, value):
    transitions = {
        (x, a, h): [Fraction(1, S)] * S
        for x in range(1, S + 1) for a in range(1, A + 1) for h in range(1, H)
    }
    rewards = {
        (x, a, h): DiscreteDist.point(value)
        for x in range(1, S + 1) for a in range(1, A + 1) for h in range(1, H + 1)
    }
    init = [Fraction(1, S)] * S
    return build_model(S, A, H, init, transitions, rewards)


def test_policy_value_zero_rewards():
    m = constant_reward_model(1, 1, 1, 0)
    pol = enumerate_policies(1, 1, 1)[0]
    assert policy_value(m, pol) == 0


def test_policy_value_constant_sum():
    m = constant_reward_model(1, 1, 3, "0.5")
    pol = enumerate_policies(1, 1, 3)[0]
    assert policy_value(m, pol) == Fraction(3, 2)


def brute_force_value(model, policy):
    """Independent oracle: exhaustive path enumeration weighted by probability."""
    return sum(p * traj.reward_sum() for traj, p in enumerate_trajectories(model, policy))


def test_policy_value_micro_det_brute_force(det_prior):
    always_one = MarkovPolicy(((1, 1), (1, 1)), 2)
    for atom in det_prior.atoms[:16]:
        expected = brute_force_value(atom, always_one)
        assert policy_value(atom, always_one) == expected


def test_policy_value_matches_enumeration_stoch(stoch_prior):
    pols = enumerate_policies(2, 2, 2)
    for atom in stoch_prior.atoms[::97]:
        for pol in pols[::5]:
            value = policy_value(atom, pol)
            assert isinstance(value, Fraction) and value == brute_force_value(atom, pol)


def test_trajectory_probability_deterministic(det_prior):
    m = det_prior.atoms[7]
    pol = MarkovPolicy(((2, 1), (1, 2)), 2)
    trajs = list(enumerate_trajectories(m, pol))
    assert len(trajs) == 1
    traj, p = trajs[0]
    assert p == 1
    assert trajectory_probability(m, pol, traj) == 1
    # any other consistent-length trajectory has probability 0
    other = det_prior.atoms[0]
    for t2, _ in enumerate_trajectories(other, pol):
        if t2 != traj:
            assert trajectory_probability(m, pol, t2) == 0


def test_trajectory_probabilities_sum_to_one(stoch_prior):
    pol = enumerate_policies(2, 2, 2)[9]
    for atom in stoch_prior.atoms[::111]:
        total = sum(p for _, p in enumerate_trajectories(atom, pol))
        assert total == 1
        recomputed = sum(
            trajectory_probability(atom, pol, t)
            for t, _ in enumerate_trajectories(atom, pol)
        )
        assert recomputed == 1


def test_sample_trajectory_deterministic_model(det_prior):
    m = det_prior.atoms[3]
    pol = MarkovPolicy(((1, 2), (2, 1)), 2)
    expected = next(iter(enumerate_trajectories(m, pol)))[0]
    for seed in (0, 1, 99):
        assert sample_trajectory(m, pol, stream(seed, "t")) == expected


def test_sample_trajectory_replay_contract(stoch_prior):
    m = stoch_prior.atoms[300]
    pol = enumerate_policies(2, 2, 2)[6]
    t1 = sample_trajectory(m, pol, stream(42, "traj", 9))
    t2 = sample_trajectory(m, pol, stream(42, "traj", 9))
    assert t1 == t2
    # distinct families decorrelate at equal indices
    draws_a = [sample_trajectory(m, pol, stream(42, "traj", k)) for k in range(64)]
    draws_b = [sample_trajectory(m, pol, stream(42, "other", k)) for k in range(64)]
    assert draws_a != draws_b


def test_sample_trajectory_frequencies(stoch_prior):
    m = stoch_prior.atoms[123]
    pol = enumerate_policies(2, 2, 2)[10]
    pmf = {tuple(t.steps): float(p) for t, p in enumerate_trajectories(m, pol)}
    n = 100_000
    rng = stream(7, "freq")
    counts: dict = {}
    for _ in range(n):
        t = sample_trajectory(m, pol, rng)
        counts[tuple(t.steps)] = counts.get(tuple(t.steps), 0) + 1
    for key, p in pmf.items():
        if p == 0:
            continue
        se = (p * (1 - p) / n) ** 0.5
        assert abs(counts.get(key, 0) / n - p) <= 3 * se + 1e-9


@pytest.mark.parametrize("S,A,H,count", [(1, 2, 1, 2), (2, 2, 2, 16), (3, 2, 3, 512)])
def test_enumerate_policies_counts(S, A, H, count):
    pols = enumerate_policies(S, A, H)
    assert len(pols) == count
    assert [p.encoding for p in pols] == list(range(count))


def test_enumerate_policies_cap():
    with pytest.raises(CapExceeded):
        enumerate_policies(4, 4, 4, cap=10**3)


def forward_visit_probability(model, policy, x, h):
    """Independent oracle: forward state-distribution recursion."""
    dist = {s: model.init[s - 1] for s in range(1, model.S + 1)}
    for tau in range(1, h):
        nxt = {s: Fraction(0) for s in range(1, model.S + 1)}
        for s, mass in dist.items():
            row = model.transition(s, policy.action(s, tau), tau)
            for y in range(model.S):
                nxt[y + 1] += mass * row[y]
        dist = nxt
    return dist[x]


def test_reach_probability_initial_state():
    m = constant_reward_model(2, 2, 2, 0)
    # init is uniform; build a point-mass-init variant
    m2 = build_model(
        2, 2, 2, [1, 0],
        {(x, a, 1): [1, 0] for x in (1, 2) for a in (1, 2)},
        {(x, a, h): DiscreteDist.point(0) for x in (1, 2) for a in (1, 2) for h in (1, 2)},
    )
    assert reach_probability(m2, 1, 1) == 1
    # state 2 unreachable in this chain
    assert reach_probability(m2, 2, 1) == 0
    assert reach_probability(m2, 2, 2) == 0
    assert m.S == 2  # fixture sanity


def test_reach_probability_brute_force(stoch_prior):
    pols = enumerate_policies(2, 2, 2)
    for atom in stoch_prior.atoms[::131]:
        for x in (1, 2):
            for h in (1, 2):
                brute = max(forward_visit_probability(atom, p, x, h) for p in pols)
                assert reach_probability(atom, x, h) == brute


def test_reach_set_deterministic_is_trajectory_union(det_prior):
    m = det_prior.atoms[0]
    pols = enumerate_policies(2, 2, 2)
    visited = set()
    for p in pols:
        traj = next(iter(enumerate_trajectories(m, p)))[0]
        visited.update(traj.triples())
    assert reach_set(m, 1) == frozenset(visited)


def test_reach_set_bounds_and_single_state():
    m = constant_reward_model(1, 2, 2, 0)
    assert reach_set(m, 1) == all_triples(1, 2, 2)
    with pytest.raises(ValueError):
        reach_set(m, "11/10")


def test_reach_set_quarter_brute_force(stoch_prior):
    pols = enumerate_policies(2, 2, 2)
    for atom in stoch_prior.atoms[::149]:
        got = reach_set(atom, "1/4")
        for x in (1, 2):
            for h in (1, 2):
                brute = max(forward_visit_probability(atom, p, x, h) for p in pols)
                for a in (1, 2):
                    assert ((x, a, h) in got) == (brute >= Fraction(1, 4))


def test_event_visit_probability_extremes(stoch_prior):
    m = stoch_prior.atoms[50]
    pol = enumerate_policies(2, 2, 2)[3]
    assert event_visit_probability(m, pol, all_triples(2, 2, 2)) == 1
    assert event_visit_probability(m, pol, frozenset()) == 0


def test_event_visit_probability_enumeration(stoch_prior):
    m = stoch_prior.atoms[387]
    U = frozenset({(2, 1, 2)})
    for pol in enumerate_policies(2, 2, 2)[::3]:
        brute = sum(
            p for t, p in enumerate_trajectories(m, pol)
            if any(tr in U for tr in t.triples())
        )
        assert event_visit_probability(m, pol, U) == brute


def test_occupancy_empty_U(stoch_prior):
    m = stoch_prior.atoms[0]
    pol = enumerate_policies(2, 2, 2)[0]
    assert occupancy_omega(m, pol, frozenset()) == {}


def test_occupancy_decomposition_micro(stoch_prior):
    pols = enumerate_policies(2, 2, 2)
    Us = [
        frozenset({(1, 1, 1)}),
        frozenset({(2, 1, 2), (1, 2, 1)}),
        all_triples(2, 2, 2),
        frozenset({(1, 1, 2), (2, 2, 2), (2, 1, 1)}),
    ]
    for atom in stoch_prior.atoms[::173]:
        for pol in pols[::4]:
            for U in Us:
                omega = occupancy_omega(atom, pol, U)
                total = sum(omega.values())
                assert total == event_visit_probability(atom, pol, U)


def test_occupancy_per_triple_enumeration(stoch_prior):
    m = stoch_prior.atoms[444]
    U = frozenset({(1, 1, 1), (2, 2, 2)})
    for pol in enumerate_policies(2, 2, 2)[::5]:
        omega = occupancy_omega(m, pol, U)
        for t in U:
            brute = Fraction(0)
            for traj, p in enumerate_trajectories(m, pol):
                trs = traj.triples()
                if t in trs:
                    h = t[2]
                    if all(trs[tau - 1] not in U for tau in range(1, h)):
                        brute += p
            assert omega.get(t, Fraction(0)) == brute


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 3))
def test_occupancy_decomposition_random(master, S, H):
    rng = np.random.default_rng(master)
    m = random_model(rng, S, 2, H)
    pols = enumerate_policies(S, 2, H)
    pol = pols[int(rng.integers(0, len(pols)))]
    U = frozenset(t for t in all_triples(S, 2, H) if rng.random() < 0.4)
    omega = occupancy_omega(m, pol, U)
    assert sum(omega.values(), Fraction(0)) == event_visit_probability(m, pol, U)


def test_sample_index_never_returns_zero_mass(top_draw_rng):
    # ten float 0.1s sum to 1 - 2**-53, so the top draw lies past the sum
    assert sample_index([0.1] * 10 + [0.0], top_draw_rng) == 9
    assert sample_index([Fraction(1, 10)] * 10 + [Fraction(0)], top_draw_rng) == 9


def test_sample_trajectory_never_returns_zero_mass(top_draw_rng):
    """Init, transition rows and reward laws of ten 1/10 masses plus a
    trailing zero-mass entry: the top draw lies past every float sum, and
    each draw falls back to the last positive-mass index, as sample_index's."""
    tenth = [Fraction(1, 10)] * 10 + [Fraction(0)]
    support = [Fraction(v, 10) for v in range(11)]
    law = DiscreteDist(tuple(support), tuple(tenth))
    S, H = 11, 2
    model = build_model(
        S, 1, H, tenth,
        {(x, 1, h): tenth for x in range(1, S + 1) for h in range(1, H + 1)},
        {(x, 1, h): law for x in range(1, S + 1) for h in range(1, H + 1)},
        reward_support=support,
    )
    pol = MarkovPolicy(((1, 1),) * S, 1)
    assert sample_index(tenth, top_draw_rng) == 9
    tau = sample_trajectory(model, pol, top_draw_rng)
    assert [tuple(s) for s in tau.steps] == [(10, 1, 1, support[9]), (10, 1, 2, support[9])]
    assert rollout(model, pol, [1 - 2**-53] * (2 * H)) == tau.steps
    trajs, which = rollout_rows(model, pol, np.full((3, 2 * H), 1 - 2**-53))
    assert trajs == [tau.steps] and which.tolist() == [0, 0, 0]


def test_rollout_consumes_2h_draws_in_sample_index_order(stoch_prior):
    """rollout, and rollout_rows on the stacked draws, read the draws as
    sequential sample_index calls would."""
    m = stoch_prior.atoms[300]
    for pol in enumerate_policies(2, 2, 2):
        expected = []
        for seed in range(8):
            rng = stream(seed, "order")
            x = 1 + sample_index(m.init, rng)
            steps = []
            for h in (1, 2):
                a = pol.action(x, h)
                steps.append((x, a, h, m.reward_dist(x, a, h).sample(rng)))
                if h < 2:
                    x = 1 + sample_index(m.transition(x, a, h), rng)
            u = stream(seed, "order").random(4)
            assert [tuple(s) for s in rollout(m, pol, u)] == steps
            expected.append(steps)
        trajs, which = rollout_rows(m, pol, np.array([stream(seed, "order").random(4)
                                                      for seed in range(8)]))
        assert [[tuple(s) for s in trajs[i]] for i in which] == expected


def edge_uniform_rows(model, rng, n_random=16) -> np.ndarray:
    """(n, 2H) uniforms that hit every float cumulative sum of the model's
    init, reward and transition rows exactly, besides 0, 1 - 2**-53 and
    random draws: one constant row per edge value, rows mixing edge values
    by column, and uniform rows."""
    H = model.H
    laws = [model.init]
    for x in range(1, model.S + 1):
        for a in range(1, model.A + 1):
            for h in range(1, H + 1):
                laws += [model.reward_dist(x, a, h).probs, model.transition(x, a, h)]
    edges = sorted({c for probs in laws for c in accumulate(map(float, probs)) if c < 1}
                   | {0.0, 1 - 2**-53})
    return np.vstack([np.repeat(np.array(edges)[:, None], 2 * H, axis=1),
                      rng.choice(edges, size=(n_random, 2 * H)),
                      rng.random((n_random, 2 * H))])


def assert_rollout_rows_match_rollout(model, policy, u):
    trajs, which = rollout_rows(model, policy, u)
    assert len(set(trajs)) == len(trajs) and len(which) == len(u)
    for row, i in zip(u.tolist(), which.tolist()):
        steps = rollout(model, policy, row)
        assert trajs[i] == steps
        assert all(s is t for s, t in zip(trajs[i], steps))  # the model's Step objects
    assert all(path_mass(model, steps) > 0 for steps in trajs)


def test_rollout_rows_match_rollout_on_micro_stoch_atoms(stoch_prior):
    """Every row's trajectory is rollout's, on the edge values of every
    atom's float cumulative rows, and never has a zero-mass step."""
    rng = np.random.default_rng(12)
    pols = enumerate_policies(2, 2, 2)
    for i, m in enumerate(stoch_prior.atoms):
        u = edge_uniform_rows(m, rng)
        for pol in (pols[i % 16], pols[(7 * i + 3) % 16]):
            assert_rollout_rows_match_rollout(m, pol, u)


def test_rollout_rows_match_rollout_on_random_models():
    """S = 3, A = 2, H = 3 with a 3-value reward support: wider step and
    state indices than the micro instances."""
    rng = np.random.default_rng(2103)
    pols = enumerate_policies(3, 2, 3)
    for _ in range(30):
        m = random_model(rng, 3, 2, 3)
        u = edge_uniform_rows(m, rng, n_random=64)
        for code in rng.choice(len(pols), size=6, replace=False):
            assert_rollout_rows_match_rollout(m, pols[code], u)


def test_deterministic_rollout_rows_are_one_trajectory(det_prior):
    """No uniform moves a deterministic model's trajectory, which lets a
    full-log phase roll out its honest rows once on 2H zeros: on every
    micro_det_1 atom and policy, the edge-value and random rows (seed 29)
    give one trajectory, which is ``rollout``'s on the zeros and
    ``deterministic_trajectory``'s."""
    rng = np.random.default_rng(29)
    zeros = [0.0] * (2 * det_prior.shape[2])
    pols = enumerate_policies(*det_prior.shape)
    for m in det_prior.atoms:
        assert m.is_deterministic
        u = edge_uniform_rows(m, rng)
        for pol in pols:
            trajs, which = rollout_rows(m, pol, u)
            assert len(trajs) == 1 and len(which) == len(u) and not which.any()
            assert trajs[0] == rollout(m, pol, zeros) == deterministic_trajectory(m, pol).steps


# ---------------------------------------------------------------------------
# The integer validator against the Fraction checks it replaced


def _fraction_vector_check(vec, negative, not_one, zero_ok=True):
    if any(p < 0 if zero_ok else p <= 0 for p in vec):
        raise ValueError(negative)
    if sum(vec) != 1:
        raise ValueError(not_one)


def fraction_dist_check(support, probs):
    if len(support) != len(probs) or not support:
        raise ValueError("support/probs length mismatch")
    _fraction_vector_check(probs, "negative probability",
                           "probabilities must sum to 1 exactly")
    if len(set(support)) != len(support):
        raise ValueError("duplicate support values")


def fraction_model_check(S, A, H, init, trans, rewards, reward_support):
    if len(init) != S:
        raise ValueError("init length != S")
    _fraction_vector_check(init, "init: negative entry", "init: does not sum to 1")
    for x in range(S):
        for a in range(A):
            for h in range(H):
                vec = trans[x][a][h]
                if len(vec) != S:
                    raise ValueError("transition row length != S")
                what = f"transitions({x+1},{a+1},{h+1})"
                _fraction_vector_check(vec, f"{what}: negative entry",
                                       f"{what}: does not sum to 1")
                dist = rewards[x][a][h]
                for v, p in zip(dist.support, dist.probs):
                    if not 0 <= v <= 1:
                        raise ValueError("reward support outside [0,1]")
                    if p > 0 and v not in reward_support:
                        raise ValueError("reward value outside global support")


def fraction_prior_check(weights):
    _fraction_vector_check(weights, "weights must be positive",
                           "weights must sum to 1 exactly", zero_ok=False)


def outcome(check, *args):
    """None when the check passes, else the raised (type, message)."""
    try:
        check(*args)
    except Exception as e:  # noqa: BLE001 - the type is part of the outcome
        return type(e), str(e)
    return None


# reward values: inside and outside [0, 1], ints and Fractions
VALUES = [0, 1, Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3),
          Fraction(3, 2), Fraction(-1, 4), 2, -1]


@st.composite
def prob_vectors(draw, n=None):
    """A vector on a 1/den grid that sums to 1, or one with an entry pushed
    below 0 (the sum kept), or one whose sum is off by 1/d; whole entries
    are plain ints half the time."""
    n = n if n is not None else draw(st.integers(1, 4))
    den = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)))
    vec = [Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]
    kind = draw(st.sampled_from(["ok", "ok", "negative", "off"]))
    if kind == "negative" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        shift = vec[i] + Fraction(1, draw(st.integers(1, 3 * den)))
        vec[i] -= shift
        vec[j] += shift
    elif kind == "off":
        vec[draw(st.integers(0, n - 1))] += draw(st.sampled_from([1, -1])) * Fraction(
            1, draw(st.integers(1, 3 * den)))
    if draw(st.booleans()):
        vec = [int(p) if p.denominator == 1 else p for p in vec]
    return tuple(vec)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_dist_check_matches_fraction_check(data):
    n = data.draw(st.integers(1, 4))
    support = tuple(data.draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)))
    if data.draw(st.integers(0, 9)) == 0:  # a length mismatch
        support = support[1:]
    probs = data.draw(prob_vectors(n))
    assert outcome(DiscreteDist, support, probs) == outcome(fraction_dist_check, support, probs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_prior_check_matches_fraction_check(data):
    from ielab import DiscretePrior

    weights = data.draw(prob_vectors())
    atoms = (constant_reward_model(1, 1, 1, 0),) * len(weights)
    assert outcome(DiscretePrior, atoms, weights) == outcome(fraction_prior_check, weights)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_model_check_matches_fraction_check(data):
    from ielab import TabularModel

    S, A, H = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), data.draw(
        st.integers(1, 2))
    reward_support = tuple(data.draw(st.lists(st.sampled_from(VALUES), min_size=1,
                                              max_size=4, unique=True)))
    init = data.draw(prob_vectors(S))
    trans = tuple(tuple(tuple(data.draw(prob_vectors(S)) for _ in range(H))
                        for _ in range(A)) for _ in range(S))

    def law():
        k = data.draw(st.integers(1, 3))
        support = data.draw(st.lists(st.sampled_from(VALUES), min_size=k, max_size=k,
                                     unique=True))
        probs = data.draw(prob_vectors(k).filter(
            lambda v: outcome(fraction_dist_check, support, v) is None))
        return DiscreteDist(tuple(support), probs)

    rewards = tuple(tuple(tuple(law() for _ in range(H)) for _ in range(A))
                    for _ in range(S))
    args = (S, A, H, init, trans, rewards, reward_support)
    assert outcome(TabularModel, *args) == outcome(fraction_model_check, *args)
