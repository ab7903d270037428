"""Differential tests of the exact integer lattice against Fraction references.

Random small factored priors (S, A, H <= 2, at most 64 atoms, drawn
from ``prior_strategies.small_priors``) feed:
- canonical_posterior vs prior weights times
  ledger_probability, normalized in Fractions;
- bayes_greedy, greedy_set, conditional_value and canonical_gap vs
  Fraction sums of policy_value, ties included;
- one_step_audit's argmax sets and p_hal vs the Fraction argmax of the
  table's mechanism posterior and a Fraction marginalization of p_hal;
- hygiene_tv's integer joints vs hygiene_tv_pairs over the nodes'
  Fraction masses;
- the float mechanism posterior of the run loop
  (agents._mechanism_weights_float) vs the exact mechanism_posterior;
- low_reward_table vs per-atom exact mean rewards;
- every PriorTables array and low_reward_table vs a per-atom build
  (float(p) of each mass, float(policy_value) of each policy value),
  bit for bit, also on a prior whose denominator exceeds 2**53;
- count signatures vs LedgerState's reward-count layout;
- the lattice's per-policy trajectory lists vs
  mdp.enumerate_trajectories, atom by atom, on the micro instances too;
and a corrupted lattice column must stop enumerate_game.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ielab import (
    AgentSpec,
    CapExceeded,
    DiscreteDist,
    DiscretePrior,
    IncompleteEnumeration,
    MarkovPolicy,
    MechanismConfig,
    Step,
    Trajectory,
    ZeroEvidence,
    all_triples,
    bayes_greedy,
    build_model,
    canonical_gap,
    canonical_posterior,
    censor_ledger,
    conditional_value,
    enumerate_game,
    enumerate_policies,
    enumerate_trajectories,
    fabricated_rewards_case,
    hygiene_tv_pairs,
    ledger_probability,
    make_agent,
    mechanism_posterior,
    one_step_audit,
    policy_selection_case,
    policy_value,
    raw_ledger,
    replay_signals,
    run_game,
)
from ielab.agents import _mechanism_weights_float
from ielab.analysis import sufficiently_visiting_policies
from ielab.mechanism import hallucination_prior_prob
from ielab.oracle import _normalize, _tv, hygiene_tv, mechanism_posterior_from_table
from ielab import priors
from ielab.priors import Posterior, exact_lattice, greedy_set
from ielab.rng import cumulative_row
from prior_strategies import mixed_reward_order_prior, small_priors


def draw_ledger(draw, prior: DiscretePrior):
    """Up to three entries (mostly two or three), each a trajectory of a
    random atom under a random policy, censored on a random set."""
    S, A, H = prior.shape
    policies = enumerate_policies(S, A, H)
    entries = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3]))):
        atom = prior.atoms[draw(st.integers(0, prior.n - 1))]
        pol = policies[draw(st.integers(0, len(policies) - 1))]
        trajs = list(enumerate_trajectories(atom, pol))
        entries.append((pol, trajs[draw(st.integers(0, len(trajs) - 1))][0]))
    triples = sorted(all_triples(S, A, H))
    U = frozenset(t for t in triples if draw(st.booleans()))
    return censor_ledger(raw_ledger(S, A, H, entries), U)


def reference_weights(prior, ledger, event):
    raw = [w * ledger_probability(m, ledger) if i in event else Fraction(0)
           for i, (m, w) in enumerate(zip(prior.atoms, prior.weights))]
    total = sum(raw)
    return None if total == 0 else tuple(r / total for r in raw)


def reference_values(posterior) -> list[Fraction]:
    """Conditional value of every policy, in encoding order, in Fractions."""
    prior = posterior.prior
    return [
        sum((w * policy_value(m, p)
             for w, m in zip(posterior.weights, prior.atoms) if w), Fraction(0))
        for p in enumerate_policies(*prior.shape)
    ]


def reference_argmax(posterior) -> frozenset:
    vals = reference_values(posterior)
    return frozenset(j for j, v in enumerate(vals) if v == max(vals))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lattice_canonical_posterior_matches_fraction_reference(data):
    prior = data.draw(small_priors())
    ledger = draw_ledger(data.draw, prior)
    event = frozenset(i for i in range(prior.n) if data.draw(st.booleans())) \
        if data.draw(st.booleans()) else prior.full_event()
    want = reference_weights(prior, ledger, event)
    if want is None:
        with pytest.raises(ZeroEvidence):
            canonical_posterior(prior, ledger, event)
        return
    assert canonical_posterior(prior, ledger, event).weights == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lattice_values_and_greedy_match_fraction_argmax(data):
    prior = data.draw(small_priors())
    # a sparse event makes exact ties between policies common
    event = frozenset(i for i in range(prior.n) if data.draw(st.booleans())) \
        or frozenset({0})
    ledger = draw_ledger(data.draw, prior)
    if reference_weights(prior, ledger, event) is None:
        ledger = raw_ledger(*prior.shape, [])
    post = canonical_posterior(prior, ledger, event)
    vals = reference_values(post)
    policies = enumerate_policies(*prior.shape)
    assert [conditional_value(post, p) for p in policies] == vals
    assert greedy_set(post) == reference_argmax(post)
    assert bayes_greedy(post).encoding == min(reference_argmax(post))
    if len(policies) > 1:
        split = frozenset(j for j in range(len(policies)) if data.draw(st.booleans()))
        if 0 < len(split) < len(policies):
            inside = max(v for j, v in enumerate(vals) if j in split)
            outside = max(v for j, v in enumerate(vals) if j not in split)
            assert canonical_gap(post, split) == inside - outside


def assert_value_cols_equal_policy_value(prior):
    """Every policy's value column is mdp.policy_value at every atom."""
    lattice = exact_lattice(prior)
    assert len(lattice.value_cols) == len(lattice.policies)
    for pol, col in zip(lattice.policies, lattice.value_cols):
        assert [Fraction(v, lattice.value_den) for v in col] == [
            policy_value(m, pol) for m in prior.atoms]


def test_lattice_value_matrix_matches_policy_value(det_prior, stoch_prior):
    """At every atom of micro_det_1 (one transition table) and
    micro_stoch_1 (two), for every policy."""
    for prior in (det_prior, stoch_prior):
        assert_value_cols_equal_policy_value(prior)


def transition_tables(prior) -> int:
    lattice = exact_lattice(prior)
    return len({lattice.transition_key(i) for i in range(prior.n)})


@settings(max_examples=40, deadline=None)
@given(small_priors().filter(lambda prior: transition_tables(prior) >= 2), st.randoms())
def test_value_cols_equal_policy_value_over_several_transition_tables(prior, random):
    """Priors with two transition tables, their atoms in expansion order
    (each table's atoms in one run) and shuffled (the tables' atoms
    interleaved)."""
    assert_value_cols_equal_policy_value(prior)
    order = list(range(prior.n))
    random.shuffle(order)
    shuffled = DiscretePrior(tuple(prior.atoms[i] for i in order),
                             tuple(prior.weights[i] for i in order))
    assert_value_cols_equal_policy_value(shuffled)


def test_float_run_leaves_lattice_columns_unbuilt(det_factored, det_config):
    """A micro_det_1 run with the hallucination log takes its values from
    the lattice's value columns without building its per-atom columns,
    which only the exact route reads."""
    prior = det_factored.expand()
    for mode in ("canonical_truster", "fully_rational"):
        run_game(det_config, prior, make_agent(mode, prior, det_config), 3,
                 episode_log="hallucination")
    lattice = exact_lattice(prior)
    assert "value_cols" in lattice.__dict__
    assert "columns" not in lattice.__dict__


def exact_value_matrix(prior) -> np.ndarray:
    """float(policy_value(atom, policy)) at [atom, policy encoding]: the
    correctly rounded values of mdp's per-model Fraction DP."""
    return np.array([[float(policy_value(m, pol)) for pol in enumerate_policies(*prior.shape)]
                     for m in prior.atoms])


def test_value_matrix_equals_policy_value(det_prior, stoch_prior):
    """Every entry of PriorTables' value matrix is the correctly rounded
    exact policy value: float(policy_value(atom, policy)), and the float
    of the lattice's value int over value_den. On the micro instances, on
    random models with three states and stages and rewards in thirds and
    sevenths, on the mixed-order prior and on a prior whose denominators
    exceed 2**53."""
    from ielab.instances import random_model

    rng = np.random.default_rng(7)
    support = (0, Fraction(1, 3), Fraction(5, 7), 1)
    off_grid = DiscretePrior(tuple(random_model(rng, 3, 2, 3, support=support)
                                   for _ in range(6)), (Fraction(1, 6),) * 6)
    # micro_stoch_1's two transition tables, their atoms interleaved
    order = [i + half for i in range(256) for half in (0, 256)]
    interleaved = DiscretePrior(tuple(stoch_prior.atoms[i] for i in order),
                                tuple(stoch_prior.weights[i] for i in order))
    for prior in (det_prior, stoch_prior, off_grid, mixed_reward_order_prior(), big_den_prior(),
                  interleaved):
        tables = priors.PriorTables(prior)
        lattice = exact_lattice(prior)
        assert np.array_equal(tables.value_matrix, exact_value_matrix(prior))
        assert tables.value_matrix.tolist() == [
            [float(Fraction(col[i], lattice.value_den)) for col in lattice.value_cols]
            for i in range(prior.n)]


@settings(max_examples=60, deadline=None)
@given(small_priors())
def test_value_matrix_equals_policy_value_on_random_priors(prior):
    tables = priors.PriorTables(prior)
    assert np.array_equal(tables.value_matrix, exact_value_matrix(prior))


def per_atom_features(prior) -> np.ndarray:
    """Each atom's feature masses as float(p), (F, n), without the lattice,
    in the lattice's feature order: init, transitions by (x, a, h, y),
    rewards by (x, a, h, support value), the zero column."""
    triples = sorted(all_triples(*prior.shape))
    support = prior.atoms[0].reward_support
    return np.array([[float(p) for p in m.init]
                     + [float(p) for t in triples for p in m.transition(*t)]
                     + [float(m.reward_dist(*t).mass(v)) for t in triples for v in support]
                     + [0.0] for m in prior.atoms]).T


def per_atom_tables(prior, eps) -> dict:
    """Every PriorTables array, and low_reward_table at eps, built from each
    atom's own rows, laws and policy values, without the lattice. The
    log-mass matrix and its zero-mass mask list each atom's features in
    the lattice's feature order."""
    S, A, H = prior.shape
    n, atoms = prior.n, prior.atoms
    triples = sorted(all_triples(S, A, H))
    support = atoms[0].reward_support
    V = len(support)
    mass = np.array([[float(m.reward_dist(*t).mass(v)) for t in triples for v in support]
                     for m in atoms]).reshape(n, S, A, H, V)
    features = per_atom_features(prior)
    with np.errstate(divide="ignore"):
        log_mass = np.log(features)
    return {
        "log_mass": np.where(features == 0, 0.0, log_mass),
        "zero_mass": features == 0,
        "reward_cum": np.array([cumulative_row(row) for row in mass.reshape(-1, V)]
                               ).reshape(n, S, A, H, V),
        "value_matrix": exact_value_matrix(prior),
        "log_weights": np.log([float(w) for w in prior.weights]),
        "low_reward": np.array([[m.mean_reward(*t) <= eps for t in triples]
                                for m in atoms]).reshape(n, S, A, H),
    }


def middle_mean(prior) -> Fraction:
    """A mean reward some atom has at some triple, so the eps comparison ties."""
    means = sorted({m.mean_reward(*t) for m in prior.atoms for t in all_triples(*prior.shape)})
    return means[len(means) // 2]


def assert_tables_equal_per_atom_floats(prior):
    """The lattice-fed PriorTables arrays and low_reward_table equal the
    per-atom float(p) build bit for bit, dtype included."""
    eps = middle_mean(prior)
    tables = priors.PriorTables(prior)
    for name, want in per_atom_tables(prior, eps).items():
        got = priors.low_reward_table(prior, eps) if name == "low_reward" \
            else getattr(tables, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def big_den_prior() -> DiscretePrior:
    """Two atoms whose probabilities have the prime denominators 2**31 - 1
    and 2**31 - 19, so the lattice's common denominator exceeds 2**53."""
    p1, p2 = 2**31 - 1, 2**31 - 19

    def atom(a, b, c):
        law = DiscreteDist.of([(0, 1 - Fraction(c, p1)), (1, Fraction(c, p1))])
        return build_model(2, 2, 2, [Fraction(a, p1), 1 - Fraction(a, p1)],
                           {(x, u, 1): [Fraction(b, p2), 1 - Fraction(b, p2)]
                            for x in (1, 2) for u in (1, 2)},
                           {t: law for t in all_triples(2, 2, 2)}, reward_support=(0, 1))

    return DiscretePrior((atom(12345, 67891, 424242), atom(77777777, 77777777, 987654321)),
                         (Fraction(1, 3), Fraction(2, 3)))


def test_prior_tables_equal_per_atom_floats(det_prior, stoch_prior):
    for prior in (det_prior, stoch_prior, mixed_reward_order_prior()):
        assert_tables_equal_per_atom_floats(prior)


def test_prior_tables_equal_per_atom_floats_past_2_53():
    """Past 2**53, converting the lattice's ints to floats before dividing
    rounds twice and misses float(p); one int / den per entry does not."""
    prior = big_den_prior()
    lattice = exact_lattice(prior)
    assert lattice.den > 2**53
    assert_tables_equal_per_atom_floats(prior)
    n = prior.n
    shortcut = (np.array(lattice.vec_rows, dtype=float) / lattice.den)[lattice.vec_ix]
    paths = np.concatenate([shortcut[:n], shortcut[n:].reshape(n, -1)], axis=1).T
    assert not np.array_equal(paths, per_atom_features(prior)[:lattice.reward_start])


@settings(max_examples=60, deadline=None)
@given(small_priors())
def test_prior_tables_equal_per_atom_floats_random(prior):
    assert_tables_equal_per_atom_floats(prior)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_count_signature_follows_ledger_state_layout(data):
    """A signature is sorted (feature, count) int pairs with one init
    feature per entry, and every entry of LedgerState's dense count row is
    the signature's count of that feature (0 where it lists none): on
    ledgers censored on a random set, and on ledgers with revealed rewards
    outside the support, which count in the zero column. Its reward counts
    are a view of that row's reward features."""
    prior = data.draw(small_priors())
    S, A, H = prior.shape
    outside = data.draw(st.sampled_from([Fraction(1, 3), Fraction(5, 7), Fraction(9, 11)])
                        .filter(lambda v: v not in prior.atoms[0].reward_support))
    pol = enumerate_policies(S, A, H)[0]
    traj = next(iter(enumerate_trajectories(prior.atoms[0], pol)))[0]
    odd = Trajectory(tuple(Step(s.x, s.a, s.h, outside if i == 0 else s.r)
                           for i, s in enumerate(traj.steps)))
    lattice = exact_lattice(prior)
    tables = priors.PriorTables(prior)
    for lam in (draw_ledger(data.draw, prior),
                raw_ledger(S, A, H, [(pol, traj)] + [(pol, odd)] * data.draw(st.integers(1, 2)))):
        sig = lattice.count_signature(lam)
        assert list(sig) == sorted(sig) and len({f for f, _ in sig}) == len(sig)
        assert sum(c for f, c in sig if f < S) == len(lam)
        state = priors.LedgerState(tables)
        for _, entry in lam.entries:
            state.push_entries([entry])
        counts = state.counts.tolist()
        assert len(counts) == lattice.n_features == len(lattice.columns)
        assert [dict(sig).get(f, 0) for f in range(len(counts))] == counts
        assert counts[-1] == sum(s.r == outside for _, entry in lam.entries for s in entry)
        assert state.reward_counts.ravel().tolist() == counts[lattice.reward_start:-1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_low_reward_table_matches_per_atom_means(data):
    """One exact comparison per distinct reward law gives the per-atom,
    per-triple table, also when eps equals some atom's mean reward."""
    prior = data.draw(small_priors())
    S, A, H = prior.shape
    triples = sorted(all_triples(S, A, H))
    means = sorted({m.mean_reward(*t) for m in prior.atoms for t in triples})
    eps = data.draw(st.sampled_from(means) | st.fractions(0, 1, max_denominator=16))
    expected = np.array([[[[m.mean_reward(x, a, h) <= eps for h in range(1, H + 1)]
                           for a in range(1, A + 1)] for x in range(1, S + 1)]
                         for m in prior.atoms], dtype=bool)
    table = priors.low_reward_table(prior, eps)
    assert table.dtype == bool and np.array_equal(table, expected)


def test_greedy_exact_tie_constructed():
    """E[r(a1)] = E[r(a2)] = 1/3 exactly: both actions are maximizers and the
    smaller encoding wins."""
    support = (Fraction(0), Fraction(1, 2), Fraction(1))
    atoms = (
        build_model(1, 2, 1, [1], {}, {(1, 1, 1): 1, (1, 2, 1): 0}, reward_support=support),
        build_model(1, 2, 1, [1], {}, {(1, 1, 1): 0, (1, 2, 1): Fraction(1, 2)},
                    reward_support=support),
    )
    prior = DiscretePrior(atoms, (Fraction(1, 3), Fraction(2, 3)))
    post = Posterior(prior, ((1, 2), 3))
    assert reference_values(post) == [Fraction(1, 3), Fraction(1, 3)]
    assert greedy_set(post) == frozenset({0, 1})
    assert bayes_greedy(post).encoding == 0
    assert canonical_gap(post, {1}) == 0


def node_weights(node) -> dict:
    """A node's joint masses as Fractions."""
    return {i: Fraction(v, node.den) for i, v in node.masses.items()}


def reference_hal_ledgers(table, ell) -> list:
    """(ledger, p_hal) of every realizable hallucinated ledger of phase
    ell, in the audits' order: per censored-ledger group, in first-seen
    order over each node's branches, then its honest ledger, with
    Pr[hallucinated = v | group] and Pr[honest = v | group] marginalized
    in Fractions from each node's masses."""
    p0 = hallucination_prior_prob(table.config, ell)
    out = []
    for nodes in table.groups_by_cens(ell).values():
        group_mass = sum(sum(node_weights(n).values()) for n in nodes)
        joint = {}
        for node in nodes:
            mass = sum(node_weights(node).values()) / group_mass
            for br in node.branches:
                joint.setdefault(br.ledger, [0, 0])[0] += br.prob * mass
            joint.setdefault(node.lam_hon, [0, 0])[1] += mass
        out.extend((ledger, p0 * hal / (p0 * hal + (1 - p0) * hon))
                   for ledger, (hal, hon) in joint.items() if hal)
    return out


def _audit_against_reference(table, target):
    """At every phase of the table, one_step_audit's entries, one per
    realizable hallucinated ledger in order, carry the Fraction argmax of
    mechanism_posterior_from_table and the Fraction p_hal of
    reference_hal_ledgers. Each policy's value under each atom is one
    exact policy_value, taken once."""
    prior = table.prior
    policies = enumerate_policies(*prior.shape)
    values = [[policy_value(m, p) for p in policies] for m in prior.atoms]
    for ell in table.nodes:
        entries = one_step_audit(table, ell, target).entries
        reference = reference_hal_ledgers(table, ell)
        assert [e.ledger for e in entries] == [ledger for ledger, _ in reference]
        for entry, (ledger, p_hal) in zip(entries, reference):
            mech = mechanism_posterior_from_table(table, ell, ledger)
            weights = [mech.get(i, 0) for i in range(prior.n)]
            vals = [sum((w * row[j] for w, row in zip(weights, values) if w), Fraction(0))
                    for j in range(len(policies))]
            assert entry.argmax == frozenset(j for j, v in enumerate(vals) if v == max(vals))
            assert entry.p_hal == p_hal


def test_one_step_argmax_matches_fraction_reference(det_prior, det_config, stoch_prior):
    """The det 3-phase table, and the stoch 2-phase table of
    test_stochastic_micro_table, with the policies that visit U under
    atom 0 as the target."""
    stoch_cfg = MechanismConfig(40, 1, Fraction(7, 2880), 2, rho=Fraction(1, 4))
    for prior, table in ((det_prior, enumerate_game(det_config, det_prior, 3)),
                         (stoch_prior, enumerate_game(stoch_cfg, stoch_prior, 2,
                                                      cap=40_000))):
        _audit_against_reference(
            table, lambda U, _nodes: sufficiently_visiting_policies(prior.atoms[0], U, 1))


@settings(max_examples=15, deadline=None)
@given(small_priors())
def test_one_step_argmax_random_priors(prior):
    S, A, H = prior.shape
    if A ** (S * H) < 2:
        return  # a single policy admits no strict target
    cfg = MechanismConfig(n_phase=2, n_lrn=1, eps_pun=Fraction(1, 10), total_phases=2)
    table = enumerate_game(cfg, prior, 2)
    _audit_against_reference(table, {0})


class RecordingAgent(AgentSpec):
    """A float fully-rational agent that records, at every in-run choice of
    a one-seed run, its fast posterior weights under (ell, kind)."""

    def choose_signal(self, ell, kinds, ctx):
        p0 = float(hallucination_prior_prob(self.config, ell))
        for kind in kinds:
            fast = _mechanism_weights_float(ctx.fast.tables, ctx.cens_weights,
                                            ctx.counts_of(kind), ctx.punish_mask, p0)
            (self.weights[ell, kind],) = fast  # the batch's one seed
        return super().choose_signal(ell, kinds, ctx)


@settings(max_examples=25, deadline=None)
@given(small_priors(), st.integers(0, 10**6), st.integers(1, 2), st.integers(2, 3))
def test_rational_fast_matches_exact_mechanism_posterior(prior, seed, n_lrn, n_phase):
    """Every in-run fast posterior of the fully rational agent is, within
    1e-12, the exact mechanism posterior of its signal ledger, replayed
    from the log after the run."""
    cfg = MechanismConfig(n_phase=n_phase, n_lrn=n_lrn, eps_pun=Fraction(1, 10),
                          total_phases=5)
    agent = RecordingAgent("fully_rational", prior, cfg)
    agent.weights = {}
    log = run_game(cfg, prior, agent, seed, episode_log="hallucination")
    errors = []
    for ell, signals in replay_signals(log, prior):
        for kind in ("hallucinated", "honest"):
            if (ell, kind) in agent.weights:
                fast = agent.weights[ell, kind]
                exact, _ = mechanism_posterior(prior, cfg, ell, signals[kind])
                want = np.array([float(w) for w in exact.weights])
                errors.append(float(np.abs(fast - want).max()))
    assert errors and max(errors) <= 1e-12


def assert_paths_match(prior):
    """Every policy's lattice list, restricted to each atom, is that atom's
    enumerate_trajectories output: same trajectories, order and masses."""
    lattice = exact_lattice(prior)
    for pol in lattice.policies:
        paths = lattice.paths(pol)
        assert paths.den == lattice.den ** (2 * prior.shape[2])
        for i, atom in enumerate(prior.atoms):
            restricted = [(paths.trajectories[k], Fraction(paths.masses[k][i], paths.den))
                          for k in paths.of_atom[i]]
            assert restricted == list(enumerate_trajectories(atom, pol))


def test_lattice_paths_match_enumerate_trajectories_det(det_prior):
    assert_paths_match(det_prior)


def test_lattice_paths_match_enumerate_trajectories_stoch(stoch_prior):
    assert_paths_match(stoch_prior)


@settings(max_examples=60, deadline=None)
@given(small_priors())
def test_lattice_paths_match_enumerate_trajectories_random(prior):
    assert_paths_match(prior)


def test_lattice_paths_keep_each_atoms_reward_order():
    """Both atoms store their law in increasing order, whatever order it
    was listed in, and each atom's list follows it."""
    prior = mixed_reward_order_prior()
    laws = [m.reward_dist(1, 1, 1) for m in prior.atoms]
    assert [law.support for law in laws] == [(0, 1), (0, 1)]
    assert [law.probs for law in laws] == [(Fraction(2, 3), Fraction(1, 3)),
                                           (Fraction(1, 2), Fraction(1, 2))]
    assert_paths_match(prior)


def per_atom_columns(prior) -> tuple[list, int]:
    """(columns, den) as a per-atom build takes them: every atom's init,
    transition and reward masses read one by one, over their lcm, in the
    feature index's order (init x; transition (x, a, h, y) and then reward
    (x, a, h, v) with the triples in C order), and an all-zero column last."""
    S, A, H = prior.shape
    triples = sorted(all_triples(S, A, H))
    masses = [[m.init[x] for m in prior.atoms] for x in range(S)]
    masses += [[m.transition(*t)[y] for m in prior.atoms] for t in triples for y in range(S)]
    masses += [[m.reward_dist(*t).mass(v) for m in prior.atoms]
               for t in triples for v in prior.atoms[0].reward_support]
    den = math.lcm(*(p.denominator for col in masses for p in col))
    return [tuple(p.numerator * (den // p.denominator) for p in col)
            for col in masses] + [(0,) * prior.n], den


def assert_lattice_matches_per_atom_build(prior, values: bool = True):
    """The lattice, built once per distinct row and law, has the columns,
    values and paths of a per-atom build, and its feature methods name the
    per-atom build's positions."""
    lattice = exact_lattice(prior)
    columns, den = per_atom_columns(prior)
    assert lattice.den == den
    assert lattice.columns == columns
    S, A, H = prior.shape
    triples = sorted(all_triples(S, A, H))
    assert [lattice.trans_feature(*t, y) for t in triples for y in range(1, S + 1)] == \
        list(range(S, lattice.reward_start))
    assert [f for t in triples for f in lattice.reward_features(*t)] == \
        list(range(lattice.reward_start, len(columns) - 1))
    if values:
        for pol, col in zip(lattice.policies, lattice.value_cols):
            assert [Fraction(v, lattice.value_den) for v in col] == [
                policy_value(m, pol) for m in prior.atoms]
    assert_paths_match(prior)


@settings(max_examples=40, deadline=None)
@given(small_priors())
def test_lattice_per_object_build_matches_per_atom_build(prior):
    assert_lattice_matches_per_atom_build(prior)


def test_lattice_per_object_build_matches_per_atom_build_fixed(det_prior, stoch_prior):
    """Expanded micro priors share rows and laws between hundreds of atoms;
    the hand-built mixed-order prior shares one law per atom."""
    assert_lattice_matches_per_atom_build(mixed_reward_order_prior())
    assert_lattice_matches_per_atom_build(det_prior)
    assert_lattice_matches_per_atom_build(stoch_prior, values=False)  # values: see
    # test_lattice_value_matrix_matches_policy_value


def fraction_hygiene_tvs(prior, pairs) -> dict:
    """Per revealed ledger: TV(true posterior, canonical posterior) in
    Fractions, normalizing the joint and the exact canonical posterior."""
    groups = {}
    for prob, atom, ledger in pairs:
        acc = groups.setdefault(ledger, {})
        acc[atom] = acc.get(atom, Fraction(0)) + prob
    out = {}
    for key, joint in groups.items():
        try:
            can = canonical_posterior(prior, key)
        except ZeroEvidence:
            out[key] = None
            continue
        out[key] = _tv(_normalize(joint), {i: w for i, w in enumerate(can.weights) if w})
    return out


def assert_hygiene_matches_fraction_reference(prior, pairs):
    """hygiene_tv_pairs equals the Fraction TV ledger by ledger, and its
    maximum over all of them; where the reference finds a ledger
    impossible, it raises ZeroEvidence."""
    reference = fraction_hygiene_tvs(prior, pairs)
    by_key = {}
    for pair in pairs:
        by_key.setdefault(pair[2], []).append(pair)
    for key, group in [*by_key.items(), (None, pairs)]:
        expected = reference[key] if key is not None else (
            None if None in reference.values() else max(reference.values()))
        if expected is None:
            with pytest.raises(ZeroEvidence):
                hygiene_tv_pairs(prior, group)
        else:
            assert hygiene_tv_pairs(prior, group) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_hygiene_tv_matches_fraction_reference_random(data):
    """Arbitrary joints over drawn ledgers, so most TVs are nonzero; an atom
    may appear several times under one ledger."""
    prior = data.draw(small_priors())
    pairs = []
    for _ in range(data.draw(st.integers(1, 4))):
        ledger = draw_ledger(data.draw, prior)
        for i in data.draw(st.lists(st.integers(0, prior.n - 1), min_size=1, max_size=6)):
            prob = Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
            pairs.append((prob, i, ledger))
    assert_hygiene_matches_fraction_reference(prior, pairs)


def test_integer_hygiene_tv_matches_fraction_reference_counterexamples():
    for prior, pairs in (fabricated_rewards_case(), policy_selection_case()):
        assert_hygiene_matches_fraction_reference(prior, pairs)
        assert hygiene_tv_pairs(prior, pairs) > 0


def test_integer_hygiene_tv_impossible_ledger():
    """A ledger no atom can produce, or one with a reward outside the
    support, raises ZeroEvidence."""
    prior, _ = fabricated_rewards_case()
    pol = MarkovPolicy(((1,),), 1)
    for rewards in ([Fraction(0), Fraction(9, 10)], [Fraction(1, 2)]):
        ledger = raw_ledger(1, 1, 1, [(pol, Trajectory((Step(1, 1, 1, r),)))
                                      for r in rewards])
        with pytest.raises(ZeroEvidence):
            hygiene_tv_pairs(prior, [(Fraction(1), 0, ledger)])


def test_corrupted_lattice_column_stops_enumerate_game(det_prior, det_config):
    """A copy of the lattice whose init column gives the last atom mass 2:
    the trajectory completeness check must raise instead of returning a table."""
    lattice = copy.copy(exact_lattice(det_prior))
    lattice.columns = list(lattice.columns)
    lattice._paths = {}
    x = next(x for x in (0, 1) if lattice.columns[x][-1])  # init x + 1 is feature x
    col = lattice.columns[x]
    lattice.columns[x] = col[:-1] + (2 * col[-1],)
    prior = DiscretePrior(det_prior.atoms, det_prior.weights)
    prior._cache["lattice"] = lattice
    with pytest.raises(IncompleteEnumeration):
        enumerate_game(det_config, prior, 2)


def test_lattice_paths_cap(det_prior, det_config, monkeypatch):
    """Past TRAJECTORY_CAP trajectories of one policy, enumerate_game raises
    CapExceeded (det has four trajectories per policy)."""
    monkeypatch.setattr(priors, "TRAJECTORY_CAP", 2)
    with pytest.raises(CapExceeded, match="trajectory enumeration exceeds cap 2"):
        enumerate_game(det_config, DiscretePrior(det_prior.atoms, det_prior.weights), 2)


def _table_pairs(table, kind: str, ell: int) -> list:
    """The (probability, atom, revealed ledger) list of one phase's nodes,
    each node's masses as Fractions."""
    return [(w, i, node.lam_cens if kind == "censored" else node.lam_hon)
            for node in table.nodes[ell] for i, w in node_weights(node).items()]


def test_integer_hygiene_tv_matches_fraction_reference_tables(det_prior, det_config,
                                                             stoch_prior):
    """Ledger by ledger on the det 3-phase and the stoch 2-phase tables;
    there hygiene_tv's joints over the nodes' dens also give
    hygiene_tv_pairs' value over the nodes' Fraction masses. Both TVs are
    0 on the tables, so each table is also checked with its node masses
    skewed per atom and its dens per node, where they are not."""
    stoch_cfg = MechanismConfig(40, 1, Fraction(7, 2880), 2, rho=Fraction(1, 4))
    for prior, table in ((det_prior, enumerate_game(det_config, det_prior, 3)),
                         (stoch_prior, enumerate_game(stoch_cfg, stoch_prior, 2,
                                                      cap=40_000))):
        skewed = dataclasses.replace(table, nodes={
            ell: [dataclasses.replace(node, masses={i: v * (1 + i % 3)
                                                    for i, v in node.masses.items()},
                                      den=node.den * (k + 1))
                  for k, node in enumerate(nodes)]
            for ell, nodes in table.nodes.items()})
        for ell in table.nodes:
            for kind in ("censored", "honest"):
                pairs = _table_pairs(table, kind, ell)
                assert_hygiene_matches_fraction_reference(prior, pairs)
                assert hygiene_tv(table, kind, ell) == hygiene_tv_pairs(prior, pairs) == 0
                tv = hygiene_tv(skewed, kind, ell)
                assert tv == hygiene_tv_pairs(prior, _table_pairs(skewed, kind, ell))
                assert tv > 0 or ell == 1  # phase 1 has one node
