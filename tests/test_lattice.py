"""Differential tests of the exact integer lattice against Fraction references.

Random small factored priors (S, A, H <= 2, at most 64 atoms) feed:
- canonical_posterior(exact=True) vs prior weights times
  ledger_probability(exact=True), normalized in Fractions;
- bayes_greedy, greedy_set, conditional_value and canonical_gap vs
  Fraction sums of policy_value(exact=True), ties included;
- one_step_audit's argmax sets vs the Fraction argmax of the table's
  mechanism posterior;
- the float fast route AgentSpec._rational_fast vs
  mechanism_posterior(exact=True).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ielab import (
    AgentSpec,
    DiscreteDist,
    DiscretePrior,
    FactoredRewardPrior,
    MechanismConfig,
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
    ledger_probability,
    mechanism_posterior,
    one_step_audit,
    policy_value,
    raw_ledger,
    run_game,
)
from ielab.analysis import sufficiently_visiting_policies
from ielab.oracle import _mech_joint, mechanism_posterior_from_table
from ielab.priors import Posterior, exact_lattice, greedy_set

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
    raw = [w * ledger_probability(m, ledger, exact=True) if i in event else Fraction(0)
           for i, (m, w) in enumerate(zip(prior.atoms, prior.weights))]
    total = sum(raw)
    return None if total == 0 else tuple(r / total for r in raw)


def reference_values(posterior) -> list[Fraction]:
    """Conditional value of every policy, in encoding order, in Fractions."""
    prior = posterior.prior
    return [
        sum((w * policy_value(m, p, exact=True)
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
            canonical_posterior(prior, ledger, event, exact=True)
        return
    assert canonical_posterior(prior, ledger, event, exact=True).weights == want


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
    post = canonical_posterior(prior, ledger, event, exact=True)
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


def test_lattice_value_matrix_matches_policy_value(stoch_prior):
    lattice = exact_lattice(stoch_prior)
    for j, pol in enumerate(lattice.policies):
        for i in (0, 1, 255, 256, 511):
            assert Fraction(lattice.value_cols[j][i], lattice.value_den) == \
                policy_value(stoch_prior.atoms[i], pol, exact=True)


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
    post = Posterior(prior, prior.weights)
    assert reference_values(post) == [Fraction(1, 3), Fraction(1, 3)]
    assert greedy_set(post) == frozenset({0, 1})
    assert bayes_greedy(post).encoding == 0
    assert canonical_gap(post, {1}) == 0


def _audit_against_reference(table, ell, target):
    entries = iter(one_step_audit(table, ell, target).entries)
    for _, nodes in table.groups_by_cens(ell).items():
        for key, ent in _mech_joint(nodes).items():
            if ent["hal"] == 0:
                continue
            entry = next(entries)
            assert entry.lam_hal_key == key
            mech = mechanism_posterior_from_table(table, ell, ent["ledger"])
            post = Posterior(table.prior, tuple(mech.get(i, Fraction(0))
                                                for i in range(table.prior.n)))
            assert entry.argmax == reference_argmax(post)
    assert next(entries, None) is None


def test_one_step_argmax_matches_fraction_reference(det_prior, det_config):
    table = enumerate_game(det_config, det_prior, 3)
    model0 = det_prior.atoms[0]

    def target(U, _nodes):
        return sufficiently_visiting_policies(model0, U, 1, exact=True)

    for ell in (1, 2, 3):
        _audit_against_reference(table, ell, target)


@settings(max_examples=15, deadline=None)
@given(small_priors())
def test_one_step_argmax_random_priors(prior):
    S, A, H = prior.shape
    if A ** (S * H) < 2:
        return  # a single policy admits no strict target
    cfg = MechanismConfig(n_phase=2, n_lrn=1, eps_pun=Fraction(1, 10), total_phases=2)
    table = enumerate_game(cfg, prior, 2)
    for ell in (1, 2):
        _audit_against_reference(table, ell, {0})


class RecordingAgent(AgentSpec):
    """A float fully-rational agent that, at every in-run choice, compares
    its fast posterior with the exact mechanism posterior of the same
    materialized ledger."""

    def choose_signal(self, k, ell, kind, ctx):
        fast = self._rational_fast(ell, ctx.counts_of(kind), ctx)
        exact, _ = mechanism_posterior(self.prior, self.config, k, ctx.signals[kind],
                                       exact=True)
        want = np.array([float(w) for w in exact.weights])
        self.errors.append(float(np.abs(fast.weights - want).max()))
        return super().choose_signal(k, ell, kind, ctx)


@settings(max_examples=25, deadline=None)
@given(small_priors(), st.integers(0, 10**6), st.integers(1, 2), st.integers(2, 3))
def test_rational_fast_matches_exact_mechanism_posterior(prior, seed, n_lrn, n_phase):
    cfg = MechanismConfig(n_phase=n_phase, n_lrn=n_lrn, eps_pun=Fraction(1, 10),
                          total_phases=5)
    agent = RecordingAgent("fully_rational", prior, cfg)
    agent.errors = []
    run_game(cfg, prior, agent, seed, episode_log="hallucination", keep_signals=True)
    assert agent.errors and max(agent.errors) <= 1e-12
