from __future__ import annotations

from fractions import Fraction

import pytest

from ielab import (
    CapExceeded,
    PreconditionViolated,
    DegenerateSplit,
    DiscreteDist,
    FactoredRewardPrior,
    MechanismConfig,
    ZeroEvidence,
    enumerate_game,
    fabricated_rewards_case,
    hallucination_distribution_check,
    hygiene_tv,
    hygiene_tv_pairs,
    one_step_audit,
    p_hal_audit,
    policy_selection_case,
)
from ielab import harness, oracle
from ielab.harness import _det_target_provider


@pytest.fixture(scope="module")
def det_table2(det_prior, det_config):
    return enumerate_game(det_config, det_prior, 2)


@pytest.fixture(scope="module")
def det_table3(det_prior, det_config):
    return enumerate_game(det_config, det_prior, 3)


def test_zero_phase_table_is_prior(det_prior, det_config):
    table = enumerate_game(det_config, det_prior, 0)
    assert table.nodes == {}
    assert table.total_mass() == 1
    assert all(table.model_marginal[i] == w for i, w in enumerate(det_prior.weights))


def test_table_mass_and_marginal(det_table2, det_prior):
    assert det_table2.total_mass() == 1
    for i, w in enumerate(det_prior.weights):
        assert det_table2.model_marginal.get(i, Fraction(0)) == w


def test_table_leaf_structure(det_table2):
    # phase 1: single empty-history node; phase 2: one node per realized
    # reward pattern of the two visited triples
    assert len(det_table2.nodes[1]) == 1
    assert len(det_table2.nodes[2]) == 4
    # deterministic punished rewards: a unique hallucinated-ledger realization
    for node in det_table2.nodes[2]:
        assert len(node.branches) == 1


def test_hygiene_zero_everywhere(det_table2):
    for ell in (1, 2):
        assert hygiene_tv(det_table2, "censored", ell) == 0
        assert hygiene_tv(det_table2, "honest", ell) == 0


def test_hygiene_counterexamples():
    prior, pairs = fabricated_rewards_case()
    assert hygiene_tv_pairs(prior, pairs) == Fraction(3, 4)
    prior2, pairs2 = policy_selection_case()
    assert hygiene_tv_pairs(prior2, pairs2) == Fraction(1, 2)


def test_distribution_equality(det_table2):
    assert hallucination_distribution_check(det_table2, 2) == 0


def test_distribution_equality_mutated(det_prior, det_config):
    mutated = enumerate_game(det_config, det_prior, 2,
                             variant="hallucinate_unconditioned")
    assert hallucination_distribution_check(mutated, 2) > 0


def test_distribution_equality_degenerate_prior(det_prior, det_config):
    from ielab.priors import DiscretePrior

    # atom 0 has reward 0 everywhere, so the punish event never empties
    single = DiscretePrior((det_prior.atoms[0],), (Fraction(1),))
    table = enumerate_game(det_config, single, 2)
    assert hallucination_distribution_check(table, 2) == 0
    assert hygiene_tv(table, "honest", 2) == 0


def test_one_step_audit_passes(det_table3, det_prior):
    provider = _det_target_provider(det_prior)
    for ell in (1, 2, 3):
        rep = one_step_audit(det_table3, ell, provider)
        assert rep.ok
        strict = [e for e in rep.entries if not e.vacuous]
        if ell == 1:
            assert strict == []  # nothing explored yet: target is all policies
        else:
            assert strict
            for e in strict:
                assert e.condition_holds
                assert e.in_target is True


def test_one_step_audit_condition_violated(det_prior, det_config):
    """n_phase = 1 invalidates the condition; the report must say so rather
    than assert the conclusion."""
    tiny = MechanismConfig(1, 1, det_config.eps_pun, det_config.total_phases)
    table = enumerate_game(tiny, det_prior, 2)
    provider = _det_target_provider(det_prior)
    rep = one_step_audit(table, 2, provider)
    strict = [e for e in rep.entries if not e.vacuous]
    assert strict and all(not e.condition_holds for e in strict)
    assert rep.ok  # violations only count when the condition holds


def test_one_step_audit_degenerate_target(det_table3, det_tables):
    with pytest.raises(DegenerateSplit):
        one_step_audit(det_table3, 2, det_tables.policies)
    with pytest.raises(DegenerateSplit):
        one_step_audit(det_table3, 2, [])


def test_p_hal_audit_exact_bound(det_table3, det_config):
    # claim equality case: honest and hallucinated coincide on the punish
    # event, so p_hal equals the bound with zero slack
    for ell in (2, 3):
        audits = p_hal_audit(det_table3, ell)
        assert audits
        for a in audits:
            assert a["slack"] >= 0
            assert a["p_hal"] == a["p_hal_agent"]


def test_oracle_cap(det_prior, det_config):
    with pytest.raises(CapExceeded):
        enumerate_game(det_config, det_prior, 3, cap=3)


def test_stochastic_micro_table(stoch_prior):
    """The supported stochastic family enumerates at two phases; anything
    deeper must hit the cap rather than approximate."""
    cfg = MechanismConfig(40, 1, Fraction(7, 2880), 2, rho=Fraction(1, 4))
    table = enumerate_game(cfg, stoch_prior, 2, cap=40_000)
    assert table.total_mass() == 1
    assert hygiene_tv(table, "censored", 2) == 0
    assert hygiene_tv(table, "honest", 2) == 0
    assert hallucination_distribution_check(table, 2) == 0
    with pytest.raises(CapExceeded):
        enumerate_game(cfg, stoch_prior, 3, cap=60)


def test_enumerate_game_zero_evidence_names_the_assumption():
    """A class whose rewards cannot be punished: the oracle's hallucination
    posterior raises the ledger API's ZeroEvidence text."""
    marginals = {
        (1, 1, h): DiscreteDist.of([("0.5", "0.5"), ("0.8", "0.5")]) for h in (1, 2)
    }
    fp = FactoredRewardPrior(
        1, 1, 2, transition_atoms=(([1], {(1, 1, 1): [1]}, 1),),
        reward_marginals=marginals,
    )
    with pytest.raises(ZeroEvidence, match="punish event has zero posterior mass"):
        enumerate_game(MechanismConfig(4, 1, "0.1", 3), fp.expand(), 3)


def test_verify_builds_each_phases_integer_joint_once(det_prior, det_config, monkeypatch):
    """verify_hygiene and verify_one_step on a fresh det table build the
    audits' integer joint (oracle._mech_joint) once per phase, though
    one_step_audit and p_hal_audit both read it, and give no node a
    Fraction view of its masses."""
    table = enumerate_game(det_config, det_prior, 3)
    built = []
    mech_joint = oracle._mech_joint
    monkeypatch.setattr(oracle, "_mech_joint", lambda t, ell: built.append(ell) or mech_joint(t, ell))
    harness.verify_hygiene(table, 2)
    harness.verify_one_step(table, 3)
    assert built == [1, 2, 3]
    assert not any(hasattr(node, "weights") for nodes in table.nodes.values() for node in nodes)


def test_det_target_provider_refuses_several_transition_tables():
    """The det one-step target is read off atom 0's transitions, so a det
    prior with two transition tables is refused, naming the count."""
    marginals = {(x, a, h): DiscreteDist.of([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
                 for x in (1, 2) for a in (1, 2) for h in (1, 2)}
    stay = {(1, 1, 1): [1, 0], (1, 2, 1): [0, 1], (2, 1, 1): [0, 1], (2, 2, 1): [0, 1]}
    swap = {**stay, (1, 1, 1): [0, 1], (1, 2, 1): [1, 0]}
    fp = FactoredRewardPrior(2, 2, 2, transition_atoms=(([1, 0], stay, Fraction(1, 2)),
                                                        ([1, 0], swap, Fraction(1, 2))),
                             reward_marginals=marginals)
    assert fp.is_deterministic()
    with pytest.raises(PreconditionViolated, match="2 transition tables"):
        _det_target_provider(fp.expand())
