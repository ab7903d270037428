from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import dataclasses

from ielab import (
    MechanismConfig,
    OracleUnavailable,
    bayes_greedy,
    build_model,
    canonical_posterior,
    enumerate_game,
    make_agent,
    mechanism_posterior,
    prior_as_posterior,
    prob_parameters,
    raw_ledger,
    replay_signals,
    run_game,
    totally_censor,
)
from ielab.agents import episode_phase
from ielab.mdp import DiscreteDist
from ielab.oracle import mechanism_posterior_from_table, p_hal_audit
from ielab.priors import DiscretePrior


def test_episode_phase_inverse():
    cfg = MechanismConfig(n_phase=10, n_lrn=3, eps_pun="0.1", total_phases=6)
    for ell in range(1, 7):
        from ielab import phase_episodes

        for k in phase_episodes(cfg, ell):
            assert episode_phase(cfg, k) == ell


def test_empty_ledger_both_modes_prior_greedy(det_prior, det_config):
    empty_hal = raw_ledger(2, 2, 2, [])
    from ielab.mdp import all_triples
    from ielab.ledgers import Ledger

    empty = Ledger(2, 2, 2, all_triples(2, 2, 2), ())
    prior_pol = bayes_greedy(prior_as_posterior(det_prior))
    for mode in ("canonical_truster", "fully_rational"):
        agent = make_agent(mode, det_prior, det_config)
        assert agent.choose(1, episode_phase(det_config, 1), empty) == prior_pol
    assert empty_hal.entries == ()


def test_mechanism_posterior_weights_and_limit(det_prior, det_config):
    """p0 = 0 collapses the mixture onto the honest branch, i.e. the
    canonical posterior of the revealed ledger."""
    table = enumerate_game(det_config, det_prior, 2)
    node = table.nodes[2][0]
    lam = node.lam_hon
    k = det_config.n_lrn + 1  # an episode of phase 2
    post, p_hal = mechanism_posterior(det_prior, det_config, k, lam)
    assert sum(post.weights) == 1
    assert 0 <= p_hal <= 1
    limit, p0_hal = mechanism_posterior(det_prior, det_config, k, lam, p0=0)
    can = canonical_posterior(det_prior, lam)
    assert limit.weights == can.weights
    assert p0_hal == 0


def test_mechanism_posterior_matches_table(det_prior, det_config):
    """Agent formula vs independent joint-table marginalization: exact."""
    table = enumerate_game(det_config, det_prior, 2)
    for node in table.nodes[2]:
        for br in node.branches:
            k = det_config.n_lrn + 1
            post, _ = mechanism_posterior(det_prior, det_config, k, br.ledger)
            from_table = mechanism_posterior_from_table(table, 2, br.ledger)
            for i, w in enumerate(post.weights):
                assert w == from_table.get(i, Fraction(0))


def test_p_hal_cross_check_exact(det_prior, det_config):
    table = enumerate_game(det_config, det_prior, 2)
    for audit in p_hal_audit(table, 2):
        assert audit["p_hal_agent"] == audit["p_hal"]
        assert audit["slack"] >= 0


def test_hallucination_episode_choice_lands_in_target(det_prior, det_config, det_tables):
    """On micro-det hallucination episodes the rational agent's choice visits
    an unexplored triple (the audited one-step conclusion, asserted in-run)."""
    from ielab.analysis import first_unexplored_stage

    agent = make_agent("fully_rational", det_prior, det_config)
    for seed in range(8):
        fresh = make_agent("fully_rational", det_prior, det_config)
        log = run_game(det_config, det_prior, fresh, seed=seed,
                       episode_log="hallucination")
        m_true = det_prior.atoms[log.true_atom]
        for p in log.phases:
            U = frozenset(tuple(t) for t in p.U)
            reachable_left = any(
                first_unexplored_stage(m_true, pol, U) <= 2
                for pol in det_tables.policies
            )
            if not reachable_left:
                break
            from ielab.mdp import MarkovPolicy

            chosen = MarkovPolicy.from_encoding(p.hal_policy, 2, 2, 2)
            assert first_unexplored_stage(m_true, chosen, U) <= 2
    assert agent.mode == "fully_rational"


def test_exploitation_agreement_theory_scale(stoch_prior):
    big = MechanismConfig(n_phase=70218, n_lrn=2, eps_pun=Fraction(7, 2880),
                          total_phases=8, rho=Fraction(1, 4))
    for seed in range(4):
        a_c = make_agent("canonical_truster", stoch_prior, big)
        log = run_game(big, stoch_prior, a_c, seed=seed, episode_log="hallucination")
        a_r = make_agent("fully_rational", stoch_prior, big)
        for p, (_, signals) in zip(log.phases, replay_signals(log, stoch_prior)):
            if p.honest_policy is None:
                continue
            pol = a_r.choose(p.first_episode, p.ell, signals["honest"])
            assert pol.encoding == p.honest_policy


def test_fully_rational_oracle_unavailable():
    """Instances whose policy space exceeds the enumeration cap surface
    OracleUnavailable instead of silently approximating."""
    S, A, H = 3, 4, 4  # 4^12 policies > 10^6
    transitions = {
        (x, a, h): [1 if y == 0 else 0 for y in range(S)]
        for x in range(1, S + 1) for a in range(1, A + 1) for h in range(1, H)
    }
    rewards = {
        (x, a, h): DiscreteDist.point(0)
        for x in range(1, S + 1) for a in range(1, A + 1) for h in range(1, H + 1)
    }
    m = build_model(S, A, H, [1, 0, 0], transitions, rewards, reward_support=(0, 1))
    prior = DiscretePrior((m,), (Fraction(1),))
    cfg = MechanismConfig(4, 1, "0.1", 2)
    agent = make_agent("fully_rational", prior, cfg)
    lam = totally_censor(raw_ledger(S, A, H, []))
    with pytest.raises(OracleUnavailable):
        agent.choose(2, episode_phase(cfg, 2), lam)


def replayed_choices(agent, log, prior):
    """(choices checked, phases with a mismatch): each logged ``hal_policy``
    and, in a phase of several episodes, ``honest_policy`` is compared with
    the exact ``agent.choose`` of its signal ledger from ``replay_signals``."""
    checked, mismatched = 0, []
    for p, (ell, signals) in zip(log.phases, replay_signals(log, prior)):
        want = [(p.k_star, "hallucinated", p.hal_policy)]
        if p.last_episode > p.first_episode:
            want.append((p.first_episode, "honest", p.honest_policy))
        checked += len(want)
        if any(agent.choose(k, ell, signals[kind]).encoding != code
               for k, kind, code in want):
            mismatched.append(ell)
    return checked, mismatched


@pytest.mark.parametrize("instance", ["det", "stoch", "stoch-n_lrn2", "hal-rewards"])
def test_in_run_float_choices_equal_exact_choices(instance, det_prior, det_config,
                                                  stoch_factored, stoch_prior):
    """Every in-run float choice of both agent modes is the exact
    ``AgentSpec.choose`` of its signal ledger, replayed from the log: det
    seeds 0..99, stoch at n_lrn 8 over 40 phases with seeds 0..4, at n_lrn
    2 over 12 phases with seeds 0..19, and the hal-rewards goldens' config
    (eps_pun 3/4, n_lrn 8, 40 phases, seeds 0..2), whose hallucinated
    ledgers carry nonzero rewards."""
    if instance == "det":
        prior, cfg, seeds = det_prior, det_config, range(100)
    else:
        n_lrn, phases, seeds = {"stoch": (8, 40, range(5)), "stoch-n_lrn2": (2, 12, range(20)),
                                "hal-rewards": (8, 40, range(3))}[instance]
        cfg, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                                 n_lrn_override=n_lrn, total_phases_override=phases)
        if instance == "hal-rewards":
            cfg = dataclasses.replace(cfg, eps_pun=Fraction(3, 4))
        prior = stoch_prior
    for mode in ("canonical_truster", "fully_rational"):
        for seed in seeds:
            agent = make_agent(mode, prior, cfg)
            log = run_game(cfg, prior, agent, seed, episode_log="hallucination")
            checked, mismatched = replayed_choices(agent, log, prior)
            # one choice per single-episode phase, two per later phase
            assert checked == cfg.n_lrn + 2 * (cfg.total_phases - cfg.n_lrn)
            assert mismatched == []


@pytest.mark.parametrize("mode", ["canonical_truster", "fully_rational"])
def test_replayed_choice_check_flags_an_edited_phase(mode, det_prior, det_config):
    """Negative control: with one phase's logged ``hal_policy`` changed in
    a det log, the replayed choice check fails at exactly that phase."""
    agent = make_agent(mode, det_prior, det_config)
    for seed in range(3):
        log = run_game(det_config, det_prior, agent, seed, episode_log="hallucination")
        for i in (0, 3, len(log.phases) - 1):
            edited = dataclasses.replace(log, phases=list(log.phases))
            p = edited.phases[i]
            # micro_det_1 has 2 ** (S * H) = 16 policies
            edited.phases[i] = dataclasses.replace(p, hal_policy=(p.hal_policy + 1) % 16)
            assert replayed_choices(agent, edited, det_prior)[1] == [p.ell]


def test_fully_rational_long_run_no_false_zero_evidence(stoch_prior):
    """Deep into a long run every atom's revealed-reward log-mass is far
    below 0 (the largest finite one of the honest ledger falls below -800
    here). The mechanism posterior shifts by that largest value, so exp()
    cannot underflow to an all-zero likelihood and report the ledger
    impossible: the run reaches coverage without ZeroEvidence."""
    cfg = MechanismConfig(70218, 256, Fraction(7, 2880), 1200, rho=Fraction(1, 4))
    agent = make_agent("fully_rational", stoch_prior, cfg)
    tops = []

    def hook(ctx, log):
        log_mass = ctx.fast.tables.reward_loglik(ctx.hon_counts)
        tops.append(log_mass[np.isfinite(log_mass)].max())
        return ctx.covered_at is not None

    log = run_game(cfg, stoch_prior, agent, seed=0, episode_log="hallucination",
                   phase_hook=hook)
    assert min(tops) < -800
    assert log.summary["phases_to_coverage"] == len(log.phases) == 1081
