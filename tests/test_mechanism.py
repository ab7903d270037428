from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ielab import (
    AssumptionViolated,
    DiscreteDist,
    DiscretePrior,
    FactoredRewardPrior,
    MechanismConfig,
    ZeroEvidence,
    all_triples,
    canonical_posterior,
    censor_ledger,
    det_parameters,
    det_phase_length,
    enumerate_policies,
    enumerate_trajectories,
    eps_r_bound,
    hallucinate_ledger,
    hallucination_posterior,
    hh_condition_holds,
    make_agent,
    p_hal_bound,
    phase_episodes,
    prob_parameters,
    punish_event,
    q_pun_r_alt_exact,
    raw_ledger,
    replay_signals,
    run_game,
    run_games,
    totally_censor,
    underexplored_set,
    visit_counts,
)
from ielab import harness, mechanism
from ielab.cli import main
from ielab.harness import _write_artifact
from ielab.instances import random_model
from ielab.mdp import (MarkovPolicy, Step, complement_triples,
                       event_visit_probability, reach_set, reachable_triples, rollout)
from ielab.mechanism import (EpisodeBlock, PhaseRecord, _dumps, _hh_exploring_policies,
                             hallucination_prior_prob)
from ielab.priors import exact_lattice, shared_tables
from ielab.rng import index_from_uniform, stream


def test_phase_structure():
    cfg = MechanismConfig(n_phase=10, n_lrn=3, eps_pun="0.1", total_phases=6)
    assert list(phase_episodes(cfg, 1)) == [1]
    assert list(phase_episodes(cfg, 3)) == [3]
    assert list(phase_episodes(cfg, 4)) == list(range(4, 14))
    assert list(phase_episodes(cfg, 5)) == list(range(14, 24))
    assert hallucination_prior_prob(cfg, 2) == 1
    assert hallucination_prior_prob(cfg, 5) == Fraction(1, 10)


def test_punish_event_extremes(det_prior):
    assert punish_event(det_prior, frozenset(), "0.1") == frozenset(range(det_prior.n))
    assert punish_event(det_prior, frozenset({(1, 1, 1)}), 1) == frozenset(range(det_prior.n))
    one = punish_event(det_prior, frozenset({(1, 1, 1)}), "0.1")
    expected = frozenset(
        i for i, m in enumerate(det_prior.atoms) if m.mean_reward(1, 1, 1) == 0
    )
    assert one == expected
    # canonical (prior) probability of the event is 0.5
    assert sum(det_prior.weights[i] for i in one) == Fraction(1, 2)


def test_hallucination_posterior_zero_evidence(det_prior):
    pol = enumerate_policies(2, 2, 2)[0]
    m1, m2 = det_prior.atoms[5], det_prior.atoms[250]
    t1 = next(iter(enumerate_trajectories(m1, pol)))[0]
    t2 = next(iter(enumerate_trajectories(m2, pol)))[0]
    bad = totally_censor(raw_ledger(2, 2, 2, [(pol, t1), (pol, t2)]))
    # totally censored ledgers are never inconsistent for this class; force a
    # contradiction through an impossible event instead
    with pytest.raises(ZeroEvidence):
        hallucination_posterior(det_prior, bad, frozenset())


def test_hallucinate_ledger_deterministic_model(det_prior):
    pol = enumerate_policies(2, 2, 2)[0]
    m = det_prior.atoms[77]
    traj = next(iter(enumerate_trajectories(m, pol)))[0]
    lam_cens = totally_censor(raw_ledger(2, 2, 2, [(pol, traj)]))
    visited = frozenset(traj.triples())
    U = all_triples(2, 2, 2) - visited
    mu_hal = det_prior.atoms[128]
    out = hallucinate_ledger(lam_cens, mu_hal, U, stream(3, "hal"))
    assert out.censor_set == U
    for _, steps in out.entries:
        for s in steps:
            if (s.x, s.a, s.h) in U:
                assert s.r is None
            else:
                assert s.r == mu_hal.mean_reward(s.x, s.a, s.h)


def test_hallucinate_ledger_all_censored_equals_input(det_prior):
    pol = enumerate_policies(2, 2, 2)[3]
    m = det_prior.atoms[9]
    traj = next(iter(enumerate_trajectories(m, pol)))[0]
    lam_cens = totally_censor(raw_ledger(2, 2, 2, [(pol, traj)]))
    out = hallucinate_ledger(lam_cens, det_prior.atoms[0], all_triples(2, 2, 2), stream(1, "h"))
    assert out == lam_cens


def test_hallucinate_ledger_reward_law(stoch_prior):
    """Joint law of hallucinated rewards equals the product of reward masses."""
    pol = enumerate_policies(2, 2, 2)[6]
    mu_hal = stoch_prior.atoms[311]
    traj = list(enumerate_trajectories(mu_hal, pol))[0][0]
    lam_cens = totally_censor(raw_ledger(2, 2, 2, [(pol, traj)]))
    U = frozenset()
    visited = traj.triples()
    pmf = {}
    for r1 in (0, 1):
        for r2 in (0, 1):
            p = (mu_hal.reward_dist(*visited[0]).mass(r1)
                 * mu_hal.reward_dist(*visited[1]).mass(r2))
            pmf[(Fraction(r1), Fraction(r2))] = float(p)
    rng = stream(5, "law")
    n = 60_000
    counts: dict = {}
    for _ in range(n):
        out = hallucinate_ledger(lam_cens, mu_hal, U, rng)
        key = tuple(s.r for s in out.entries[0][1])
        counts[key] = counts.get(key, 0) + 1
    for key, p in pmf.items():
        se = (p * (1 - p) / n) ** 0.5
        assert abs(counts.get(key, 0) / n - p) <= 3 * se + 1e-9


def test_honest_ledger(det_prior):
    pol = enumerate_policies(2, 2, 2)[0]
    m = det_prior.atoms[33]
    traj = next(iter(enumerate_trajectories(m, pol)))[0]
    lam_raw = raw_ledger(2, 2, 2, [(pol, traj)])
    # n_lrn = 1: U is the unvisited set, so honest reveals exactly the raw rewards
    U = all_triples(2, 2, 2) - frozenset(traj.triples())
    hon = censor_ledger(lam_raw, U)
    for (_, raw_t), (_, hon_t) in zip(lam_raw.entries, hon.entries):
        for rs, hs in zip(raw_t, hon_t):
            assert hs.r == rs.r
    full = censor_ledger(lam_raw, all_triples(2, 2, 2))
    assert all(s.r is None for _, t in full.entries for s in t)
    # revealed rewards sit exactly on the complement of U
    for _, t in hon.entries:
        for s in t:
            assert (s.r is None) == ((s.x, s.a, s.h) in U)


def test_det_parameters_micro(det_factored):
    cfg, info = det_parameters(det_factored)
    assert cfg.eps_pun == Fraction(1, 10)
    assert cfg.n_phase == 7680
    assert cfg.n_lrn == 1
    assert cfg.total_phases == 8
    assert info["f_min"] == Fraction(1, 2)


def test_det_parameters_assumptions():
    zero_r = FactoredRewardPrior(
        1, 1, 1,
        transition_atoms=(([1], {}, 1),),
        reward_marginals={(1, 1, 1): DiscreteDist.point(0)},
    )
    with pytest.raises(AssumptionViolated):
        det_parameters(zero_r)
    stochastic = FactoredRewardPrior(
        1, 1, 1,
        transition_atoms=(([1], {}, 1),),
        reward_marginals={(1, 1, 1): DiscreteDist.of([(0, "0.5"), ("0.8", "0.5")])},
        dist_of_mean=lambda m: DiscreteDist.of([(0, 1 - m), (1, m)]) if 0 < m < 1
        else DiscreteDist.point(m),
    )
    with pytest.raises(AssumptionViolated):
        det_parameters(stochastic)


def test_det_phase_length_formula():
    # single-triple horizon-1 case with full punish mass
    assert det_phase_length(1, Fraction(2, 5), 1, 1) == 15
    assert det_phase_length(1, Fraction(1, 3), 1, 1) == 18
    # Micro-DET-1 numbers
    assert det_phase_length(2, Fraction(2, 5), Fraction(1, 2), 8) == 7680


def test_prob_parameters_report(stoch_factored):
    cfg, rep = prob_parameters(stoch_factored, Fraction(1, 4), 0.1, n_lrn_override=4)
    assert rep["eps_pun"] == Fraction(7, 2880)
    assert rep["Delta_0"] == Fraction(7, 160)
    assert rep["rho_0"] == Fraction(7, 160) / 6
    assert rep["rho_prog"] == Fraction(7, 160) ** 2 / 24
    assert rep["q_pun"] == Fraction(1, 256)
    assert rep["n_phase_theory"] == 70218
    assert cfg.n_lrn == 4
    assert rep["L_0"] == math.ceil(4 * 8 * 4 / float(rep["rho_prog"]))
    assert rep["K"] == rep["L_0"] * cfg.n_phase


def test_prob_parameters_examples(stoch_factored):
    assert eps_r_bound(math.exp(-2), 4) == pytest.approx(1.0, abs=1e-12)
    _, rep = prob_parameters(stoch_factored, 1, 0.1, r_alt=Fraction(2, 5))
    assert rep["Delta_0"] == Fraction(1, 5)
    assert rep["rho_prog"] == Fraction(1, 600)
    with pytest.raises(AssumptionViolated):
        prob_parameters(stoch_factored, 0, 0.1)
    with pytest.raises(AssumptionViolated):
        prob_parameters(stoch_factored, Fraction(1, 4), 0.1, r_alt=0)


def test_q_pun_r_alt_exact(stoch_prior, stoch_factored):
    pol = enumerate_policies(2, 2, 2)[0]
    m = stoch_prior.atoms[8]
    t = list(enumerate_trajectories(m, pol))[0][0]
    lam_raw = raw_ledger(2, 2, 2, [(pol, t)])
    universe = [
        totally_censor(raw_ledger(2, 2, 2, [])),
        totally_censor(lam_raw),
        censor_ledger(lam_raw, all_triples(2, 2, 2) - frozenset(t.triples())),
    ]
    eps = Fraction(7, 2880)
    q_pun, r_alt = q_pun_r_alt_exact(stoch_prior, 1, eps, universe)
    # reward independence: q_pun = f_min^SAH and r_alt = r_min exactly
    assert q_pun == stoch_factored.f_min(eps) ** 8
    assert r_alt == stoch_factored.r_min()
    # single empty totally censored ledger: q_pun is the prior punish mass
    q0, _ = q_pun_r_alt_exact(stoch_prior, 1, eps, universe[:1] + universe[2:])
    punish = punish_event(stoch_prior, all_triples(2, 2, 2), eps)
    assert q0 == sum(stoch_prior.weights[i] for i in punish)


def test_p_hal_bound_values():
    assert p_hal_bound(Fraction(1, 2), 1) == Fraction(1, 2)
    assert p_hal_bound(1, Fraction(1, 7)) == 1
    assert p_hal_bound(Fraction(1, 10), Fraction(1, 2)) == Fraction(2, 11)
    assert p_hal_bound(0, Fraction(1, 2)) == 0


def test_hh_condition():
    holds, lhs, rhs = hh_condition_holds(100, Fraction(1, 2), Fraction(-1, 10), 2)
    assert not holds and rhs < 0
    holds, _, _ = hh_condition_holds(1, 1, 6, 2)  # gap = 3H with H=2
    assert holds
    holds, _, _ = hh_condition_holds(1, 1, Fraction(59, 10), 2)
    assert not holds


def test_run_game_zero_phases(det_prior, det_config):
    agent = make_agent("canonical_truster", det_prior, det_config)
    cfg = MechanismConfig(det_config.n_phase, 1, det_config.eps_pun, 0)
    log = run_game(cfg, det_prior, agent, seed=0)
    assert log.phases == [] and log.episodes == []
    assert log.summary["phases_to_coverage"] is None


def test_run_game_replay_and_modes(det_prior, det_config):
    small = MechanismConfig(5, 1, det_config.eps_pun, 4)
    a1 = make_agent("fully_rational", det_prior, small)
    full = run_game(small, det_prior, a1, seed=21, episode_log="full")
    a2 = make_agent("fully_rational", det_prior, small)
    again = run_game(small, det_prior, a2, seed=21, episode_log="full")
    assert full.to_jsonl() == again.to_jsonl()
    a3 = make_agent("fully_rational", det_prior, small)
    lean = run_game(small, det_prior, a3, seed=21, episode_log="hallucination")
    # phase records identical across modes; episode records are a subset
    assert [p.to_dict() for p in full.phases] == [p.to_dict() for p in lean.phases]
    full_hal = [e.to_dict() for e in full.episodes if e.is_hallucination]
    lean_hal = [e.to_dict() for e in lean.episodes]
    assert full_hal == lean_hal
    assert len(full.episodes) == sum(len(phase_episodes(small, ell)) for ell in range(1, 5))


def random_prior(seed: int, n: int) -> DiscretePrior:
    """n equally weighted random_model atoms with S = 3, A = 2, H = 3."""
    rng = np.random.default_rng(seed)
    return DiscretePrior(tuple(random_model(rng, 3, 2, 3) for _ in range(n)),
                         (Fraction(1, n),) * n)


def assert_episode_lines_are_generic(log):
    """Every episode line of the log equals the generic encoder's output."""
    lines = [line for line in log.to_jsonl().splitlines() if '"type":"episode"' in line]
    assert lines == [json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
                     for e in log.episodes]


@pytest.mark.parametrize("case", ["det-full", "stoch-full", "stoch-hallucination"])
def test_written_artifact_is_the_logs_text(case, tmp_path, det_prior, det_config,
                                           stoch_prior):
    """The bytes ``_write_artifact`` writes hash to the digest it returns
    and to ``log.digest()``, and equal ``log.to_jsonl().encode()``; every
    episode line is the generic encoder's. A full-log micro_det_1 seed of
    the certified schedule (53,761 episodes), and micro_stoch_1 with 64
    episodes a phase in both log modes."""
    if case == "det-full":
        prior, cfg, mode, seed, episode_log = det_prior, det_config, "fully_rational", 5, "full"
    else:
        prior, mode, seed = stoch_prior, "canonical_truster", 1
        cfg = MechanismConfig(64, 2, Fraction(7, 2880), 6, rho=Fraction(1, 4))
        episode_log = case.removeprefix("stoch-")
    log = run_game(cfg, prior, make_agent(mode, prior, cfg), seed, episode_log=episode_log)
    digest = _write_artifact(str(tmp_path), seed, {"seed": seed}, log)
    data = (tmp_path / f"run-{seed}" / "game.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest == log.digest()
    assert data == log.to_jsonl().encode()
    assert_episode_lines_are_generic(log)


def test_writer_holds_a_phases_bytes_once(tmp_path, det_prior, det_config):
    """The tracemalloc peak of ``log.write(f)`` on full-log seed 5 of
    micro_det_1's certified schedule stays below twice the largest phase's
    episode bytes (1,082,883): a phase's lines are held once, as they are
    hashed and written, never also as a string and its encoded copy. On
    2 cores, Python 3.11.7, numpy 2.4.6, the peak read 2.41x that phase
    when the writer encoded each phase's str, and 1.16x with the byte
    stream."""
    log = run_game(det_config, det_prior, make_agent("fully_rational", det_prior, det_config),
                   5, episode_log="full", track_hh=True)
    largest = max(len(b"".join(b.chunks())) for b in log.blocks)
    with open(tmp_path / "game.jsonl", "wb") as f:
        tracemalloc.start()
        try:
            log.write(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert log.summary["episodes_simulated"] == 53_761
    assert peak < 2 * largest, f"traced peak {peak} B, largest phase {largest} B"


@pytest.mark.parametrize("mode", ["canonical_truster", "fully_rational"])
def test_stoch_full_log_matches_hallucination_mode(stoch_prior, mode):
    """On stochastic transitions and rewards too, a full-log run (its
    multi-episode phases read their streams as one batch and roll out the
    honest rows as one block) has the phase records and hallucination
    episodes of the hallucination-mode run. The random prior's 3-state,
    3-stage atoms with three reward values give many distinct trajectories
    per phase; its eps_pun near 1 keeps their punish event non-empty."""
    runs = [(stoch_prior, MechanismConfig(6, 2, Fraction(7, 2880), 5, rho=Fraction(1, 4))),
            (random_prior(12, 4), MechanismConfig(16, 2, Fraction(99, 100), 8,
                                                  rho=Fraction(1, 4)))]
    for prior, cfg in runs:
        n_episodes = sum(len(phase_episodes(cfg, ell)) for ell in range(1, cfg.total_phases + 1))
        for seed in range(4):
            full = run_game(cfg, prior, make_agent(mode, prior, cfg), seed,
                            episode_log="full")
            lean = run_game(cfg, prior, make_agent(mode, prior, cfg), seed,
                            episode_log="hallucination")
            assert [p.to_dict() for p in full.phases] == [p.to_dict() for p in lean.phases]
            assert ([e.to_dict() for e in full.episodes if e.is_hallucination]
                    == [e.to_dict() for e in lean.episodes])
            assert len(full.episodes) == n_episodes
            assert_episode_lines_are_generic(full)


@pytest.mark.parametrize("instance", ["det", "stoch"])
def test_full_log_episodes_read_their_traj_addresses(instance, det_prior, det_config,
                                                     stoch_prior):
    """Log formats 2 and 3 address episode k's draws as ("traj", k): every
    full-log episode's trajectory is the scalar ``rollout`` of
    ``stream(seed, "traj", k).random(2H)`` under the true model and the
    line's policy, and the header names the format."""
    if instance == "det":
        prior, cfg = det_prior, MechanismConfig(40, 1, det_config.eps_pun, 3)
    else:
        prior, cfg = stoch_prior, MechanismConfig(16, 2, Fraction(7, 2880), 5,
                                                  rho=Fraction(1, 4))
    S, A, H = prior.shape
    for seed in range(3):
        log = run_game(cfg, prior, make_agent("fully_rational", prior, cfg), seed,
                       episode_log="full")
        model = prior.atoms[log.true_atom]
        for e in log.episodes:
            u = stream(seed, "traj", e.k).random(2 * H)
            policy = MarkovPolicy.from_encoding(e.policy, S, A, H)
            assert e.trajectory == rollout(model, policy, u)
        header = json.loads(log.to_jsonl().partition("\n")[0])
        assert header["log_format"] == 3
        assert not any("traj_stream" in e.to_dict() for e in log.episodes)


def test_hh_slack_signs_the_phase_length_condition(det_prior, det_config):
    """``hh_slack`` is rhs - lhs of the phase-length condition: on det
    seeds 0..9 it is None exactly where ``hh_condition`` is, and >= 0
    exactly where the condition holds, under the certified schedule and
    under phases of 40 episodes, too short for the condition to hold
    everywhere."""
    seen = set()
    for cfg in (det_config, MechanismConfig(40, 1, det_config.eps_pun, 8)):
        for seed in range(10):
            log = run_game(cfg, det_prior, make_agent("fully_rational", det_prior, cfg),
                           seed=seed, episode_log="hallucination", track_hh=True)
            for p in log.phases:
                if p.hh_condition is None:
                    assert p.hh_slack is None
                else:
                    assert (p.hh_slack >= 0) == p.hh_condition
                assert p.to_dict()["hh_slack"] == p.hh_slack
                seen.add(p.hh_condition)
    assert seen == {None, True, False}


def test_full_log_lines_with_shared_trajectories(det_prior, det_config):
    """The honest records of one phase with equal trajectories share one
    Step tuple (the hallucination record keeps its own rollout's), and
    every episode line of the log still equals the generic encoder's
    output."""
    cfg = MechanismConfig(40, 1, det_config.eps_pun, 3)
    log = run_game(cfg, det_prior, make_agent("fully_rational", det_prior, cfg), seed=3,
                   episode_log="full")
    tuples_of = {}
    for e in log.episodes:
        assert isinstance(e.trajectory, tuple)
        assert all(isinstance(s, Step) for s in e.trajectory)
        key = (e.ell, e.is_hallucination, e.trajectory)
        tuples_of.setdefault(key, set()).add(id(e.trajectory))
    assert all(len(ids) == 1 for ids in tuples_of.values())
    assert len(tuples_of) < len(log.episodes)
    assert_episode_lines_are_generic(log)


def test_run_game_zero_evidence_context():
    """A class whose rewards cannot be punished trips ZeroEvidence with the
    offending phase in the message."""
    marginals = {
        (1, 1, h): DiscreteDist.of([("0.5", "0.5"), ("0.8", "0.5")]) for h in (1, 2)
    }
    fp = FactoredRewardPrior(
        1, 1, 2, transition_atoms=(([1], {(1, 1, 1): [1]}, 1),),
        reward_marginals=marginals,
    )
    prior = fp.expand()
    cfg = MechanismConfig(4, 1, "0.1", 3)
    agent = make_agent("canonical_truster", prior, cfg)
    with pytest.raises(ZeroEvidence, match="phase 2"):
        run_game(cfg, prior, agent, seed=0)


@pytest.mark.parametrize("draw_rows", [7, 4096])
@pytest.mark.parametrize("mode", ["canonical_truster", "fully_rational"])
def test_run_games_logs_equal_run_game(mode, draw_rows, monkeypatch, det_prior, det_config,
                                       stoch_factored, stoch_prior):
    """``run_games`` yields, seed by seed, the log ``run_game`` makes for
    the seed alone, byte for byte (``GameLog.write``), on a shuffled seed
    list with a repeated seed: with both episode logs, the hal-rewards
    goldens' config (eps_pun 3/4) and a phase hook that stops each run at
    a seed-dependent phase. Reads of 7 rows split runs and phases between
    reads; reads of 4096 rows hold one batch's rows at once. The one-seed
    runs read at the default size."""
    base, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                              n_lrn_override=8, total_phases_override=40)
    hal_rewards = MechanismConfig(base.n_phase, 8, Fraction(3, 4), 40, base.rho)

    def stop(ctx, log):
        return ctx.ell == 3 + log.seed % 4

    cases = [
        (stoch_prior, hal_rewards, {"episode_log": "hallucination"}),
        (stoch_prior, hal_rewards, {"episode_log": "hallucination", "phase_hook": stop}),
        (stoch_prior, MechanismConfig(16, 2, Fraction(7, 2880), 5, rho=Fraction(1, 4)),
         {"episode_log": "full"}),
        (det_prior, MechanismConfig(40, 1, det_config.eps_pun, 8),
         {"episode_log": "full", "phase_hook": stop, "track_hh": True}),
    ]
    seeds = [5, 2, 9, 2, 0]
    for prior, cfg, options in cases:
        alone = [run_game(cfg, prior, make_agent(mode, prior, cfg), seed, **options).write()
                 for seed in seeds]
        with monkeypatch.context() as m:
            m.setattr(mechanism, "_DRAW_ROWS", draw_rows)
            logs = list(run_games(cfg, prior, lambda: make_agent(mode, prior, cfg), seeds,
                                  **options))
        assert [log.seed for log in logs] == seeds
        assert [log.write() for log in logs] == alone


@pytest.mark.parametrize("mode", ["canonical_truster", "fully_rational"])
def test_seed_logs_do_not_depend_on_their_batch(mode, monkeypatch, det_prior, det_config,
                                                stoch_factored, stoch_prior):
    """A seed's log (``GameLog.write``) is the same played alone, in a full
    lockstep batch and in a partial last batch: seeds [5, 2, 9, 2, 0, 7]
    play as the batches [5, 2, 9, 2] and [0, 7]. The cases: the
    hal-rewards config (eps_pun 3/4), whose reward draws take the general
    path, with both episode logs; det with ``track_hh``, at a short
    schedule and at the certified one; and a hook that stops the seeds at
    phases 3 to 6, so seeds stop while others of their batch play on.
    Each case's batches hold 4 seeds' phase records."""
    base, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                              n_lrn_override=8, total_phases_override=40)
    hal_rewards = MechanismConfig(base.n_phase, 8, Fraction(3, 4), 40, base.rho)

    def stop(ctx, log):
        return ctx.ell == 3 + log.seed % 4

    cases = [
        (stoch_prior, hal_rewards, {"episode_log": "hallucination", "phase_hook": stop}),
        (stoch_prior, MechanismConfig(16, 2, Fraction(3, 4), 5, rho=Fraction(1, 4)),
         {"episode_log": "full"}),
        (det_prior, MechanismConfig(40, 1, det_config.eps_pun, 8),
         {"episode_log": "hallucination", "track_hh": True, "phase_hook": stop}),
        (det_prior, det_config, {"episode_log": "hallucination", "track_hh": True}),
    ]
    seeds = [5, 2, 9, 2, 0, 7]
    for prior, cfg, options in cases:
        monkeypatch.setattr(mechanism, "_BATCH_RECORDS", 4 * cfg.total_phases)
        assert mechanism._batch_seeds(cfg) == 4
        alone = [run_game(cfg, prior, make_agent(mode, prior, cfg), seed, **options).write()
                 for seed in seeds]
        logs = list(run_games(cfg, prior, lambda: make_agent(mode, prior, cfg), seeds, **options))
        assert [log.seed for log in logs] == seeds
        assert [log.write() for log in logs] == alone


def test_sweep_reads_each_draw_family_once(monkeypatch, stoch_factored, stoch_prior):
    """Each lockstep batch reads its own draws: 10 seeds at 40 phases play
    as batches of 4, 4 and 2 seeds, and a batch of R seeds reads the
    truth family in one ``rng.uniform_rows`` call and the hal-model, traj
    and kstar families (``rng.integer_rows``) in ceil(40 / (``_DRAW_ROWS``
    // R)) calls each. With 4096 rows that is one call per family and
    batch; with 50, below a batch's 160 rows, 4, 4 and 2. No read holds
    more than ``_DRAW_ROWS`` rows."""
    from ielab import rng

    cfg, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                             n_lrn_override=8, total_phases_override=40)
    calls, rows = {}, []

    def counted(name):
        inner = getattr(rng, name)

        def reader(keys, indices, n):
            calls[name] += 1
            rows.append(len(indices))
            return inner(keys, indices, n)
        return reader

    for name in ("uniform_rows", "integer_rows"):
        monkeypatch.setattr(rng, name, counted(name))
    assert mechanism._batch_seeds(cfg) == 4
    for draw_rows, uniform_calls, integer_calls in [(4096, 9, 3), (50, 23, 10)]:
        calls.update(uniform_rows=0, integer_rows=0)
        rows.clear()
        monkeypatch.setattr(mechanism, "_DRAW_ROWS", draw_rows)
        logs = list(run_games(cfg, stoch_prior,
                              lambda: make_agent("canonical_truster", stoch_prior, cfg),
                              range(10), episode_log="hallucination"))
        assert len(logs) == 10
        assert calls == {"uniform_rows": uniform_calls, "integer_rows": integer_calls}
        assert max(rows) <= draw_rows


def test_phase_draws_take_each_phase_first_episode_once(monkeypatch):
    """``_phase_draws`` takes each phase's first episode once and repeats
    it over the batch's seeds: for 4 seeds and 6 phases, 3 of them past
    n_lrn, ``phase_episodes`` runs 6 times, not once per (phase, seed)
    row. Each k* is its phase's first episode, plus past n_lrn the seed's
    ("kstar", ell) draw."""
    from ielab import rng

    cfg = MechanismConfig(n_phase=5, n_lrn=3, eps_pun=Fraction(1, 10), total_phases=6)
    keys = {family: [rng.family_key(s, family) for s in range(4)] for family in rng.FAMILIES}
    calls = []

    def counted(config, ell):
        calls.append(ell)
        return phase_episodes(config, ell)

    monkeypatch.setattr(mechanism, "phase_episodes", counted)
    ells = range(1, 7)
    _, k_star, _ = mechanism._phase_draws(cfg, keys, ells, 4)
    assert sorted(calls) == list(ells)
    for ell, row in zip(ells, k_star.tolist()):
        offsets = (rng.integer_rows(keys["kstar"], [ell] * 4, cfg.n_phase)
                   if ell > cfg.n_lrn else [0] * 4)
        assert row == [phase_episodes(cfg, ell)[0] + o for o in offsets]


def test_run_game_takes_int_seeds(det_prior, det_config):
    """A seed is an int, or a list of ints: numpy's ints play as the int
    they equal, and a range, a float, a bool, a string or a list holding
    one of them is a TypeError naming the value, not a run keyed by its
    text."""
    def play(seed):
        return run_game(det_config, det_prior,
                        make_agent("canonical_truster", det_prior, det_config), seed,
                        episode_log="hallucination")

    log = play(np.int64(5))
    assert type(log.seed) is int and log.write() == play(5).write()
    assert [log.seed for log in play([np.int32(2), 3])] == [2, 3]
    for seed, named in [(range(2), range(2)), (5.0, 5.0), (True, True), ("5", "5"),
                        ([1, 2.0], 2.0), ([False], False)]:
        with pytest.raises(TypeError, match=re.escape(repr(named))):
            play(seed)


def test_run_game_on_no_seeds(det_prior, det_config):
    """An empty seed list plays nothing and returns [], as ``run_games``
    yields nothing for no seeds."""
    agent = make_agent("canonical_truster", det_prior, det_config)
    assert run_game(det_config, det_prior, agent, []) == []
    assert list(run_games(det_config, det_prior, lambda: agent, [])) == []


def test_full_log_reads_honest_uniforms_only_where_they_move(monkeypatch, det_prior,
                                                             det_config, stoch_prior):
    """A full-log run reads ("traj", k) rows for its honest episodes only
    where a uniform can move a trajectory. A one-seed micro_det_1 run of
    the certified schedule reads the truth row, its 8 phases' hal-model
    rows and their 8 k* traj rows, 17 in all, for 53,761 logged episodes;
    a micro_stoch_1 full-log run reads at least one row per simulated
    episode."""
    from ielab import rng

    rows = []
    inner = rng.uniform_rows

    def counted(keys, indices, n):
        rows.append(len(indices))
        return inner(keys, indices, n)

    monkeypatch.setattr(rng, "uniform_rows", counted)
    log = run_game(det_config, det_prior, make_agent("fully_rational", det_prior, det_config),
                   5, episode_log="full")
    assert det_prior.atoms[log.true_atom].is_deterministic
    assert log.summary["episodes_simulated"] == 53761
    assert rows == [1, 8, 8]

    rows.clear()
    cfg = MechanismConfig(16, 2, Fraction(7, 2880), 5, rho=Fraction(1, 4))
    log = run_game(cfg, stoch_prior, make_agent("fully_rational", stoch_prior, cfg), 1,
                   episode_log="full")
    assert not stoch_prior.atoms[log.true_atom].is_deterministic
    assert sum(rows) >= log.summary["episodes_simulated"] == 2 + 3 * 16


def test_batch_shares_reachable_triples_per_transition_table(monkeypatch, det_prior,
                                                             det_config):
    """Every micro_det_1 atom has the one transition table, so a batch's
    seeds compute the policies' ``reachable_triples`` once: 8 det seeds,
    one batch at 8 phases a run, walk each policy once."""
    walks = []

    def counted(model, policy):
        walks.append(policy.encoding)
        return reachable_triples(model, policy)

    monkeypatch.setattr(mechanism, "reachable_triples", counted)
    assert mechanism._batch_seeds(det_config) >= 8
    logs = list(run_games(det_config, det_prior,
                          lambda: make_agent("fully_rational", det_prior, det_config), range(8),
                          episode_log="hallucination", track_hh=True))
    assert len({log.true_atom for log in logs}) > 2
    assert sorted(walks) == sorted(pol.encoding for pol in shared_tables(det_prior).policies)


def test_batches_hold_160_phase_records(monkeypatch, det_prior, det_config, stoch_factored,
                                        stoch_prior):
    """``run_games`` batches as many seeds as hold 160 phase records, at
    least 4: 40 det seeds at 8 phases play in two ``run_game`` calls of
    20, each log the one-seed run's byte for byte, and each batch calls
    ``punish_event`` once per distinct U among its seeds' phase records.
    A 320-phase stoch config (prob-sweep's) plays 4 seeds a batch."""
    calls, punished = [], []

    def batch(config, prior, agent, seeds, **options):
        calls.append(len(seeds))
        punished.append([])
        return run_game(config, prior, agent, seeds, **options)

    def counted(prior, explored, eps):
        punished[-1].append(frozenset(explored))
        return punish_event(prior, explored, eps)

    monkeypatch.setattr(mechanism, "run_game", batch)
    monkeypatch.setattr(mechanism, "punish_event", counted)
    options = {"episode_log": "hallucination", "track_hh": True}
    seeds = range(40)
    logs = list(run_games(det_config, det_prior,
                          lambda: make_agent("fully_rational", det_prior, det_config),
                          seeds, **options))
    assert det_config.total_phases == 8 and calls == [20, 20]
    for i, explored in enumerate(punished):
        per_seed = [{tuple(map(tuple, p.U)) for p in log.phases}
                    for log in logs[20 * i:20 * i + 20]]
        assert len(explored) == len(set(explored)) == len(set().union(*per_seed))
        assert len(explored) < sum(map(len, per_seed))  # the seeds share their Us
    alone = [run_game(det_config, det_prior, make_agent("fully_rational", det_prior, det_config),
                      seed, **options).write() for seed in seeds]
    assert [log.write() for log in logs] == alone

    calls.clear()
    cfg, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1, n_lrn_override=64,
                             total_phases_override=320)
    logs = list(run_games(cfg, stoch_prior, lambda: make_agent("canonical_truster", stoch_prior,
                                                                cfg),
                          range(6), episode_log="hallucination",
                          phase_hook=lambda ctx, log: True))
    assert calls == [4, 2] and [len(log.phases) for log in logs] == [1] * 6


@pytest.mark.parametrize("mode", ["canonical_truster", "fully_rational"])
def test_point_mass_hallucinated_rewards_build_no_generator(mode, monkeypatch, det_prior,
                                                           det_config, stoch_factored,
                                                           stoch_prior):
    """On micro_det_1 and micro_stoch_1 at their schedules' eps_pun, the
    hallucinated atom's law at every explored triple is a point mass, so
    the runs draw their hallucinated rewards without a Generator; the
    draws still happen (explored occurrences are counted)."""
    from ielab import rng

    def refuse(key, index):
        raise AssertionError("a Generator was built for point-mass rewards")

    monkeypatch.setattr(rng, "generator", refuse)
    stoch_cfg, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                                   n_lrn_override=8, total_phases_override=40)
    for prior, cfg, seeds in ((det_prior, det_config, range(8)), (stoch_prior, stoch_cfg, range(6))):
        drawn = []

        def hook(ctx, log):
            drawn.append(int(ctx.hal_counts.sum()))

        list(run_games(cfg, prior, lambda: make_agent(mode, prior, cfg), seeds,
                       episode_log="hallucination", phase_hook=hook))
        assert max(drawn) > 0


def test_hal_rewards_config_builds_generators(monkeypatch, stoch_factored, stoch_prior):
    """At eps_pun 3/4 the hallucinated atom's laws are Bernoulli, so the
    general draw reads ("hal-rewards", ell) through ``rng.generator``."""
    from ielab import rng

    built = []
    inner = rng.generator

    def counted(key, index):
        built.append(index)
        return inner(key, index)

    monkeypatch.setattr(rng, "generator", counted)
    base, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                              n_lrn_override=8, total_phases_override=40)
    cfg = MechanismConfig(base.n_phase, 8, Fraction(3, 4), 40, base.rho)
    run_game(cfg, stoch_prior, make_agent("canonical_truster", stoch_prior, cfg), 0,
             episode_log="hallucination")
    assert built


def test_phase_lines_match_json_dumps(monkeypatch, capsys):
    """``PhaseRecord.text()`` is the generic encoder's line of its
    ``to_dict()``: on every phase of every golden run, and on hand-made
    records with None, True and False hh fields, no honest policy, and a
    punish_prob of 0.0, 1.0 or the smallest subnormal."""
    from test_golden import RUNS

    phases = []

    def collect(out_dir, seed, manifest, log):
        phases.extend(log.phases)
        return log.write()

    monkeypatch.setattr(harness, "_write_artifact", collect)
    for argv in RUNS.values():
        assert main(argv) == 0
    capsys.readouterr()
    assert len(phases) == 1404  # every phase of every run in RUNS
    base = PhaseRecord(ell=9, first_episode=10, last_episode=12, k_star=11,
                       U=[(1, 1, 2), (2, 1, 1)], punish_prob=0.5, punish_size=3, hal_atom=0,
                       hal_policy=7, honest_policy=2, new_triples=[(2, 1, 1)],
                       hh_condition=None, hh_slack=None)
    for hh_condition, hh_slack in ((None, None), (True, 0.0), (False, -1.25e-17), (True, 3.5)):
        for punish_prob in (0.0, 1.0, 5e-324, 0.1 + 0.2):
            for honest_policy, U in ((None, []), (2**70, [(10, 1, 3)])):
                phases.append(dataclasses.replace(
                    base, hh_condition=hh_condition, hh_slack=hh_slack, punish_prob=punish_prob,
                    honest_policy=honest_policy, U=U, new_triples=U))
    for p in phases:
        assert p.text() == _dumps(p.to_dict()) + "\n"


def test_run_game_hh_condition_and_U_monotone(det_prior, det_config):
    """With the certified schedule the phase-length condition holds at every
    phase with a non-degenerate policy split, and U never grows."""
    for seed in range(10):
        agent = make_agent("fully_rational", det_prior, det_config)
        log = run_game(det_config, det_prior, agent, seed=seed,
                       episode_log="hallucination", track_hh=True)
        prev_U = None
        for p in log.phases:
            U = frozenset(tuple(t) for t in p.U)
            if prev_U is not None:
                assert U <= prev_U
            prev_U = U
            assert p.hh_condition in (None, True)
        assert any(p.hh_condition is True for p in log.phases)


def test_hh_exploring_policies_equal_positive_visit_probability(det_prior, det_config,
                                                                 stoch_prior):
    """The exploring-policy set read from reachable triples equals the set
    of policies whose exact probability of visiting U is positive, for
    every U the runs pass through: det seeds 0..9 and a stoch run, both
    with track_hh."""
    def check(cfg, prior, seeds):
        tables = shared_tables(prior)
        seen = set()

        def hook(ctx, log):
            true_model = prior.atoms[log.true_atom]
            if (log.true_atom, ctx.U) in seen:
                return
            seen.add((log.true_atom, ctx.U))
            reachable = [reachable_triples(true_model, pol) for pol in tables.policies]
            want = frozenset(pol.encoding for pol in tables.policies
                             if event_visit_probability(true_model, pol, ctx.U) > 0)
            want = want if 0 < len(want) < len(tables.policies) else None
            inside = _hh_exploring_policies(reachable, ctx.U)
            assert want == (None if inside is None else frozenset(np.flatnonzero(inside)))

        for seed in seeds:
            agent = make_agent("fully_rational", prior, cfg)
            run_game(cfg, prior, agent, seed, episode_log="hallucination", track_hh=True,
                     phase_hook=hook)
        return seen

    det_seen = check(det_config, det_prior, range(10))
    stoch_seen = check(MechanismConfig(8, 2, Fraction(7, 2880), 24, rho=Fraction(1, 4)),
                       stoch_prior, range(2))
    # U shrinks within the runs, so each run checks more than one set
    assert len(det_seen) > 10 and len(stoch_seen) > 2


def test_draw_hallucinated_never_returns_zero_mass(top_draw_rng):
    """A reward law of ten 1/10 masses plus a zero-mass support value: the
    top uniform draw lies past the float cumulative sum and must fall back
    to the last value with positive mass."""
    import numpy as np

    from ielab import DiscretePrior, DiscreteDist, Step, Trajectory, build_model
    from ielab.mechanism import _draw_hallucinated
    from ielab.priors import LedgerState, PriorTables

    support = [Fraction(v, 10) for v in range(11)]
    law = DiscreteDist(tuple(support[:10]), (Fraction(1, 10),) * 10)
    model = build_model(1, 1, 1, [1], {}, {(1, 1, 1): law}, reward_support=support)
    tables = PriorTables(DiscretePrior((model,), (Fraction(1),)))
    fast = LedgerState(tables)
    fast.push_entry(Trajectory((Step(1, 1, 1, Fraction(0)),)))
    counts = _draw_hallucinated(fast, 0, np.ones((1, 1, 1), dtype=bool), lambda: top_draw_rng)
    assert counts[0, 0, 0, 9] == 1 and counts.sum() == 1


def test_draw_hallucinated_top_draw_on_every_occurrence(top_draw_rng):
    """The top uniform on each of several occurrences, drawn from a second
    atom whose law lists its trailing zero-mass support value itself (ten
    1/10 masses, whose float sum ends below 1): every draw is that law's
    last positive-mass value, never the zero-mass one, and never a value of
    the other atom's law."""
    import numpy as np

    from ielab import DiscretePrior, DiscreteDist, Step, Trajectory, build_model
    from ielab.mechanism import _draw_hallucinated
    from ielab.priors import LedgerState, PriorTables

    support = [Fraction(v, 10) for v in range(11)]
    tenths = DiscreteDist(tuple(support), (Fraction(1, 10),) * 10 + (Fraction(0),))
    atoms = tuple(build_model(1, 1, 2, [1], {(1, 1, 1): [1]},
                              {(1, 1, 1): law, (1, 1, 2): law}, reward_support=support)
                  for law in (DiscreteDist.point(1), tenths))
    fast = LedgerState(PriorTables(DiscretePrior(atoms, (Fraction(1, 2),) * 2)))
    for _ in range(2):
        fast.push_entry(Trajectory((Step(1, 1, 1, Fraction(1)), Step(1, 1, 2, Fraction(1)))))
    counts = _draw_hallucinated(fast, 1, np.ones((1, 1, 2), dtype=bool), lambda: top_draw_rng)
    assert counts[0, 0, 0, 9] == counts[0, 0, 1, 9] == 2 and counts.sum() == 4


def test_draw_hallucinated_matches_per_occurrence_draws(stoch_prior, stoch_tables):
    """One uniform per explored occurrence, in entry order, picks a value of
    the hallucinated atom's reward law at that triple, and the counts tally
    the drawn values per triple. With no explored occurrence no generator
    is built."""
    import numpy as np

    from ielab import sample_trajectory
    from ielab.mechanism import _draw_hallucinated
    from ielab.priors import LedgerState

    fast = LedgerState(stoch_tables)
    steps = []
    for k in range(12):
        traj = sample_trajectory(stoch_prior.atoms[37 * k], stoch_tables.policies[k],
                                 stream(k, "entries"))
        fast.push_entry(traj)
        steps += traj.steps
    explored = np.ones((2, 2, 2), dtype=bool)
    explored[1, 1, 0] = explored[0, 0, 1] = False
    hal = stoch_prior.atoms[511]  # Bernoulli(7/10) rewards on every triple
    counts = _draw_hallucinated(fast, 511, explored, lambda: stream(0, "hal"))

    support = stoch_tables.support
    n_explored = sum(bool(explored[s.x - 1, s.a - 1, s.h - 1]) for s in steps)
    u = iter(stream(0, "hal").random(n_explored))
    expected = np.zeros_like(counts)
    for s in steps:
        if not explored[s.x - 1, s.a - 1, s.h - 1]:
            continue
        law = hal.reward_dist(s.x, s.a, s.h)
        i = index_from_uniform([law.mass(v) for v in support], next(u))
        expected[s.x - 1, s.a - 1, s.h - 1, i] += 1
    assert np.array_equal(counts, expected)
    assert np.count_nonzero(expected.sum(axis=(0, 1, 2))) == 2  # both reward values drawn

    def no_stream():
        raise AssertionError("a generator was built with nothing to draw")

    counts = _draw_hallucinated(fast, 511, np.zeros((2, 2, 2), dtype=bool), no_stream)
    assert not counts.any()


@pytest.mark.parametrize("mode", ["canonical_truster", "fully_rational"])
def test_in_run_hallucinated_ledgers_equal_hallucinate_ledger(mode, stoch_factored,
                                                              stoch_prior):
    """Every phase's in-run hallucinated reward counts, ``ctx.hal_counts``,
    are the reward counts of the ledger-level ``hallucinate_ledger`` of its
    censored ledger, fed the phase's address ("hal-rewards", ell), as
    ``replay_signals`` rebuilds it: the vectorized draw indexes the global
    reward support while ``DiscreteDist.sample`` indexes each law's own
    values, and the two agree because every law stores its values in
    increasing order, also when micro_stoch_1's Bernoulli laws are listed
    as (1, m), (0, 1 - m). The config is the hal-rewards goldens' (eps_pun
    3/4), so the ledgers carry nonzero rewards."""
    decreasing = dataclasses.replace(
        stoch_factored, dist_of_mean=lambda m: DiscreteDist.of([(1, m), (0, 1 - m)])).expand()
    assert decreasing.atoms[511].reward_dist(1, 1, 1).support == (0, 1)
    base, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                              n_lrn_override=8, total_phases_override=40)
    cfg = MechanismConfig(base.n_phase, 8, Fraction(3, 4), 40, base.rho)
    for prior in (stoch_prior, decreasing):
        support = shared_tables(prior).support
        nonzero = 0
        for seed in range(3):
            in_run = {}

            def hook(ctx, log):
                in_run[ctx.ell] = ctx.hal_counts

            log = run_game(cfg, prior, make_agent(mode, prior, cfg), seed,
                           episode_log="hallucination", phase_hook=hook)
            for ell, signals in replay_signals(log, prior):
                want = np.zeros_like(in_run[ell])
                for _, steps in signals["hallucinated"].entries:
                    for s in steps:
                        if s.r is not None:
                            want[s.x - 1, s.a - 1, s.h - 1, support.index(s.r)] += 1
                        nonzero += bool(s.r)
                assert np.array_equal(in_run[ell], want)
        assert nonzero > 0


_U = 2.0 ** -53


def _gamma(k: int) -> float:
    return k * _U / (1 - k * _U)


def float_posterior_error_bound(prior, ledger) -> float:
    """A bound rho on |w_hat_i / w_i - 1| over the atoms of positive exact
    weight w_i, for the run loop's float canonical posterior w_hat of
    ``ledger`` (its ``PriorTables.posterior_from_loglik``).

    The float route takes per atom l_i = log w0_i + sum_f c_f log p_if
    over the ledger's count signature (c_f > 0, p_if the atom's mass of
    feature f), then w_i = exp(l_i - t) / sum_j exp(l_j - t), t = max_j
    l_j. Let u = 2**-53, gamma(k) = k u / (1 - k u), M = the largest
    |log w0_i| + sum_f c_f |log p_if| over the positive atoms, C = 1 +
    sum_f c_f, and K = C + F + 2 (F the lattice's feature count), at
    least the number of terms in l_i however the route groups them: one
    per counted feature, one per step accumulated entry by entry. numpy's
    float64 log and exp are taken as accurate within 4 ulp, and ulp(y) <=
    2u |y|.

    - A stored log of a correctly rounded mass fl(p) = p (1 + d), |d| <= u,
      is log p + a with |a| <= 8u |log p| + 2u.
    - The inner product of the counts with the stored logs carries at
      most gamma(K) times the sum of the terms' magnitudes, in any
      summation order, fused multiply-adds included (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., eq. (3.5) and Lemma
      3.3). With the logs' own errors, |l_hat_i - l_i| <= gamma(K + 11)
      (M + C).
    - l_hat_i - t_hat rounds by at most u |l_hat_i - t_hat| <= 2.01 u M;
      exp adds a relative 8u; the sum of n positive terms gamma(n - 1)
      (Higham, section 4.2), and the quotient u.

    So each unnormalized weight is off by a factor within exp(+-eta),
    eta = gamma(K + 14) (M + C) + 8.01 u, the shared sum by the same factor
    times 1 +- gamma(n - 1), and rho = expm1(2 gamma(K + 14) (M + C) +
    gamma(n + 17)). An exp that underflows breaks the relative bound but
    leaves an absolute error below 2**-1021 after a normalization by a
    sum >= 1 (the top term is exp(0) = 1), which the check allows.
    """
    lattice = exact_lattice(prior)
    sig = lattice.count_signature(ledger)
    weights = np.array(lattice.weights, dtype=float)
    with np.errstate(divide="ignore"):
        logs = [np.log(np.array(lattice.columns[f], dtype=float) / lattice.den) for f, _ in sig]
        mag = np.abs(np.log(weights / weights.sum()))
        for (_, c), log_p in zip(sig, logs):
            mag = mag + c * np.abs(log_p)
    M = float(mag[np.isfinite(mag)].max())
    C = 1 + sum(c for _, c in sig)
    K = C + len(lattice.columns) + 2
    return math.expm1(2 * _gamma(K + 14) * (M + C) + _gamma(prior.n + 17))


def assert_within_bound(got, exact, rho: float, tiny: float = 2.0 ** -1021) -> None:
    """Float weights against an exact posterior's: exactly 0 where the
    exact weight is 0, else within rho relative plus ``tiny`` absolute.
    Converting the exact weight, one correctly rounded int division,
    adds u, so the relative allowance is rho + 2u."""
    nums, den = exact.masses
    want = np.array([v / den for v in nums])
    zero = np.array([v == 0 for v in nums])
    assert np.array_equal(got[zero], want[zero])
    assert (np.abs(got - want) <= (rho + 2 * _U) * want + tiny).all()


@pytest.mark.parametrize("instance", ["det", "stoch"])
def test_in_run_float_posteriors_equal_exact_posteriors(instance, det_prior, det_config,
                                                        stoch_factored, stoch_prior):
    """Every phase's float posteriors equal the exact posteriors of the
    signal ledgers ``replay_signals`` rebuilds, within the forward-error
    bound of ``float_posterior_error_bound``: det seeds 0..9 on the
    certified schedule and micro_stoch_1 seeds 0..4 at n_lrn 8 over 40
    phases, in both agent modes.

    Read through ``phase_hook``: the censored weights ``ctx.cens_weights``
    against ``canonical_posterior`` of the censored ledger; the
    punish-conditioned weights, those renormalized on ``ctx.punish_mask``,
    against ``hallucination_posterior`` of the same ledger and the punish
    event of the phase's U (the renormalization adds a factor (1 + rho) /
    (1 - rho) (1 + gamma(n)) to the relative bound, and divides the
    absolute one by the float punish mass); and the revealed posteriors of
    ``ctx.hal_counts`` and ``ctx.hon_counts`` on ``ctx.fast``, as the hook
    reads them, against ``canonical_posterior`` of the hallucinated and
    honest ledgers."""
    if instance == "det":
        prior, cfg, seeds = det_prior, det_config, range(10)
    else:
        cfg, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                                 n_lrn_override=8, total_phases_override=40)
        prior, seeds = stoch_prior, range(5)
    S, A, H = prior.shape
    tables = shared_tables(prior)
    for mode in ("canonical_truster", "fully_rational"):
        for seed in seeds:
            seen = {}

            def hook(ctx, log):
                revealed = {kind: ctx.fast.revealed_weights(ctx.counts_of(kind))
                            for kind in ("hallucinated", "honest")}
                seen[ctx.ell] = (ctx.cens_weights.copy(), ctx.punish_mask.copy(), revealed, ctx.U)

            log = run_game(cfg, prior, make_agent(mode, prior, cfg), seed,
                           episode_log="hallucination", phase_hook=hook)
            for ell, signals in replay_signals(log, prior):
                cens, mask, revealed, U = seen[ell]
                censored = signals["censored"]
                rho = float_posterior_error_bound(prior, censored)
                assert_within_bound(cens, canonical_posterior(prior, censored), rho)

                punish = punish_event(prior, complement_triples(U, S, A, H), cfg.eps_pun)
                assert np.array_equal(mask, tables.event_mask(punish))
                punish_mass = (cens * mask).sum()
                assert punish_mass >= 2.0 ** -21
                rho_hal = (1 + rho) / (1 - rho) * (1 + _gamma(prior.n)) - 1
                assert_within_bound(cens * mask / punish_mass,
                                    hallucination_posterior(prior, censored, punish), rho_hal,
                                    2.0 ** -1021 / punish_mass)

                for kind, weights in revealed.items():
                    rho = float_posterior_error_bound(prior, signals[kind])
                    assert_within_bound(weights, canonical_posterior(prior, signals[kind]), rho)


def test_run_bookkeeping_follows_the_raw_ledger(det_prior, det_config, stoch_factored,
                                               stoch_prior):
    """The run's U, new triples, visit counts, new-triple flags and phase of
    coverage are the ledger-level rules the oracle uses, applied to the
    run's own raw ledger: in every phase U is ``underexplored_set`` of the
    raw ledger before it, and the new triples are the hallucination
    trajectory's triples with no visit in ``visit_counts`` of that ledger.
    Det seeds 0..9 (the run-det config) and micro_stoch_1 at n_lrn 8,
    40 phases, seeds 0..2."""
    base, _ = prob_parameters(stoch_factored, Fraction(1, 4), 0.1,
                              n_lrn_override=8, total_phases_override=40)
    runs = [(det_prior, det_config, "fully_rational", range(10)),
            (stoch_prior, base, "canonical_truster", range(3))]
    covered_runs = 0
    for prior, cfg, mode, seeds in runs:
        for seed in seeds:
            log = run_game(cfg, prior, make_agent(mode, prior, cfg), seed,
                           episode_log="hallucination")
            hal_steps = {ell: steps for ell, _, steps in log.hallucination_history()}
            raw = {ell: signals["raw"] for ell, signals in replay_signals(log, prior)}
            target = reach_set(prior.atoms[log.true_atom], cfg.rho or 1)
            covered_at = None
            for p in log.phases:
                counts = visit_counts(raw[p.ell])
                assert set(p.U) == underexplored_set(raw[p.ell], cfg.n_lrn)
                triples = [(x, a, h) for x, a, h, _ in hal_steps[p.ell]]
                assert p.new_triples == sorted(t for t in triples if t not in counts)
                for t in triples:
                    counts[t] = counts.get(t, 0) + 1
                if covered_at is None and all(counts.get(t, 0) >= cfg.n_lrn
                                              for t in target):
                    covered_at = p.ell
            assert log.summary["visit_counts"] == {f"{x},{a},{h}": c
                                                   for (x, a, h), c in counts.items()}
            assert log.summary["new_triple_flags"] == [bool(p.new_triples)
                                                       for p in log.phases]
            assert log.summary["phases_to_coverage"] == covered_at
            covered_runs += covered_at is not None
    assert covered_runs > 0


def test_punish_mask_compares_mean_rewards_exactly():
    """An atom whose mean reward exceeds eps_pun by 1e-13 is not punished:
    the logged punish size agrees with punish_event."""
    from ielab import DiscretePrior, build_model

    eps = Fraction(1, 10)
    means = (Fraction(0), eps + Fraction(1, 10**13))
    atoms = tuple(build_model(1, 1, 1, [1], {}, {(1, 1, 1): v}, reward_support=means)
                  for v in means)
    prior = DiscretePrior(atoms, (Fraction(1, 2), Fraction(1, 2)))
    cfg = MechanismConfig(2, 1, eps, 2)
    # seed 1's truth uniform, 0.382, draws atom 0
    log = run_game(cfg, prior, make_agent("canonical_truster", prior, cfg), seed=1)
    assert log.true_atom == 0
    assert len(punish_event(prior, all_triples(1, 1, 1), eps)) == 1
    assert [p.punish_size for p in log.phases] == [2, 1]


_steps = st.lists(
    st.builds(Step, st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.fractions()),
    max_size=4,
).map(tuple)


@st.composite
def _episode_blocks(draw):
    """An EpisodeBlock as run_game builds one: a full-log phase of n
    episodes with the hallucination row somewhere inside, or one simulated
    episode (a one-episode phase, or the hallucination log's (k_star,)).
    Some blocks start just below a power of ten, so that their k cross it."""
    ell = draw(st.integers(0, 2**20))
    start = draw(st.integers(1, 2**40) | st.integers(1, 13).flatmap(
        lambda e: st.integers(max(1, 10**e - 40), 10**e - 1)))
    n = draw(st.integers(1, 40))
    k_star = start + draw(st.integers(0, n - 1))
    hal_policy, hal_steps = draw(st.integers(0, 2**64)), draw(_steps)
    honest_policy = None if n == 1 else draw(st.integers(0, 2**64))
    if draw(st.booleans()):  # the hallucination log
        return EpisodeBlock(ell, (k_star,), k_star, hal_policy, honest_policy, hal_steps, (), ())
    if n == 1:
        return EpisodeBlock(ell, range(start, start + 1), k_star, hal_policy, None, hal_steps,
                            (), ())
    trajs = draw(st.lists(_steps, min_size=1, max_size=3))
    traj_of_row = draw(st.lists(st.integers(0, len(trajs) - 1), min_size=n, max_size=n))
    return EpisodeBlock(ell, range(start, start + n), k_star, hal_policy, honest_policy,
                        hal_steps, trajs, traj_of_row)


def _digit_boundary_examples(test):
    """Explicit one-trajectory blocks of 40 rows whose k cross 9 -> 10,
    999 -> 1000, 9,999 -> 10,000 and 10**12 - 1 -> 10**12, with k* at the
    first row, on either side of the crossing and at the last row."""
    hal_steps = (Step(1, 2, 1, Fraction(7, 10)), Step(2, 1, 2, Fraction(0)))
    traj = (Step(1, 1, 1, Fraction(1, 3)), Step(2, 2, 2, Fraction(1)))
    for power in (10, 1000, 10**4, 10**12):
        start = max(1, power - 20)
        for k_star in (start, power - 1, power, start + 39):
            test = example(block=EpisodeBlock(3, range(start, start + 40), k_star, 5, 2**64,
                                              hal_steps, [traj], [0] * 40))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(block=_episode_blocks())
@example(block=EpisodeBlock(2, range(5, 9), 7, 5, 3,
                            (Step(1, 2, 1, Fraction(7, 10)), Step(2, 1, 2, Fraction(0))),
                            [(Step(1, 1, 1, Fraction(1, 3)),), ()], [1, 0, 0, 1]))
@_digit_boundary_examples
def test_episode_line_matches_json_dumps(block):
    """The bytes a block renders are the generic encoder's lines, encoded,
    for the records it stands for, and the records are the block's rows:
    the k_star row is the hallucination episode, every other row its
    honest trajectory."""
    records = list(block.records())
    expected = "".join(json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
                       for r in records).encode()
    assert b"".join(block.chunks()) == expected
    assert [r.k for r in records] == list(block.ks)
    for row, r in enumerate(records):
        assert r.ell == block.ell
        assert r.is_hallucination == (r.k == block.k_star)
        if r.is_hallucination:
            assert (r.policy, r.trajectory) == (block.hal_policy, block.hal_steps)
        else:
            assert r.policy == block.honest_policy
            assert r.trajectory is block.trajs[block.traj_of_row[row]]
