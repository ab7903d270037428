"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the full report.
Tolerances are fixed here, not calibrated elsewhere.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ielab import (
    MechanismConfig,
    all_triples,
    canonical_posterior,
    det_parameters,
    det_phase_length,
    enumerate_game,
    enumerate_policies,
    enumerate_trajectories,
    event_visit_probability,
    fabricated_rewards_case,
    hallucination_distribution_check,
    hygiene_tv,
    hygiene_tv_pairs,
    ledger_probability,
    make_agent,
    occupancy_omega,
    one_step_audit,
    p_hal_audit,
    performance_difference,
    policy_selection_case,
    policy_value,
    prob_parameters,
    raw_ledger,
    run_game,
    run_games,
    simulation_gap,
)
from ielab.analysis import (
    empirical_estimators,
    eps_p_bound,
    eps_r_bound,
    good_model_predicate,
)
from ielab.harness import _det_target_provider, sample_similar_pair
from ielab.instances import random_model


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_deterministic_exploration(det_factored, det_prior):
    """100/100 seeded runs cover the reachable set within |Reach| phases,
    visiting a new triple in every phase until coverage."""
    t0 = time.time()
    cfg, info = det_parameters(det_factored)
    assert cfg.eps_pun == Fraction(1, 10) and cfg.n_phase == 7680
    failures = []
    for seed in range(100):
        agent = make_agent("fully_rational", det_prior, cfg)
        log = run_game(cfg, det_prior, agent, seed=seed,
                       episode_log="hallucination")
        covered = log.summary["phases_to_coverage"]
        reach = log.summary["reach_size"]
        flags = log.summary["new_triple_flags"]
        if covered is None or covered > reach or not all(flags[:covered]):
            failures.append((seed, covered, reach, flags))
    dt = time.time() - t0
    _report(1, not failures and dt < 60,
            f"100/100 runs covered within |Reach|=6 phases, new triple each "
            f"phase until coverage, {dt:.1f}s (< 60s); failures={failures[:3]}")


@pytest.fixture(scope="module")
def det_table3(det_prior, det_config):
    return enumerate_game(det_config, det_prior, 3)


def test_criterion_2_hygiene(det_prior, det_config):
    t0 = time.time()
    table = enumerate_game(det_config, det_prior, 2)
    tvs = {
        (kind, ell): hygiene_tv(table, kind, ell)
        for kind in ("censored", "honest") for ell in (1, 2)
    }
    prior_a, pairs_a = fabricated_rewards_case()
    prior_b, pairs_b = policy_selection_case()
    tv_a = hygiene_tv_pairs(prior_a, pairs_a)
    tv_b = hygiene_tv_pairs(prior_b, pairs_b)
    dt = time.time() - t0
    ok = (all(v == 0 for v in tvs.values())
          and tv_a >= Fraction(1, 2) and tv_b >= Fraction(1, 2) and dt < 30)
    _report(2, ok,
            f"mechanism TV exactly 0 on {sorted(tvs)} ; counterexamples "
            f"fabricated={tv_a}, policy-selection={tv_b} (both >= 1/2); {dt:.1f}s (< 30s)")


def test_criterion_3_one_step_guarantee(det_table3, det_prior):
    provider = _det_target_provider(det_prior)
    violations = []
    condition_failures = []
    audited = 0
    for ell in (1, 2, 3):
        rep = one_step_audit(det_table3, ell, provider)
        for e in rep.entries:
            if e.vacuous:
                continue
            audited += 1
            if not e.condition_holds:
                condition_failures.append((ell, e.lam_hal_key))
            elif e.in_target is False:
                violations.append((ell, e.lam_hal_key))
    ok = not violations and not condition_failures and audited > 0
    _report(3, ok,
            f"{audited} strict hallucinated-ledger realizations over 3 phases; "
            f"condition held in all; argmax always inside the target set "
            f"(violations={len(violations)})")


def test_criterion_4_p_hal_bound(det_table3):
    worst_slack = None
    count = 0
    exact_ok = True
    for ell in (1, 2, 3):
        for audit in p_hal_audit(det_table3, ell):
            count += 1
            slack = audit["slack"]
            worst_slack = slack if worst_slack is None or slack < worst_slack else worst_slack
            if audit["bound"] < audit["p_hal"]:
                exact_ok = False
            if audit["p_hal_agent"] != audit["p_hal"]:
                exact_ok = False
    ok = worst_slack is not None and worst_slack >= 0 and exact_ok
    _report(4, ok,
            f"{count} realizable hallucinated ledgers; exact slack >= 0 "
            f"(min slack {worst_slack}); p_hal <= bound exactly; agent formula exact-equal")


def test_criterion_5_distribution_equality(det_table3):
    tvs = [hallucination_distribution_check(det_table3, ell) for ell in (1, 2, 3)]
    ok = all(tv == 0 for tv in tvs)
    _report(5, ok, f"TV(law(honest | censored, punish), law(hallucinated | censored)) "
                   f"= {tvs} (exactly zero at every phase)")


def test_criterion_6_simulation_and_performance_difference():
    rng = np.random.default_rng(2024)
    sim_violations = 0
    tested = 0
    while tested < 200:
        base, other, U, rt, pol, eps = sample_similar_pair(rng)
        if eps == 0:
            continue
        tested += 1
        lhs, bound = simulation_gap(base, other, U, lambda t: rt[t], pol, eps)
        if lhs > bound:
            sim_violations += 1
    worst = Fraction(0)
    for _ in range(100):
        S = int(rng.integers(2, 4))
        H = int(rng.integers(2, 4))
        m1 = random_model(rng, S, 1, H)
        m2 = random_model(rng, S, 1, H)
        pol = enumerate_policies(S, 1, H)[0]
        lhs, rhs, _ = performance_difference(m1, m2, pol)
        worst = max(worst, abs(lhs - rhs))
    ok = sim_violations == 0 and worst == 0
    _report(6, ok,
            f"exact simulation bound held in 200/200 randomized eps-similar pairs "
            f"({sim_violations} violations); performance-difference identity "
            f"max |lhs-rhs| = {worst} (exactly 0) on 100 pairs")


def test_criterion_7_occupancy_identity(det_prior, stoch_prior):
    U_family = [
        frozenset(),
        frozenset({(1, 1, 1)}),
        frozenset({(2, 1, 2), (1, 2, 1)}),
        frozenset({(1, 1, 2), (2, 2, 2), (2, 1, 1)}),
        all_triples(2, 2, 2),
    ]
    pols = enumerate_policies(2, 2, 2)
    worst = Fraction(0)
    checked = 0
    for prior in (det_prior, stoch_prior):
        for atom in prior.atoms:
            for pol in pols:
                for U in U_family:
                    omega = occupancy_omega(atom, pol, U)
                    gap = abs(sum(omega.values()) - event_visit_probability(atom, pol, U))
                    worst = max(worst, gap)
                    checked += 1
    ok = worst == 0
    _report(7, ok, f"sum of occupancy weights equals the U-visit probability "
                   f"in all {checked} (model, policy, U) combinations "
                   f"(max gap {worst}, exactly 0)")


def test_criterion_8_oracle_equivalence(stoch_prior):
    pols = enumerate_policies(2, 2, 2)
    worst = Fraction(0)
    for atom in stoch_prior.atoms:
        for pol in pols[::2]:
            brute = sum(p * t.reward_sum() for t, p in enumerate_trajectories(atom, pol))
            worst = max(worst, abs(policy_value(atom, pol) - brute))
    bayes_exact = True
    for seed, pol_idx, traj_idx in ((0, 3, 0), (1, 9, 2), (2, 14, 3)):
        m = stoch_prior.atoms[(seed * 131 + 17) % stoch_prior.n]
        pol = pols[pol_idx]
        traj = list(enumerate_trajectories(m, pol))[traj_idx][0]
        lam = raw_ledger(2, 2, 2, [(pol, traj)])
        post = canonical_posterior(stoch_prior, lam)
        raw = [w * ledger_probability(a, lam)
               for a, w in zip(stoch_prior.atoms, stoch_prior.weights)]
        total = sum(raw)
        if post.weights != tuple(v / total for v in raw):
            bayes_exact = False
    ok = worst == 0 and bayes_exact
    _report(8, ok, f"policy_value vs trajectory enumeration max gap {worst} "
                   f"(exactly 0); canonical posterior equals brute-force Bayes exactly")


def test_criterion_9_probabilistic_properties(stoch_factored, stoch_prior):
    """The theory-scale constants are not desk-reproducible (reported below);
    substitute property checks (a), (b), (c)."""
    eps_pun = Fraction(7, 2880)
    _, theory = prob_parameters(stoch_factored, Fraction(1, 4), 0.1)

    # (a) estimator concentration at delta = 0.1, n_lrn = 64, 500 seeds
    n_lrn, delta = 64, 0.1
    er = eps_r_bound(delta, n_lrn)
    ep = eps_p_bound(delta, n_lrn, 2)
    cfg = MechanismConfig(theory["n_phase_theory"], n_lrn, eps_pun, 320,
                          rho=Fraction(1, 4))
    good = 0
    for log in run_games(cfg, stoch_prior, lambda: make_agent("canonical_truster", stoch_prior, cfg),
                         range(500), episode_log="hallucination"):
        est = empirical_estimators(log, n_lrn, stoch_prior.shape[0])
        m = stoch_prior.atoms[log.true_atom]
        ok = all(
            abs(val - float(m.mean_reward(*t))) <= er for t, val in est.theta_r.items()
        ) and all(
            sum(abs(f - float(p)) for f, p in zip(freq, m.transition(*t))) <= ep
            for t, freq in est.theta_p.items()
        )
        if ok and est.theta_p0 is not None:
            ok = sum(abs(f - float(p)) for f, p in zip(est.theta_p0, m.init)) <= ep
        good += ok
    part_a = good >= 450

    # (b) posterior good-model mass, fixed tolerances, trend over n_lrn
    def good_mass(n, seeds, er_fix=0.25, ep_fix=0.2):
        """Each seed's good-model mass, keyed by seed."""
        cfg_n = MechanismConfig(theory["n_phase_theory"], n, eps_pun,
                                6 * n + 40, rho=Fraction(1, 4))
        out = {}

        def hook(ctx, log):
            if (8 - len(ctx.U)) >= 4 or ctx.ell == cfg_n.total_phases:
                weights = ctx.fast.revealed_weights(ctx.hal_counts)
                m_star = stoch_prior.atoms[log.true_atom]
                out[log.seed] = sum(
                    w for i, w in enumerate(weights)
                    if w > 1e-15 and good_model_predicate(
                        stoch_prior.atoms[i], m_star, ctx.U, cfg_n.eps_pun, er_fix, ep_fix)
                )
                return True
            return False

        for _ in run_games(cfg_n, stoch_prior,
                           lambda: make_agent("canonical_truster", stoch_prior, cfg_n), seeds,
                           episode_log="hallucination", phase_hook=hook):
            pass
        return out

    grid = (1, 4, 16, 64)
    masses = [good_mass(n, range(200)) for n in grid]
    means = [sum(m.get(s, 0.0) for s in range(200)) / 200 for m in masses]
    part_b = all(means[i] <= means[i + 1] for i in range(len(grid) - 1))

    # (c) exploration with overridden small parameters within 3 L_0 phases
    _, rep4 = prob_parameters(stoch_factored, Fraction(1, 4), 0.1, n_lrn_override=4)
    cap = min(400, 3 * rep4["L_0"])
    cfg4 = MechanismConfig(rep4["n_phase_theory"], 4, eps_pun, cap, rho=Fraction(1, 4))
    explored = [log.summary["phases_to_coverage"] for log in run_games(
        cfg4, stoch_prior, lambda: make_agent("canonical_truster", stoch_prior, cfg4), range(100),
        episode_log="hallucination", phase_hook=lambda ctx, log: ctx.covered_at is not None)]
    frac = sum(1 for e in explored if e is not None and e <= 3 * rep4["L_0"]) / len(explored)
    part_c = frac >= 0.95

    ok = part_a and part_b and part_c
    _report(9, ok,
            f"(a) estimators within (eps_r={er:.3f}, eps_p={ep:.3f}) on {good}/500 "
            f"runs (>= 450); (b) good-model mass over n_lrn {grid}: "
            f"{[round(v, 3) for v in means]} non-decreasing; (c) {frac*100:.0f}% of "
            f"runs ({sum(1 for e in explored if e is not None)}/100) "
            f"(rho=1/4, n_lrn=4)-explored within {max(e for e in explored if e)} "
            f"phases << 3*L_0 = {3 * rep4['L_0']}; theory-scale run infeasible: "
            f"it needs n_lrn >= {theory['n_lrn_theory']} and K = {theory['K']} episodes")


def test_criterion_10_parameter_calculators(det_factored, stoch_factored):
    cfg, info = det_parameters(det_factored)
    a = (cfg.eps_pun == Fraction(1, 10) and cfg.n_phase == 7680
         and cfg.n_lrn == 1 and cfg.total_phases == 8)
    b = det_phase_length(1, Fraction(2, 5), 1, 1) == 15  # ceil(6 / r_min) at C = 1
    c = (eps_r_bound(math.exp(-2), 4) == pytest.approx(1.0, abs=1e-12))
    _, rep = prob_parameters(stoch_factored, 1, 0.1, r_alt=Fraction(2, 5))
    d = rep["Delta_0"] == Fraction(1, 5) and rep["rho_prog"] == Fraction(1, 600)
    ok = a and b and c and d
    _report(10, ok,
            "det schedule (eps_pun=1/10, n_phase=7680); horizon-1 formula "
            "ceil(6/r_min)=15 at C=1; eps_r(e^-2, 4)=1; Delta_0=1/5 and "
            "rho_prog=1/600 at rho=1, r_alt=2/5")
