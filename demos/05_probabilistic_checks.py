"""Probabilistic machinery at desk scale.

The full guarantee's constants are astronomically conservative (printed
below), so the checks that matter numerically are property-level: the
simulation lemma on random similar pairs, the performance-difference
identity, estimator concentration, and the good-model posterior trend in
the per-triple sample target n_lrn.
"""

from fractions import Fraction

import numpy as np

from ielab import (
    MechanismConfig,
    enumerate_policies,
    make_agent,
    micro_stoch_1,
    performance_difference,
    prob_parameters,
    run_game,
    simulation_gap,
)
from ielab.analysis import empirical_estimators, eps_p_bound, eps_r_bound
from ielab.harness import sample_similar_pair
from ielab.instances import random_model

factored = micro_stoch_1()
prior = factored.expand()

config, report = prob_parameters(factored, Fraction(1, 4), 0.1, n_lrn_override=4,
                                 total_phases_override=200)
print("general schedule on the stochastic micro instance (rho = 1/4):")
for key in ("eps_pun", "Delta_0", "rho_0", "rho_prog", "q_pun",
            "n_phase_theory", "n_lrn_theory", "L_0", "K"):
    print(f"  {key} = {report[key]}")
print("  -> the theory-scale n_lrn and K are far beyond desk scale;")
print("     runs below override n_lrn downward and keep the exact n_phase.\n")

# --- simulation lemma on random similar pairs -------------------------------
rng = np.random.default_rng(1)
worst_ratio = Fraction(0)
for _ in range(50):
    base, other, U, rt, pol, eps = sample_similar_pair(rng)
    if eps == 0:
        continue
    lhs, bound = simulation_gap(base, other, U, lambda t: rt[t], pol, eps)
    if bound:
        worst_ratio = max(worst_ratio, lhs / bound)
print(f"simulation lemma on 50 random eps-similar pairs: "
      f"worst lhs/bound = {float(worst_ratio):.3f} (<= 1)")

# --- performance-difference identity ----------------------------------------
m1, m2 = random_model(rng, 3, 1, 3), random_model(rng, 3, 1, 3)
pol = enumerate_policies(3, 1, 3)[0]
lhs, rhs, parts = performance_difference(m1, m2, pol)
print(f"performance difference identity: lhs = V1 - V2 = {lhs}, rhs = {rhs}, "
      f"exactly equal: {lhs == rhs}")
print(f"  rhs = init term {parts['init_term']} + reward terms "
      f"{sum(parts['reward_terms'])} + transition terms {sum(parts['transition_terms'])}")

# --- estimator concentration -------------------------------------------------
n_lrn, delta = 64, 0.1
cfg = MechanismConfig(report["n_phase_theory"], n_lrn, config.eps_pun, 320,
                      rho=Fraction(1, 4))
agent = make_agent("canonical_truster", prior, cfg)
log = run_game(cfg, prior, agent, seed=3, episode_log="hallucination")
est = empirical_estimators(log, n_lrn, prior.shape[0])
truth = prior.atoms[log.true_atom]
er, ep = eps_r_bound(delta, n_lrn), eps_p_bound(delta, n_lrn, 2)
print(f"\nestimators after {len(log.phases)} phases (n_lrn = {n_lrn}):")
worst_r = max(abs(v - float(truth.mean_reward(*t))) for t, v in est.theta_r.items())
worst_p = max(
    sum(abs(f - float(q)) for f, q in zip(freq, truth.transition(*t)))
    for t, freq in est.theta_p.items()
)
print(f"  max reward error {worst_r:.3f} vs eps_r({delta}) = {er:.3f}")
print(f"  max transition l1 error {worst_p:.3f} vs eps_p({delta}) = {ep:.3f}")

# --- exploration with the small schedule --------------------------------------
cfg4 = MechanismConfig(report["n_phase_theory"], 4, config.eps_pun, 400,
                       rho=Fraction(1, 4))
phases = []
for seed in range(20):
    a = make_agent("canonical_truster", prior, cfg4)
    out = run_game(cfg4, prior, a, seed=seed, episode_log="hallucination",
                   phase_hook=lambda ctx, log: ctx.covered_at is not None)
    phases.append(out.summary["phases_to_coverage"])
print(f"\n(rho=1/4, n_lrn=4)-exploration over 20 seeds: "
      f"phases needed = {sorted(phases)}")
