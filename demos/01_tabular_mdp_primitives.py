"""Tabular MDP primitives: values, trajectory laws, reachability, occupancy.

Walks through the exact dynamic-programming core on the two bundled
micro instances. Everything here is small enough to cross-check by
exhaustive enumeration, which is exactly what the test suite does.
"""

from fractions import Fraction

from ielab import (
    all_triples,
    enumerate_policies,
    enumerate_trajectories,
    event_visit_probability,
    micro_det_1,
    micro_stoch_1,
    occupancy_omega,
    policy_value,
    reach_probability,
    reach_set,
    sample_trajectory,
)
from ielab.rng import stream

det = micro_det_1().expand()
stoch = micro_stoch_1().expand()
print(f"deterministic class: {det.n} atoms; stochastic class: {stoch.n} atoms")

pols = enumerate_policies(2, 2, 2)
print(f"policy space: {len(pols)} deterministic Markov policies "
      f"(canonical encodings 0..{len(pols) - 1})")

# --- values, exactly and by brute force ------------------------------------
m = stoch.atoms[123]
pol = pols[10]
v_dp = policy_value(m, pol)
v_brute = sum(p * t.reward_sum() for t, p in enumerate_trajectories(m, pol))
print(f"\npolicy {pol.encoding}: DP value = {v_dp} = enumeration value = {v_brute}")

# --- trajectory distribution ------------------------------------------------
total = sum(p for _, p in enumerate_trajectories(m, pol))
print(f"trajectory masses sum to {total} (law of total probability)")
tau = sample_trajectory(m, pol, stream(7, "demo"))
print(f"one sampled trajectory: {[(s.x, s.a, str(s.r), s.h) for s in tau.steps]}")

# --- reachability -----------------------------------------------------------
m_det = det.atoms[0]
print(f"\nreachable triples of the deterministic instance (rho = 1):")
print(f"  {sorted(reach_set(m_det, 1))}")
print(f"state 2 at stage 1 is unreachable: "
      f"max visit probability = {reach_probability(m_det, 2, 1)}")
print(f"under the stochastic instance, every (x,h) is 1/4-reachable: "
      f"{reach_set(m, Fraction(1, 4)) == all_triples(2, 2, 2)}")

# --- occupancy decomposition -------------------------------------------------
U = frozenset({(1, 2, 1), (2, 1, 2)})
omega = occupancy_omega(m, pol, U)
print(f"\noccupancy weights on U = {sorted(U)}:")
for t, w in sorted(omega.items()):
    print(f"  omega{t} = {w}")
print(f"their sum equals the U-visit probability: "
      f"{sum(omega.values())} = {event_visit_probability(m, pol, U)}")
