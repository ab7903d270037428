"""A full deterministic-class run of the hidden-hallucination principal.

The principal proceeds in phases; in each one a single hidden episode
sees fabricated ("hallucinated") rewards drawn from the punish-event
posterior, which makes already-explored triples look worthless and
pushes even fully rational Bayesian agents toward unexplored ones. With
the certified schedule the run visits a new reachable triple every phase
until everything reachable is covered.
"""

from ielab import det_parameters, make_agent, micro_det_1, run_game

factored = micro_det_1()
prior = factored.expand()
config, info = det_parameters(factored)
print("certified schedule:")
print(f"  r_min = {info['r_min']}, eps_pun = {info['eps_pun']}, "
      f"f_min = {info['f_min']}")
print(f"  phase length n_phase = {info['n_phase']}, n_lrn = 1, "
      f"{config.total_phases} phases, at most {info['episodes_bound']} episodes\n")

agent = make_agent("fully_rational", prior, config)
log = run_game(config, prior, agent, seed=0, episode_log="hallucination")

print(f"true model: atom {log.true_atom}")
print(f"{'phase':>5} {'k*':>7} {'|U|':>4} {'punish prob':>12} {'new triples'}")
for p in log.phases:
    print(f"{p.ell:>5} {p.k_star:>7} {len(p.U):>4} {p.punish_prob:>12.5f} "
          f"{p.new_triples}")

print(f"\nall {log.summary['reach_size']} reachable triples covered by phase "
      f"{log.summary['phases_to_coverage']}")
print(f"new-triple indicator per phase: {log.summary['new_triple_flags']}")

# replay contract: the log is a pure function of (config, prior, seed)
again = run_game(config, prior,
                 make_agent("fully_rational", prior, config),
                 seed=0, episode_log="hallucination")
print(f"replay digest match: {log.digest() == again.digest()}")
