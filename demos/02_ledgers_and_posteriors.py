"""Censoring, ledgers, and exact canonical posteriors.

A ledger is the only signal agents ever see: a censoring set U plus an
ordered list of (policy, U-censored trajectory) entries. The canonical
posterior conditions on the ledger as if its policies and censor set
were fixed in advance — all computation is exact enumeration over the
prior's atoms.
"""

from fractions import Fraction

from ielab import (
    all_triples,
    bayes_greedy,
    canonical_gap,
    canonical_posterior,
    censor_ledger,
    conditional_value,
    enumerate_policies,
    enumerate_trajectories,
    ledger_probability,
    micro_det_1,
    raw_ledger,
    underexplored_set,
    visit_counts,
)
from ielab.serialize import ledger_to_jsonl

prior = micro_det_1().expand()
pols = enumerate_policies(2, 2, 2)

# build a raw single-entry ledger from the true model's trajectory
truth = prior.atoms[172]
pol = pols[0]
tau = next(iter(enumerate_trajectories(truth, pol)))[0]
lam_raw = raw_ledger(2, 2, 2, [(pol, tau)])
print("raw ledger (JSONL):")
print(ledger_to_jsonl(lam_raw))

print(f"visit counts: {visit_counts(lam_raw)}")
U = underexplored_set(lam_raw, n_lrn=1)
print(f"under-explored set with n_lrn = 1 has {len(U)} of 8 triples\n")

lam_hon = censor_ledger(lam_raw, U)
print(f"probability of the honest ledger under the truth: "
      f"{ledger_probability(truth, lam_hon)}")

post = canonical_posterior(prior, lam_hon)
print(f"canonical posterior support: {len(post.support())} of {prior.n} atoms "
      f"(those agreeing with the two revealed rewards)")

greedy = bayes_greedy(post)
print(f"Bayes-greedy policy: encoding {greedy.encoding}, "
      f"posterior value {conditional_value(post, greedy)}")

# canonical gap between "explore" and "stay" policy sets
explorers = {p for p in pols if p.action(1, 1) == 2}  # leave state 1 immediately
gap = canonical_gap(post, explorers)
print(f"canonical gap of the switch-at-start policies: {gap} "
      f"(= {float(gap):.4f}); the complement's gap is {canonical_gap(post, set(pols) - explorers)}")

# censoring coarsens: a totally censored ledger carries no reward evidence
lam_cens = censor_ledger(lam_raw, all_triples(2, 2, 2))
flat = canonical_posterior(prior, lam_cens)
print(f"\ntotally censored ledger: posterior equals the prior "
      f"({flat.weights == prior.weights}; transitions are shared by all atoms)")
