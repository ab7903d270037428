"""Numerical verifiers for the analysis-side identities: similarity,
simulation gaps, performance differences, good-model sets, estimators.

The exact ones run on the models' int rows, their stored form:
similarity's l1 distances, the truncated sums and the
performance-difference terms read each model's ``den``, ``init_nums`` and
``trans_nums`` and its ``mdp.int_means``, ints over one denominator per
model, and return Fractions."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionViolated
from .mdp import (
    MarkovPolicy,
    TabularModel,
    TripleSet,
    _stage_values,
    absorbing_steps,
    as_fraction,
    complement_triples,
    enumerate_policies,
    event_visit_probability,
    int_means,
    policy_value,
)


def eps_r_bound(delta: float, n_lrn: int) -> float:
    """Reward concentration radius sqrt(2 log(1/delta) / n_lrn)."""
    return math.sqrt(2.0 * math.log(1.0 / delta) / n_lrn)


def eps_p_bound(delta: float, n_lrn: int, S: int) -> float:
    """l1 transition radius 2 sqrt(2 (S log 5 + log(1/delta)) / n_lrn)."""
    return 2.0 * math.sqrt(2.0 * (S * math.log(5.0) + math.log(1.0 / delta)) / n_lrn)


@dataclass(frozen=True)
class SimilarityReport:
    init_distance: Fraction
    transition_distances: dict  # triple -> Fraction, over the fully-explored set

    def max_distance(self) -> Fraction:
        dists = [self.init_distance, *self.transition_distances.values()]
        return max(dists)

    def is_similar(self, eps) -> bool:
        eps = as_fraction(eps)
        return self.max_distance() <= eps


def similarity(model1: TabularModel, model2: TabularModel,
               fully_explored: TripleSet) -> SimilarityReport:
    """l1 closeness of initial distributions and of transitions on the set.

    Similarity concerns transitions only, never rewards. Each distance is
    taken on both models' int rows, as ints over the product of their
    denominators; callers query ``report.is_similar(eps)``.
    """
    D1, D2 = model1.den, model2.den

    def l1(p, q) -> Fraction:
        return Fraction(sum([abs(a * D2 - b * D1) for a, b in zip(p, q)]), D1 * D2)

    return SimilarityReport(l1(model1.init_nums, model2.init_nums),
                            {t: l1(model1.transition_nums(*t), model2.transition_nums(*t))
                             for t in fully_explored})


def truncated_expected_sum(model: TabularModel, policy: MarkovPolicy, U: TripleSet,
                           rtilde) -> Fraction:
    """E^pi[ sum_h rtilde(x_h,a_h,h) * 1{no U-visit strictly before h} ].

    ``rtilde`` maps (x,a,h) to [0,1]; the step-h term is still counted
    when the U-visit happens at step h itself.
    """
    steps, den = absorbing_steps(model, policy, U)
    rts = [as_fraction(rtilde((x, a, h))) for x, a, h, _ in steps]
    r_den = math.lcm(*[r.denominator for r in rts])
    return Fraction(sum(mass * r.numerator * (r_den // r.denominator)
                        for (_, _, _, mass), r in zip(steps, rts)), den * r_den)


def simulation_gap(model: TabularModel, model_star: TabularModel, U: TripleSet,
                   rtilde, policy: MarkovPolicy, eps,
                   report: SimilarityReport | None = None) -> tuple[Fraction, Fraction]:
    """(lhs, bound) for the truncated-reward comparison of similar models.

    lhs is the exact absolute difference of the truncated expected sums;
    bound is C(H,2) * eps, also exact. Raises PreconditionViolated unless
    the pair is eps-similar on the complement of U. ``report`` is the
    pair's ``similarity`` on that complement when the caller has already
    taken it; otherwise it is taken here.
    """
    eps = as_fraction(eps)
    rep = report if report is not None else similarity(
        model, model_star, complement_triples(U, model.S, model.A, model.H))
    if not rep.is_similar(eps):
        raise PreconditionViolated(
            f"models are not {eps}-similar on the complement of U "
            f"(max distance {rep.max_distance()})"
        )
    lhs = abs(
        truncated_expected_sum(model, policy, U, rtilde)
        - truncated_expected_sum(model_star, policy, U, rtilde)
    )
    return lhs, eps * math.comb(model.H, 2)


def performance_difference(model1: TabularModel, model2: TabularModel, policy: MarkovPolicy):
    """Both sides of the performance-difference identity for pi, exactly.

    With V2_h model2's value-to-go under pi at stage h, d1_h model1's
    state occupancy at stage h, and r_i, P_i model i's mean rewards and
    transition rows at (x, pi(x, h), h):
    lhs = V^pi(model1) - V^pi(model2), where V^pi(model2) = init_2 . V2_1;
    rhs = (init_1 - init_2) . V2_1 + sum_h E_{d1_h}[r_1 - r_2]
          + sum_{h<H} E_{d1_h}[(P_1 - P_2)(.|x_h, h) . V2_{h+1}].
    Models that share rewards have every reward term 0. Returns (lhs, rhs,
    decomposition dict) with per-stage reward and transition terms.
    """
    H = model1.H
    D1, init1, D2, init2 = model1.den, model1.init_nums, model2.den, model2.init_nums
    (M1, means1), (M2, means2) = int_means(model1), int_means(model2)
    V2, W = _stage_values(model2, policy)  # stage h over W[h-1]
    lhs = policy_value(model1, policy) - Fraction(sum(map(operator.mul, init2, V2[0])),
                                                 D2 * W[0])
    init_term = Fraction(sum((p1 * D2 - p2 * D1) * v for p1, p2, v in zip(init1, init2, V2[0])),
                         D1 * D2 * W[0])
    reward_nums = [0] * H
    trans_nums = [0] * (H - 1)
    # with no absorbing set, the masses are model1's state occupancies
    steps, occ_den = absorbing_steps(model1, policy, frozenset())
    for x, a, h, mass in steps:
        t = (x, a, h)
        reward_nums[h - 1] += mass * (means1[t] * M2 - means2[t] * M1)
        if h < H:
            rows = zip(model1.transition_nums(*t), model2.transition_nums(*t), V2[h])
            trans_nums[h - 1] += mass * sum((p1 * D2 - p2 * D1) * v for p1, p2, v in rows)
    reward_terms = [Fraction(n, occ_den * M1 * M2) for n in reward_nums]
    trans_terms = [Fraction(n, occ_den * D1 * D2 * W[h]) for h, n in enumerate(trans_nums, 1)]
    rhs = init_term + sum(reward_terms) + sum(trans_terms)
    return lhs, rhs, {"init_term": init_term, "reward_terms": reward_terms,
                      "transition_terms": trans_terms}


# ---------------------------------------------------------------------------
# good models, estimators, deterministic helpers


def good_model_predicate(model, model_star, U, eps_pun, eps_r, eps_p) -> bool:
    """(eps_pun + 2 eps_r)-punished on U^c and 2 eps_p-similar to the truth there."""
    explored = complement_triples(U, model.S, model.A, model.H)
    eps = as_fraction(eps_pun) + 2 * as_fraction(eps_r)
    if any(model.mean_reward(*t) > eps for t in explored):
        return False
    return similarity(model, model_star, explored).is_similar(2 * as_fraction(eps_p))


@dataclass
class Estimators:
    theta_r: dict  # triple -> float mean of first n_lrn reward samples
    theta_p: dict  # triple -> list[float] next-state frequencies (h < H only)
    theta_p0: list | None  # initial-state frequencies over first n_lrn phases


def empirical_estimators(game_log, n_lrn: int, S: int) -> Estimators:
    """Per-triple empirical means over the first n_lrn hallucination visits.

    Frequencies are vectors over the model's S states, also over states
    no episode reached. Transition frequencies are defined for h < H (the
    stage-H transition only feeds the designated sink). The initial-state
    estimator uses the first n_lrn hallucination episodes and is None
    before that. A triple with fewer than n_lrn hallucination visits has
    no estimate. The samples are the Steps of ``hallucination_history``,
    which are never None.
    """
    history = game_log.hallucination_history()
    samples_r: dict = {}
    samples_p: dict = {}
    inits = []
    for _, _, steps in history:
        inits.append(steps[0][0])
        for i, (x, a, h, r) in enumerate(steps):
            t = (x, a, h)
            samples_r.setdefault(t, [])
            if len(samples_r[t]) < n_lrn:
                samples_r[t].append(float(r))
            if i + 1 < len(steps):
                samples_p.setdefault(t, [])
                if len(samples_p[t]) < n_lrn:
                    samples_p[t].append(steps[i + 1][0])
    theta_r = {t: sum(vals) / n_lrn for t, vals in samples_r.items() if len(vals) >= n_lrn}
    theta_p = {}
    for t, nexts in samples_p.items():
        if len(nexts) >= n_lrn:
            theta_p[t] = [sum(1 for y in nexts if y == s) / n_lrn for s in range(1, S + 1)]
    theta_p0 = None
    if len(inits) >= n_lrn:
        first = inits[:n_lrn]
        theta_p0 = [sum(1 for y in first if y == s) / n_lrn for s in range(1, S + 1)]
    return Estimators(theta_r, theta_p, theta_p0)


def first_unexplored_stage(model: TabularModel, policy: MarkovPolicy, U: TripleSet) -> int:
    """First stage at which the unique trajectory enters U; H+1 if never:
    the stage of the first U-step of ``absorbing_steps``, which on a
    deterministic model walks that trajectory."""
    if not model.is_deterministic:
        raise PreconditionViolated("first_unexplored_stage needs a deterministic model")
    steps, _ = absorbing_steps(model, policy, U)
    return next((h for x, a, h, _ in steps if (x, a, h) in U), model.H + 1)


def sufficiently_visiting_policies(model_star: TabularModel, U: TripleSet,
                                   rho_0) -> list[MarkovPolicy]:
    """Policies whose exact probability of visiting U is at least rho_0."""
    rho_0 = as_fraction(rho_0)
    return [pol for pol in enumerate_policies(model_star.S, model_star.A, model_star.H)
            if event_visit_probability(model_star, pol, U) >= rho_0]
