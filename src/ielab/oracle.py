"""Exact brute-force enumeration of the game measure on micro instances.

Everything here runs in exact arithmetic: posteriors, branch masses,
agent choices and argmax sets on the prior's integer lattice
(``priors.ExactLattice``), with Fractions only where a mass or a value
enters the table or a query result. The joint table enumerates,
phase by phase, every realizable combination of (true model, raw
hallucination-episode history, hallucinated-ledger realization), and the
query helpers marginalize it to verify hygiene, the honest/hallucinated
distribution equality, the one-step incentive guarantee, and the agent's
hallucination suspicion p_hal. Two deliberately non-hygienic toy
mechanisms act as negative controls for the hygiene checker.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .agents import make_agent, mechanism_posterior
from .errors import CapExceeded, DegenerateSplit
from .ledgers import (
    CensoredTrajectory,
    Ledger,
    censor_ledger,
    raw_ledger,
    totally_censor,
    underexplored_set,
)
from .mdp import (
    MarkovPolicy,
    Step,
    Trajectory,
    TripleSet,
    complement_triples,
    enumerate_trajectories,
)
from .mechanism import (
    MechanismConfig,
    hallucination_prior_prob,
    p_hal_bound,
    phase_episodes,
    punish_event,
)
from .priors import (
    DiscretePrior,
    Posterior,
    canonical_gap,
    canonical_posterior,
    exact_lattice,
    greedy_set,
    policy_encodings,
)

ORACLE_LEAF_CAP = 10**6


@dataclass
class HalBranch:
    ledger: Ledger
    prob: Fraction  # Pr[hallucinated ledger = this | censored ledger]
    policy: MarkovPolicy  # agent's choice on the hallucination episode


@dataclass
class PhaseNode:
    """One realizable (history, phase) point of the game tree.

    ``weights[atom]`` is the joint mass Pr[true model = atom and the raw
    hallucination history equals this node's history].
    """

    ell: int
    weights: dict
    U: TripleSet
    lam_cens: Ledger
    lam_hon: Ledger
    punish: frozenset
    pr_punish_given_cens: Fraction
    branches: list
    exploit_policy: MarkovPolicy | None

    def mass(self) -> Fraction:
        return sum(self.weights.values())


@dataclass
class JointTable:
    prior: DiscretePrior
    config: MechanismConfig
    agent_mode: str
    phases: int
    variant: str
    nodes: dict = field(default_factory=dict)  # ell -> list[PhaseNode]
    model_marginal: dict = field(default_factory=dict)  # atom -> Fraction

    def total_mass(self) -> Fraction:
        return sum(self.model_marginal.values())

    def groups_by_cens(self, ell: int) -> dict:
        out: dict = {}
        for node in self.nodes[ell]:
            out.setdefault(node.lam_cens.key(), []).append(node)
        return out


def _hal_branches(prior, lam_cens, U, punish, agent, config, ell,
                  cap) -> list[HalBranch]:
    """Enumerate realizable hallucinated-ledger values with exact masses."""
    post = canonical_posterior(prior, lam_cens, punish, exact=True)
    support_atoms = [i for i, w in enumerate(post.weights) if w > 0]
    occurrences = []  # (entry index, step index, triple)
    for ei, (_, traj) in enumerate(lam_cens.entries):
        for si, s in enumerate(traj.steps):
            t = (s.x, s.a, s.h)
            if t not in U:
                occurrences.append((ei, si, t))
    # candidate reward values per occurrence
    cand = []
    for _, _, t in occurrences:
        vals = set()
        for i in support_atoms:
            d = prior.atoms[i].reward_dist(*t)
            vals.update(v for v, p in zip(d.support, d.probs) if p > 0)
        cand.append(sorted(vals))
    n_assign = 1
    for c in cand:
        n_assign *= len(c)
    if n_assign > cap:
        raise CapExceeded(f"hallucination branch factor {n_assign} exceeds cap {cap}")

    k_agent = phase_episodes(config, ell)[0]
    lattice = exact_lattice(prior)
    nums, den = post.numerators
    branches = []
    for assignment in product(*cand) if occurrences else [()]:
        rewards = Counter(("reward", *t, v) for (_, _, t), v in zip(occurrences, assignment))
        prob = Fraction(sum(lattice.masses(nums, rewards.items())),
                        den * lattice.den ** len(occurrences))
        if not prob:
            continue
        entries = []
        for ei, (pol, traj) in enumerate(lam_cens.entries):
            steps = list(traj.steps)
            for oi, (ej, sj, t) in enumerate(occurrences):
                if ej == ei:
                    s = steps[sj]
                    steps[sj] = Step(s.x, s.a, s.h, assignment[oi])
            entries.append((pol, CensoredTrajectory(tuple(steps), U)))
        lam_hal = Ledger(lam_cens.S, lam_cens.A, lam_cens.H, U, tuple(entries))
        policy = agent.choose(k_agent, ell, lam_hal,
                              is_known_hallucination=ell <= config.n_lrn)
        branches.append(HalBranch(lam_hal, prob, policy))
    return branches


def enumerate_game(config: MechanismConfig, prior: DiscretePrior, phases: int,
                   agent_mode: str = "fully_rational", variant: str = "standard",
                   cap: int = ORACLE_LEAF_CAP) -> JointTable:
    """Exact joint law of the first ``phases`` phases of the game.

    ``variant`` is "standard" or "hallucinate_unconditioned" (a mutated
    mechanism that skips the punish-event conditioning when drawing the
    hallucinated model; used as a negative control).
    """
    if variant not in ("standard", "hallucinate_unconditioned"):
        raise ValueError(f"unknown variant {variant!r}")
    S, A, H = prior.shape
    agent = make_agent(agent_mode, prior, config, exact=True)
    table = JointTable(prior, config, agent_mode, phases, variant)
    table.nodes = {ell: [] for ell in range(1, phases + 1)}
    n_nodes = 0

    marginal = table.model_marginal

    def recurse(weights: dict, history: list, ell: int):
        nonlocal n_nodes
        n_nodes += 1
        if n_nodes > cap:
            raise CapExceeded(f"game tree exceeds {cap} nodes")
        lam_raw = raw_ledger(S, A, H, history)
        U = underexplored_set(lam_raw, config.n_lrn)
        explored = complement_triples(U, S, A, H)
        lam_cens = totally_censor(lam_raw)
        lam_hon = censor_ledger(lam_raw, U)
        punish = punish_event(prior, explored, config.eps_pun)
        hal_event = punish if variant == "standard" else prior.full_event()
        can_cens = canonical_posterior(prior, lam_cens, exact=True)
        q = sum(can_cens.weights[i] for i in punish)
        branches = _hal_branches(prior, lam_cens, U, hal_event,
                                 agent, config, ell, cap)
        exploit_policy = None
        episodes = phase_episodes(config, ell)
        if len(episodes) > 1:
            exploit_policy = agent.choose(episodes[0], ell, lam_hon,
                                          is_known_hallucination=False)
        table.nodes[ell].append(
            PhaseNode(ell, dict(weights), U, lam_cens, lam_hon, punish, q,
                      branches, exploit_policy)
        )
        for br in branches:
            children: dict = {}  # steps -> (trajectory, {atom: joint mass})
            for i, w in weights.items():
                if not w:
                    continue
                mass = w * br.prob
                trajectories = enumerate_trajectories(prior.atoms[i], br.policy)
                if ell == phases:  # the last phase's trajectories only feed the marginal
                    marginal[i] = marginal.get(i, 0) + mass * sum(p for _, p in trajectories)
                    continue
                # an atom yields each trajectory once, so its mass is set, not summed
                for traj, p in trajectories:
                    child = children.get(traj.steps)
                    if child is None:
                        child = children[traj.steps] = (traj, {})
                    child[1][i] = mass * p
            for traj, atom_masses in children.values():
                recurse(atom_masses, history + [(br.policy, traj)], ell + 1)

    if phases:
        recurse(dict(enumerate(prior.weights)), [], 1)
    else:
        marginal.update(enumerate(prior.weights))
    return table


# ---------------------------------------------------------------------------
# queries


def _tv(p: dict, q: dict) -> Fraction:
    keys = set(p) | set(q)
    return sum(abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys) / 2


def _normalize(d: dict) -> dict:
    total = sum(d.values())
    return {k: v / total for k, v in d.items()}


def hygiene_tv(table: JointTable, ledger_kind: str, ell: int) -> Fraction:
    """max over realizable ledgers of TV(true posterior, canonical posterior)."""
    if ledger_kind not in ("censored", "honest"):
        raise ValueError("ledger_kind must be 'censored' or 'honest'")
    return hygiene_tv_pairs(table.prior, [
        (w, i, node.lam_cens if ledger_kind == "censored" else node.lam_hon)
        for node in table.nodes[ell]
        for i, w in node.weights.items()
    ])


def hallucination_distribution_check(table: JointTable, ell: int) -> Fraction:
    """max over censored-ledger realizations of
    TV( law(honest ledger | censored, punish event), law(hallucinated | censored) )."""
    worst = Fraction(0)
    for _, nodes in table.groups_by_cens(ell).items():
        law_hal = {}
        for br in nodes[0].branches:
            law_hal[br.ledger.key()] = law_hal.get(br.ledger.key(), Fraction(0)) + br.prob
        law_hon = {}
        total = Fraction(0)
        for node in nodes:
            mass = sum(w for i, w in node.weights.items() if i in node.punish)
            if mass:
                key = node.lam_hon.key()
                law_hon[key] = law_hon.get(key, Fraction(0)) + mass
                total += mass
        if not total:
            continue
        law_hon = {k: v / total for k, v in law_hon.items()}
        worst = max(worst, _tv(law_hon, law_hal))
    return worst


@dataclass
class OneStepEntry:
    lam_hal_key: tuple
    condition_holds: bool
    condition_lhs: Fraction
    condition_rhs: Fraction | None
    gap: Fraction | None
    argmax: frozenset  # encodings of exact mechanism-posterior maximizers
    in_target: bool | None
    vacuous: bool
    p_hal: Fraction
    p_hal_limit: Fraction


@dataclass
class OneStepReport:
    ell: int
    entries: list

    @property
    def violations(self) -> list:
        return [
            e for e in self.entries
            if e.condition_holds and not e.vacuous and e.in_target is False
        ]

    @property
    def ok(self) -> bool:
        return not self.violations


def _mech_joint(nodes) -> dict:
    """Per revealed-ledger value v: (joint over atoms, Pr[hal=v], Pr[hon=v])."""
    group_mass = sum(n.mass() for n in nodes)
    out: dict = {}
    for node in nodes:
        for br in node.branches:
            ent = out.setdefault(br.ledger.key(), {"hal": Fraction(0), "hon": Fraction(0),
                                                   "hal_atoms": {}, "hon_atoms": {},
                                                   "ledger": br.ledger})
            ent["hal"] += br.prob * node.mass() / group_mass
            for i, w in node.weights.items():
                ent["hal_atoms"][i] = ent["hal_atoms"].get(i, Fraction(0)) + br.prob * w
        key = node.lam_hon.key()
        ent = out.setdefault(key, {"hal": Fraction(0), "hon": Fraction(0),
                                   "hal_atoms": {}, "hon_atoms": {},
                                   "ledger": node.lam_hon})
        ent["hon"] += node.mass() / group_mass
        for i, w in node.weights.items():
            ent["hon_atoms"][i] = ent["hon_atoms"].get(i, Fraction(0)) + w
    return out


def _mech_masses(ent: dict, p0) -> dict:
    """Unnormalized exact mechanism posterior of one revealed-ledger value:
    p0 x (hallucination-branch joint) + (1 - p0) x (honest-branch joint)."""
    return {
        i: p0 * ent["hal_atoms"].get(i, Fraction(0))
        + (1 - p0) * ent["hon_atoms"].get(i, Fraction(0))
        for i in set(ent["hal_atoms"]) | set(ent["hon_atoms"])
    }


def one_step_audit(table: JointTable, ell: int, target) -> OneStepReport:
    """Audit the one-step incentive guarantee at phase ell.

    ``target`` is an explicit policy collection or a callable
    (U, nodes) -> collection, evaluated per censored-ledger group. For
    every realizable hallucinated ledger: if the phase-length condition
    holds, every exact-mechanism-posterior argmax must lie in the target.
    """
    prior = table.prior
    p0 = hallucination_prior_prob(table.config, ell)
    H = prior.shape[2]
    n_all = len(exact_lattice(prior).policies)
    entries = []
    explicit = None
    if not callable(target):
        explicit = policy_encodings(target)
        if not explicit or len(explicit) >= n_all:
            raise DegenerateSplit("target must be a nonempty strict policy subset")

    for _, nodes in table.groups_by_cens(ell).items():
        if explicit is not None:
            enc = explicit
        else:
            enc = policy_encodings(target(nodes[0].U, nodes))
        vacuous = not enc or len(enc) >= n_all
        q = nodes[0].pr_punish_given_cens
        for key, ent in _mech_joint(nodes).items():
            if ent["hal"] == 0:
                continue  # not a realizable hallucinated ledger
            # exact mechanism posterior at an episode of this phase
            mech = _normalize(_mech_masses(ent, p0))
            arg = greedy_set(Posterior(prior, tuple(mech.get(i, Fraction(0))
                                                    for i in range(prior.n))))
            denom = p0 * ent["hal"] + (1 - p0) * ent["hon"]
            p_hal = p0 * ent["hal"] / denom
            limit = p_hal_bound(p0, q)
            gap = None
            rhs = None
            holds = False
            if not vacuous:
                can = canonical_posterior(prior, ent["ledger"], exact=True)
                gap = canonical_gap(can, enc)
                rhs = q * gap / (3 * H)
                holds = p0 <= rhs
            entries.append(
                OneStepEntry(
                    lam_hal_key=key,
                    condition_holds=holds,
                    condition_lhs=p0,
                    condition_rhs=rhs,
                    gap=gap,
                    argmax=arg,
                    in_target=None if vacuous else arg <= enc,
                    vacuous=vacuous,
                    p_hal=p_hal,
                    p_hal_limit=limit,
                )
            )
    return OneStepReport(ell, entries)


def p_hal_audit(table: JointTable, ell: int) -> list:
    """(ledger, p_hal, bound, slack) for every realizable hallucinated ledger.

    Also cross-checks the agent-side mechanism_posterior p_hal, which is
    computed by an independent formula; exact agreement is required.
    """
    p0 = hallucination_prior_prob(table.config, ell)
    out = []
    k_agent = phase_episodes(table.config, ell)[0]
    for _, nodes in table.groups_by_cens(ell).items():
        q = nodes[0].pr_punish_given_cens
        for key, ent in _mech_joint(nodes).items():
            if ent["hal"] == 0:
                continue
            denom = p0 * ent["hal"] + (1 - p0) * ent["hon"]
            p_hal = p0 * ent["hal"] / denom
            _, p_hal_agent = mechanism_posterior(
                table.prior, table.config, k_agent, ent["ledger"], exact=True
            )
            limit = p_hal_bound(p0, q)
            out.append({
                "ledger_key": key,
                "p_hal": p_hal,
                "p_hal_agent": p_hal_agent,
                "bound": limit,
                "slack": limit - p_hal,
            })
    return out


def mechanism_posterior_from_table(table: JointTable, ell: int, revealed: Ledger):
    """Exact Pr[true model | revealed ledger at an episode of phase ell].

    Independent recomputation of the agent's mechanism posterior from the
    joint table (used to validate the agent-side formula).
    """
    p0 = hallucination_prior_prob(table.config, ell)
    key = revealed.key()
    for _, nodes in table.groups_by_cens(ell).items():
        joint = _mech_joint(nodes)
        if key in joint:
            mech = _mech_masses(joint[key], p0)
            if sum(mech.values()):
                return _normalize(mech)
    raise ValueError("revealed ledger is not realizable at this phase")


# ---------------------------------------------------------------------------
# negative controls: non-hygienic toy mechanisms


def hygiene_tv_pairs(prior: DiscretePrior, pairs) -> Fraction:
    """max over revealed ledgers of TV(true posterior, canonical posterior).

    ``pairs`` is a list of (probability, atom index, revealed Ledger)
    covering the joint law of (true model, revealed ledger) under some
    mechanism.
    """
    groups: dict = {}
    reps: dict = {}
    for prob, atom, ledger in pairs:
        key = ledger.key()
        reps[key] = ledger
        acc = groups.setdefault(key, {})
        acc[atom] = acc.get(atom, Fraction(0)) + prob
    worst = Fraction(0)
    for key, joint in groups.items():
        true_post = _normalize(joint)
        can = canonical_posterior(prior, reps[key], exact=True)
        worst = max(worst, _tv(true_post, {i: w for i, w in enumerate(can.weights) if w}))
    return worst


def fabricated_rewards_case():
    """A mechanism that shows one fabricated ledger regardless of the truth.

    Single state/action/stage, deterministic reward in {0, .3, .6, .9},
    uniform prior. The revealed ledger always claims reward 0.9, so the
    canonical posterior is a point mass while the true posterior is the
    prior. Returns (prior, pairs) for hygiene_tv_pairs.
    """
    from .mdp import DiscreteDist, build_model

    support = (Fraction(0), Fraction(3, 10), Fraction(6, 10), Fraction(9, 10))
    atoms = tuple(
        build_model(1, 1, 1, [1], {}, {(1, 1, 1): DiscreteDist.point(v)},
                    reward_support=support)
        for v in support
    )
    prior = DiscretePrior(atoms, (Fraction(1, 4),) * 4)
    pol = MarkovPolicy(((1,),), 1)
    fabricated = raw_ledger(
        1, 1, 1, [(pol, Trajectory((Step(1, 1, 1, Fraction(9, 10)),)))]
    )
    pairs = [(w, i, fabricated) for i, w in enumerate(prior.weights)]
    return prior, pairs


def policy_selection_case():
    """A mechanism whose second-episode action choice leaks the first reward.

    Two actions, deterministic rewards in {0,1}^2, uniform prior. The
    mechanism plays action 1 first (unrevealed), then action 1 again if
    it paid 1 else action 2, and reveals only the second episode. The
    canonical posterior ignores why the policy was chosen, so it misses
    that a revealed action-2 entry implies reward(1) = 0.
    """
    from .mdp import DiscreteDist, build_model

    support = (Fraction(0), Fraction(1))
    atoms = []
    combos = [(r1, r2) for r1 in (0, 1) for r2 in (0, 1)]
    for r1, r2 in combos:
        atoms.append(
            build_model(
                1, 2, 1, [1], {},
                {(1, 1, 1): DiscreteDist.point(r1), (1, 2, 1): DiscreteDist.point(r2)},
                reward_support=support,
            )
        )
    prior = DiscretePrior(tuple(atoms), (Fraction(1, 4),) * 4)
    pairs = []
    for i, (r1, r2) in enumerate(combos):
        a2 = 1 if r1 == 1 else 2
        pol = MarkovPolicy(((a2,),), 2)
        reward = Fraction(r1 if a2 == 1 else r2)
        led = raw_ledger(1, 2, 1, [(pol, Trajectory((Step(1, a2, 1, reward),)))])
        pairs.append((prior.weights[i], i, led))
    return prior, pairs
