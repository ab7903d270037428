"""Exact brute-force enumeration of the game measure on micro instances.

Everything here runs in exact arithmetic: posteriors, branch masses,
agent choices, argmax sets and trajectory masses on the prior's integer
lattice (``priors.ExactLattice``), whose count signatures and reward
features address its int columns, and each node's joint masses as ints
over one denominator per node. The queries group nodes and branches by
ledger value, each ``Ledger`` its own dictionary key, and keep those
ints: the hygiene TVs join a ledger's nodes over the lcm of their dens,
and the one-step and p_hal audits read per revealed ledger its
hallucinated and honest joints as ints over one group denominator, built
once per phase and kept on the table; a Fraction is built only where a
value leaves a query. ``mechanism_posterior_from_table`` is the
independent Fraction reference of those joints. A node's censored
posterior, Pr[punish | censored] and hallucination branches are computed
once per (phase, censored count signature, revealed occurrences in entry
order, U) in one ``enumerate_game`` call, and each node still gets its
own ledgers and branch ledgers. Each policy's trajectories are
enumerated once for all atoms and checked, in integers, to carry every
atom's full mass; so the last phase, whose trajectories only feed the
model marginal, adds each node's masses times its branches' total
probability without listing them. The joint table enumerates,
phase by phase, every realizable combination of (true model, raw
hallucination-episode history, hallucinated-ledger realization), and the
query helpers marginalize it to verify hygiene, the honest/hallucinated
distribution equality, the one-step incentive guarantee, and the agent's
hallucination suspicion p_hal. Two deliberately non-hygienic toy
mechanisms act as negative controls for the hygiene checker.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .agents import make_agent, mechanism_posterior
from .errors import CapExceeded, DegenerateSplit, ZeroEvidence
from .ledgers import (
    Ledger,
    censor_ledger,
    raw_ledger,
    reveal_rewards,
    totally_censor,
    underexplored_set,
)
from .mdp import (
    MarkovPolicy,
    Step,
    Trajectory,
    TripleSet,
    complement_triples,
)
from .mechanism import (
    MechanismConfig,
    hallucination_posterior,
    hallucination_prior_prob,
    hh_condition_holds,
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
    over_common_den,
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

    ``masses[atom]`` over ``den`` is the joint mass Pr[true model = atom
    and the raw hallucination history equals this node's history], an
    int.
    """

    ell: int
    masses: dict
    den: int
    U: TripleSet
    lam_cens: Ledger
    lam_hon: Ledger
    punish: frozenset
    pr_punish_given_cens: Fraction
    branches: list
    exploit_policy: MarkovPolicy | None
    signature: tuple  # count_signature(lam_cens), carried from the parent

    def mass(self) -> Fraction:
        return Fraction(sum(self.masses.values()), self.den)


@dataclass
class JointTable:
    prior: DiscretePrior
    config: MechanismConfig
    agent_mode: str
    phases: int
    nodes: dict = field(default_factory=dict)  # ell -> list[PhaseNode]
    model_marginal: dict = field(default_factory=dict)  # atom -> Fraction
    # ell -> _hal_ledgers(table, ell), built on first use; not an init
    # field, so a dataclasses.replace copy starts with an empty cache
    hal_ledgers: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def total_mass(self) -> Fraction:
        return sum(self.model_marginal.values())

    def groups_by_cens(self, ell: int) -> dict:
        out: dict = {}
        for node in self.nodes[ell]:
            out.setdefault(node.lam_cens, []).append(node)
        return out


def _hal_branches(prior, nums, lam_cens, U, occurrences, event, agent, ell,
                  cap) -> list[tuple]:
    """Enumerate realizable hallucinated-ledger values with exact masses,
    as rows (revealed rewards in entry order, prob, policy): the rewards
    that ``reveal_rewards`` writes at ``occurrences``, the triples of
    ``lam_cens``'s occurrences outside U in entry order, and the agent's
    choice on that ledger.

    ``nums`` are the censored ledger's canonical masses restricted to the
    event: the masses of ``hallucination_posterior``, the same lattice
    ints, without a second pass.
    """
    den = sum(nums)
    if not den:
        hallucination_posterior(prior, lam_cens, event)  # raises its ZeroEvidence
    lattice = exact_lattice(prior)
    # candidate (reward value, feature) pairs per triple: the values some
    # support atom gives mass, in increasing order
    values = {t: [(v, f) for v, f in zip(lattice.support, lattice.reward_features(*t))
                  if any(map(operator.mul, nums, lattice.columns[f]))]
              for t in set(occurrences)}
    cand = [values[t] for t in occurrences]
    n_assign = 1
    for c in cand:
        n_assign *= len(c)
    if n_assign > cap:
        raise CapExceeded(f"hallucination branch factor {n_assign} exceeds cap {cap}")

    rows = []
    for assignment in product(*cand):
        features = Counter(f for _, f in assignment)
        prob = Fraction(sum(lattice.masses(nums, features.items())),
                        den * lattice.den ** len(occurrences))
        if not prob:
            continue
        rewards = [v for v, _ in assignment]
        rows.append((rewards, prob, agent.choose(ell, reveal_rewards(lam_cens, U, rewards))))
    return rows


def enumerate_game(config: MechanismConfig, prior: DiscretePrior, phases: int,
                   agent_mode: str = "fully_rational", variant: str = "standard",
                   cap: int = ORACLE_LEAF_CAP) -> JointTable:
    """Exact joint law of the first ``phases`` phases of the game.

    ``variant`` is "standard" or "hallucinate_unconditioned" (a mutated
    mechanism that skips the punish-event conditioning when drawing the
    hallucinated model; used as a negative control).

    A node's censored posterior and hallucination branches depend on its
    history only through the phase, its censored count signature, U and
    the triples of its revealed occurrences in entry order (the
    signature has no feature for a stage-H action, and the branches
    assign and reveal rewards in entry order). So they are computed once
    per such key, and the punish event once per U; every node builds its
    own branch ledgers from its key's rows. Each child carries its
    signature from its parent plus its trajectory's path features.
    """
    if variant not in ("standard", "hallucinate_unconditioned"):
        raise ValueError(f"unknown variant {variant!r}")
    S, A, H = prior.shape
    agent = make_agent(agent_mode, prior, config)
    lattice = exact_lattice(prior)
    table = JointTable(prior, config, agent_mode, phases)
    table.nodes = {ell: [] for ell in range(1, phases + 1)}
    n_nodes = 0

    marginal = table.model_marginal
    last_terms: dict = {}  # den -> {atom: int}: the marginal's terms by denominator
    events: dict = {}  # U -> (punish event, hallucination event)
    # (ell, signature, revealed occurrences, U) -> (Pr[punish | censored],
    # _hal_branches' rows, the branches' total probability)
    laws: dict = {}

    def recurse(masses: dict, den: int, history: list, sig: tuple, triples: tuple, ell: int):
        """masses[atom] over den: the node's joint masses, as ints; sig:
        its censored ledger's count signature; triples: its steps'
        (x, a, h), in entry order."""
        nonlocal n_nodes
        n_nodes += 1
        if n_nodes > cap:
            raise CapExceeded(f"game tree exceeds {cap} nodes")
        lam_raw = raw_ledger(S, A, H, history)
        U = underexplored_set(lam_raw, config.n_lrn)
        lam_cens = totally_censor(lam_raw)
        lam_hon = censor_ledger(lam_raw, U)
        if U not in events:
            punish = punish_event(prior, complement_triples(U, S, A, H), config.eps_pun)
            events[U] = punish, punish if variant == "standard" else prior.full_event()
        punish, hal_event = events[U]
        occurrences = tuple(t for t in triples if t not in U)
        key = (ell, sig, occurrences, U)
        if key not in laws:
            nums = lattice.masses(lattice.weights, sig)
            on_punish = [v if i in punish else 0 for i, v in enumerate(nums)]
            rows = _hal_branches(prior, on_punish if variant == "standard" else nums,
                                 lam_cens, U, occurrences, hal_event, agent, ell, cap)
            laws[key] = (Fraction(sum(on_punish), sum(nums)), rows,
                         sum(prob for _, prob, _ in rows))
        q, rows, total = laws[key]
        branches = [HalBranch(reveal_rewards(lam_cens, U, rewards), prob, policy)
                    for rewards, prob, policy in rows]
        exploit_policy = None
        episodes = phase_episodes(config, ell)
        if len(episodes) > 1:
            exploit_policy = agent.choose(ell, lam_hon)
        node = PhaseNode(ell, masses, den, U, lam_cens, lam_hon, punish, q,
                         branches, exploit_policy, sig)
        table.nodes[ell].append(node)
        if ell == phases:
            # the last phase's trajectories only feed the marginal, which
            # gets each atom's mass times the branches' total probability
            terms = last_terms.setdefault(den * total.denominator, {})
            for i, v in masses.items():
                terms[i] = terms.get(i, 0) + v * total.numerator
        for br in branches:
            # building the policy's paths checks that, under every atom,
            # its trajectory masses sum to exactly 1
            paths = lattice.paths(br.policy)
            if ell == phases:
                continue
            child_den = den * br.prob.denominator * paths.den
            children: dict = {}  # path index -> {atom: joint mass}, atom-major order
            num = br.prob.numerator
            for i, v in masses.items():
                v *= num
                # an atom yields each trajectory once, so its mass is set, not summed
                for k in paths.of_atom[i]:
                    child = children.get(k)
                    if child is None:
                        child = children[k] = {}
                    child[i] = v * paths.masses[k][i]
            for k, atom_masses in children.items():
                traj = paths.trajectories[k]
                counts = dict(sig)
                for f in lattice.entry_features(traj.steps)[0]:
                    if f < lattice.reward_start:  # the censored ledger reveals no reward
                        counts[f] = counts.get(f, 0) + 1
                recurse(atom_masses, child_den, history + [(br.policy, traj)],
                        tuple(sorted(counts.items())),
                        triples + tuple((s.x, s.a, s.h) for s in traj.steps), ell + 1)

    if phases:
        weights, den = over_common_den(prior.weights)
        recurse(dict(enumerate(weights)), den, [], (), (), 1)
        for term_den, terms in last_terms.items():
            for i, v in terms.items():
                marginal[i] = marginal.get(i, 0) + Fraction(v, term_den)
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
    """max over realizable ledgers of TV(true posterior, canonical posterior).

    The phase's nodes are grouped by ledger value, and each group's joint
    is its nodes' masses as ints over the lcm of their dens, for
    ``hygiene_tv_pairs``' integer TV.
    """
    if ledger_kind not in ("censored", "honest"):
        raise ValueError("ledger_kind must be 'censored' or 'honest'")
    groups: dict = {}
    for node in table.nodes[ell]:
        ledger = node.lam_cens if ledger_kind == "censored" else node.lam_hon
        groups.setdefault(ledger, []).append(node)
    joints = []
    for ledger, nodes in groups.items():
        lcm = math.lcm(*(node.den for node in nodes))
        joint = [0] * table.prior.n
        for node in nodes:
            scale = lcm // node.den
            for i, v in node.masses.items():
                joint[i] += v * scale
        joints.append((ledger, joint))
    return _max_tv(table.prior, joints)


def hallucination_distribution_check(table: JointTable, ell: int) -> Fraction:
    """max over censored-ledger realizations of
    TV( law(honest ledger | censored, punish event), law(hallucinated | censored) )."""
    worst = Fraction(0)
    for nodes in table.groups_by_cens(ell).values():
        law_hal = {}
        for br in nodes[0].branches:
            law_hal[br.ledger] = law_hal.get(br.ledger, Fraction(0)) + br.prob
        law_hon = {}
        total = Fraction(0)
        for node in nodes:
            mass = Fraction(sum(v for i, v in node.masses.items() if i in node.punish),
                            node.den)
            if mass:
                law_hon[node.lam_hon] = law_hon.get(node.lam_hon, Fraction(0)) + mass
                total += mass
        if not total:
            continue
        law_hon = {k: v / total for k, v in law_hon.items()}
        worst = max(worst, _tv(law_hon, law_hal))
    return worst


@dataclass
class OneStepEntry:
    """One realizable hallucinated ledger of a one-step audit."""

    ledger: Ledger
    condition_holds: bool
    condition_rhs: Fraction | None
    gap: Fraction | None
    argmax: frozenset  # encodings of exact mechanism-posterior maximizers
    in_target: bool | None
    vacuous: bool
    p_hal: Fraction


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


def _mech_joint(table: JointTable, ell: int) -> list:
    """Per censored-ledger group of phase ell: its nodes and a dict from
    each revealed ledger value v, in first-seen order, to [hal, hon] with
    hal[i] (hon[i]) the joint mass Pr[true model = i, this censored ledger,
    hallucinated (honest) ledger = v], as ints over one group denominator:
    the lcm of the nodes' dens times the lcm of the branch denominators."""
    out = []
    for nodes in table.groups_by_cens(ell).values():
        den = math.lcm(*(node.den for node in nodes))
        q = math.lcm(*(br.prob.denominator for node in nodes for br in node.branches))
        joint: dict = {}
        for node in nodes:
            scale = den // node.den
            masses = [(i, v * scale) for i, v in node.masses.items()]
            for br in node.branches:
                c = br.prob.numerator * (q // br.prob.denominator)
                hal = joint.setdefault(br.ledger, [{}, {}])[0]
                for i, v in masses:
                    hal[i] = hal.get(i, 0) + c * v
            hon = joint.setdefault(node.lam_hon, [{}, {}])[1]
            for i, v in masses:
                hon[i] = hon.get(i, 0) + q * v
        out.append((nodes, joint))
    return out


def _mech_masses(prior: DiscretePrior, hal: dict, hon: dict, p0: Fraction) -> Posterior:
    """Exact mechanism posterior of one revealed-ledger value:
    p0 x (hallucination-branch joint) + (1 - p0) x (honest-branch joint),
    on ``_mech_joint``'s ints."""
    a, b = p0.numerator, p0.denominator
    nums = [a * hal.get(i, 0) + (b - a) * hon.get(i, 0) for i in range(prior.n)]
    return Posterior(prior, (nums, sum(nums)))


def _hal_ledgers(table: JointTable, ell: int) -> list:
    """Per censored-ledger group of phase ell: its nodes and, for every
    realizable hallucinated ledger value, (ledger, hal, hon, p_hal)
    with the exact p_hal = Pr[hallucination episode | ledger]. Built once
    per phase from ``_mech_joint`` and kept on the table."""
    if ell not in table.hal_ledgers:
        p0 = hallucination_prior_prob(table.config, ell)
        a, b = p0.numerator, p0.denominator
        out = []
        for nodes, joint in _mech_joint(table, ell):
            rows = []
            for ledger, (hal, hon) in joint.items():
                t_hal = sum(hal.values())
                if not t_hal:
                    continue  # not a realizable hallucinated ledger
                p_hal = Fraction(a * t_hal, a * t_hal + (b - a) * sum(hon.values()))
                rows.append((ledger, hal, hon, p_hal))
            out.append((nodes, rows))
        table.hal_ledgers[ell] = out
    return table.hal_ledgers[ell]


def one_step_audit(table: JointTable, ell: int, target) -> OneStepReport:
    """Audit the one-step incentive guarantee at phase ell.

    ``target`` is an explicit policy collection or a callable
    (U, nodes) -> collection, evaluated per censored-ledger group. For
    every realizable hallucinated ledger: if the phase-length condition
    holds, every exact-mechanism-posterior argmax must lie in the target.
    """
    prior = table.prior
    p0 = hallucination_prior_prob(table.config, ell)
    n_episodes = len(phase_episodes(table.config, ell))
    H = prior.shape[2]
    n_all = len(exact_lattice(prior).policies)
    entries = []
    explicit = None
    if not callable(target):
        explicit = policy_encodings(target)
        if not explicit or len(explicit) >= n_all:
            raise DegenerateSplit("target must be a nonempty strict policy subset")

    for nodes, rows in _hal_ledgers(table, ell):
        if explicit is not None:
            enc = explicit
        else:
            enc = policy_encodings(target(nodes[0].U, nodes))
        vacuous = not enc or len(enc) >= n_all
        q = nodes[0].pr_punish_given_cens
        for ledger, hal, hon, p_hal in rows:
            # exact mechanism posterior at an episode of this phase
            arg = greedy_set(_mech_masses(prior, hal, hon, p0))
            gap = None
            rhs = None
            holds = False
            if not vacuous:
                can = canonical_posterior(prior, ledger)
                gap = canonical_gap(can, enc)
                holds, _, rhs = hh_condition_holds(n_episodes, q, gap, H)
            entries.append(
                OneStepEntry(
                    ledger=ledger,
                    condition_holds=holds,
                    condition_rhs=rhs,
                    gap=gap,
                    argmax=arg,
                    in_target=None if vacuous else arg <= enc,
                    vacuous=vacuous,
                    p_hal=p_hal,
                )
            )
    return OneStepReport(ell, entries)


def p_hal_audit(table: JointTable, ell: int) -> list:
    """One dict per realizable hallucinated ledger: the ledger itself, its
    p_hal, the agent-side p_hal_agent, the bound p_hal_bound(p0,
    Pr[punish | censored ledger]) and the slack bound - p_hal.

    Also cross-checks the agent-side mechanism_posterior p_hal, which is
    computed by an independent formula; exact agreement is required.
    """
    out = []
    p0 = hallucination_prior_prob(table.config, ell)
    for nodes, rows in _hal_ledgers(table, ell):
        limit = p_hal_bound(p0, nodes[0].pr_punish_given_cens)
        for ledger, _, _, p_hal in rows:
            _, p_hal_agent = mechanism_posterior(table.prior, table.config, ell, ledger)
            out.append({
                "ledger": ledger,
                "p_hal": p_hal,
                "p_hal_agent": p_hal_agent,
                "bound": limit,
                "slack": limit - p_hal,
            })
    return out


def mechanism_posterior_from_table(table: JointTable, ell: int, revealed: Ledger):
    """Exact Pr[true model | revealed ledger at an episode of phase ell].

    Independent recomputation of the agent's mechanism posterior from the
    joint table (used to validate the agent-side formula and the audits'
    integer joints): the first censored-ledger group that reveals the
    ledger with positive mass, marginalized in Fractions.
    """
    p0 = hallucination_prior_prob(table.config, ell)
    for nodes in table.groups_by_cens(ell).values():
        mech: dict = {}
        for node in nodes:
            hal = sum(br.prob for br in node.branches if br.ledger == revealed)
            hon = node.lam_hon == revealed
            if not hal and not hon:
                continue
            for i, v in node.masses.items():
                w = Fraction(v, node.den)
                mech[i] = mech.get(i, Fraction(0)) + p0 * hal * w + (1 - p0) * hon * w
        if sum(mech.values()):
            return _normalize(mech)
    raise ValueError("revealed ledger is not realizable at this phase")


# ---------------------------------------------------------------------------
# negative controls: non-hygienic toy mechanisms


def hygiene_tv_pairs(prior: DiscretePrior, pairs) -> Fraction:
    """max over revealed ledgers of TV(true posterior, canonical posterior).

    ``pairs`` is a list of (probability, atom index, revealed Ledger)
    covering the joint law of (true model, revealed ledger) under some
    mechanism; they are grouped by ledger value, each ``Ledger`` its own
    dictionary key. Per ledger, the true joint is taken as ints n over its
    lcm and the canonical posterior as lattice masses c, one per count
    signature, so TV = sum_i |n_i T_c - c_i T_n| / (2 T_n T_c) with T the
    totals; Fractions appear only in the returned maximum. Raises
    ZeroEvidence when a ledger has zero canonical mass.
    """
    groups: dict = {}
    last = None
    for prob, atom, ledger in pairs:
        if ledger is not last:  # a node's pairs share its ledger: one lookup each
            last = ledger
            members = groups.setdefault(ledger, [])
        members.append((atom, prob))
    joints = []
    for ledger, members in groups.items():
        lcm = math.lcm(*(prob.denominator for _, prob in members))
        joint = [0] * prior.n
        for atom, prob in members:
            joint[atom] += prob.numerator * (lcm // prob.denominator)
        joints.append((ledger, joint))
    return _max_tv(prior, joints)


def _max_tv(prior: DiscretePrior, joints) -> Fraction:
    """max over (ledger, joint) of TV(joint normalized, canonical
    posterior of the ledger): the joint as per-atom ints, the canonical
    posterior as lattice masses, one per count signature."""
    lattice = exact_lattice(prior)
    canonical: dict = {}
    worst, worst_den = 0, 1
    for ledger, joint in joints:
        sig = lattice.count_signature(ledger)
        if sig not in canonical:
            can = lattice.masses(lattice.weights, sig)
            if not any(can):
                raise ZeroEvidence(f"ledger/event inconsistent with the prior "
                                   f"(|entries|={len(ledger)}, |event|={prior.n})")
            canonical[sig] = can, sum(can)
        can, t_can = canonical[sig]
        t_joint = sum(joint)
        diff = sum(abs(n * t_can - c * t_joint) for n, c in zip(joint, can))
        den = 2 * t_joint * t_can
        if diff * worst_den > worst * den:
            worst, worst_den = diff, den
    return Fraction(worst, worst_den)


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
