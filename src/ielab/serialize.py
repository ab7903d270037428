"""JSON schemas for models, priors, and ledgers.

Indices are 1-based on the wire. Numbers may be ints, decimal floats, or
"p/q" strings; everything is parsed into exact rationals (floats through
their shortest decimal repr).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ConfigError
from .ledgers import CensoredTrajectory, Ledger
from .mdp import DiscreteDist, MarkovPolicy, Step, TabularModel, as_fraction, build_model
from .priors import DiscretePrior, FactoredRewardPrior


def _num_out(v: Fraction):
    """Emit ints as ints, dyadic-free rationals as 'p/q' strings."""
    if v.denominator == 1:
        return v.numerator
    return str(v)


def _triple_key(t) -> str:
    return f"{t[0]},{t[1]},{t[2]}"


def _parse_triple(key: str) -> tuple[int, int, int]:
    x, a, h = (int(p) for p in key.split(","))
    return x, a, h


def dist_to_dict(d: DiscreteDist) -> dict:
    return {
        "support": [_num_out(v) for v in d.support],
        "probs": [_num_out(p) for p in d.probs],
    }


def dist_from_dict(d: dict) -> DiscreteDist:
    return DiscreteDist.of(zip(d["support"], d["probs"]))


def _model_to_dict(m: TabularModel) -> dict:
    """The model's JSON form, field by field."""
    out = {
        "S": m.S,
        "A": m.A,
        "H": m.H,
        "init": [_num_out(p) for p in m.init],
        "transitions": {},
        "rewards": {},
    }
    for x in range(1, m.S + 1):
        for a in range(1, m.A + 1):
            for h in range(1, m.H + 1):
                key = _triple_key((x, a, h))
                out["transitions"][key] = [_num_out(p) for p in m.transition(x, a, h)]
                out["rewards"][key] = dist_to_dict(m.reward_dist(x, a, h))
    return out


def model_from_dict(d: dict, reward_support=None) -> TabularModel:
    try:
        S, A, H = d["S"], d["A"], d["H"]
        transitions = {_parse_triple(k): v for k, v in d["transitions"].items()}
        rewards = {_parse_triple(k): dist_from_dict(v) for k, v in d["rewards"].items()}
        return build_model(S, A, H, d["init"], transitions, rewards,
                           reward_support=reward_support)
    except KeyError as e:
        raise ConfigError(f"model JSON missing field {e}") from e


def prior_to_dict(prior: DiscretePrior) -> dict:
    """The prior's JSON form: the reference ``prior_text`` renders directly."""
    return {
        "atoms": [
            {"model": _model_to_dict(m), "weight": _num_out(w)}
            for m, w in zip(prior.atoms, prior.weights)
        ]
    }


def prior_text(prior: DiscretePrior) -> str:
    """``json.dumps(prior_to_dict(prior), sort_keys=True, separators=(",",
    ":"))``, rendered directly, each shared part once: every init vector,
    transition row and reward law, every transition table's
    ``"transitions"`` text, and every per-x reward sub-tuple's run of
    ``"rewards"`` entries. Triple keys sort as strings, so "10,1,1" comes
    before "2,1,1" and "1,1,10" before "1,1,2"; the keys of one x share
    the prefix "x,", so each x's entries are one run. A non-integer is
    the JSON string of its 'p/q' form, which needs no escaping."""
    rendered: dict = {}

    def once(key, render, *args) -> str:
        if key not in rendered:
            rendered[key] = render(*args)
        return rendered[key]

    def num(v: Fraction) -> str:
        return str(v.numerator) if v.denominator == 1 else f'"{v}"'

    def vector(vec) -> str:
        return "[" + ",".join(map(num, vec)) + "]"

    def law(d: DiscreteDist) -> str:
        return f'{{"probs":{vector(d.probs)},"support":{vector(d.support)}}}'

    S, A, H = prior.shape
    xs = sorted(range(1, S + 1), key=lambda x: f"{x},")
    ahs = sorted(((a, h) for a in range(1, A + 1) for h in range(1, H + 1)),
                 key=lambda ah: f"{ah[0]},{ah[1]}")

    def rewards(x: int, sub) -> str:
        return ",".join(f'"{x},{a},{h}":{once(id(d), law, d)}'
                        for a, h in ahs for d in [sub[a - 1][h - 1]])

    def transitions(trans) -> str:
        return ",".join(f'"{x},{a},{h}":{once(id(vec), vector, vec)}'
                        for x in xs for a, h in ahs for vec in [trans[x - 1][a - 1][h - 1]])

    atoms = []
    for m, w in zip(prior.atoms, prior.weights):
        # a sub-tuple's text holds its x, so it is kept per (x, sub-tuple)
        rews = ",".join([once((x, id(sub)), rewards, x, sub)
                         for x in xs for sub in [m.rewards[x - 1]]])
        init = once(id(m.init), vector, m.init)
        trans = once(id(m.trans), transitions, m.trans)
        atoms.append(f'{{"model":{{"A":{A},"H":{H},"S":{S},"init":{init},"rewards":{{{rews}}},'
                     f'"transitions":{{{trans}}}}},"weight":{num(w)}}}')
    return '{"atoms":[' + ",".join(atoms) + "]}"


def prior_from_dict(d: dict, dist_of_mean=None) -> DiscretePrior | FactoredRewardPrior:
    if "atoms" in d:
        support = set()
        models = []
        weights = []
        for entry in d["atoms"]:
            for rv in entry["model"]["rewards"].values():
                support.update(as_fraction(v) for v in rv["support"])
        support = tuple(sorted(support))
        for entry in d["atoms"]:
            models.append(model_from_dict(entry["model"], reward_support=support))
            weights.append(as_fraction(entry["weight"]))
        return DiscretePrior(tuple(models), tuple(weights))
    if "factored" in d:
        f = d["factored"]
        transition_atoms = tuple(
            (
                [as_fraction(p) for p in atom["init"]],
                {_parse_triple(k): [as_fraction(p) for p in vec]
                 for k, vec in atom["transitions"].items()},
                as_fraction(atom["weight"]),
            )
            for atom in f["transition_prior"]
        )
        marginals = {
            _parse_triple(k): dist_from_dict(v) for k, v in f["reward_marginals"].items()
        }
        return FactoredRewardPrior(f["S"], f["A"], f["H"], transition_atoms, marginals,
                                   dist_of_mean=dist_of_mean)
    raise ConfigError("prior JSON needs 'atoms' or 'factored'")


# ---------------------------------------------------------------------------
# ledger JSONL


def ledger_to_jsonl(ledger: Ledger) -> str:
    header = {
        "S": ledger.S, "A": ledger.A, "H": ledger.H,
        "censor_set": [list(t) for t in sorted(ledger.censor_set)],
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for pol, traj in ledger.entries:
        rec = {
            "policy": [list(row) for row in pol.actions],
            "steps": [
                [s.x, s.a, s.h, None if s.r is None else _num_out(s.r)]
                for s in traj.steps
            ],
        }
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def ledger_from_jsonl(text: str) -> Ledger:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = json.loads(lines[0])
    U = frozenset(tuple(t) for t in header["censor_set"])
    A = header["A"]
    entries = []
    for ln in lines[1:]:
        rec = json.loads(ln)
        pol = MarkovPolicy.from_table(rec["policy"], A)
        steps = tuple(
            Step(x, a, h, None if r is None else as_fraction(r))
            for x, a, h, r in rec["steps"]
        )
        entries.append((pol, CensoredTrajectory(steps, U)))
    return Ledger(header["S"], A, header["H"], U, tuple(entries))
