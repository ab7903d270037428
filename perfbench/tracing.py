"""Span tracing installed from outside the program.

``Tracer.install`` replaces each listed ielab function at every place it
is bound: the defining module or class, every ``from .x import f`` copy
in another ielab module, and dispatch tables such as ``cli._COMMANDS``.
Each call then records one span (name, start, end, parent) in compact
in-memory arrays; ``Tracer.write`` dumps them when the workload ends and
``summarize`` turns a dump into per-function counts and times.

Generator functions (``mdp.enumerate_trajectories``) get one span for
the call and one per resumption, so the time spent producing items is
charged to them and not to the caller that iterates.

``fractions.Fraction`` arithmetic dunders are counted, without spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import operator
import sys
import time
from array import array

CALL, RESUME = 0, 1

# (metric name, module, attribute path). The name drops the module
# prefix "ielab." and spells __init__ as "init".
TARGETS = [
    ("rng.stream", "ielab.rng", "stream"),
    ("rng.sample_index", "ielab.rng", "sample_index"),
    ("mdp.sample_trajectory", "ielab.mdp", "sample_trajectory"),
    ("mdp.event_visit_probability", "ielab.mdp", "event_visit_probability"),
    ("mdp.policy_value", "ielab.mdp", "policy_value"),
    ("mdp.enumerate_trajectories", "ielab.mdp", "enumerate_trajectories"),
    ("ledgers.ledger_probability", "ielab.ledgers", "ledger_probability"),
    ("ledgers.ledger_reward_mass", "ielab.ledgers", "ledger_reward_mass"),
    ("priors.FactoredRewardPrior.expand", "ielab.priors", "FactoredRewardPrior.expand"),
    ("priors.PriorTables.init", "ielab.priors", "PriorTables.__init__"),
    ("priors.PriorTables.posterior_from_loglik", "ielab.priors",
     "PriorTables.posterior_from_loglik"),
    ("priors.PriorTables.entry_translog", "ielab.priors", "PriorTables.entry_translog"),
    ("priors.PriorTables.exact_value", "ielab.priors", "PriorTables.exact_value"),
    ("priors.bayes_greedy", "ielab.priors", "bayes_greedy"),
    ("priors.canonical_posterior", "ielab.priors", "canonical_posterior"),
    ("priors.conditional_value", "ielab.priors", "conditional_value"),
    ("mechanism.run_game", "ielab.mechanism", "run_game"),
    ("mechanism.GameLog.to_jsonl", "ielab.mechanism", "GameLog.to_jsonl"),
    ("mechanism.prior_digest", "ielab.mechanism", "prior_digest"),
    ("agents.AgentSpec.choose_signal", "ielab.agents", "AgentSpec.choose_signal"),
    ("agents.AgentSpec.choose", "ielab.agents", "AgentSpec.choose"),
    ("agents.mechanism_posterior", "ielab.agents", "mechanism_posterior"),
    ("oracle.enumerate_game", "ielab.oracle", "enumerate_game"),
    ("oracle.one_step_audit", "ielab.oracle", "one_step_audit"),
    ("oracle.p_hal_audit", "ielab.oracle", "p_hal_audit"),
    ("oracle.hygiene_tv", "ielab.oracle", "hygiene_tv"),
    ("oracle.hallucination_distribution_check", "ielab.oracle",
     "hallucination_distribution_check"),
    ("analysis.simulation_gap", "ielab.analysis", "simulation_gap"),
    ("analysis.performance_difference", "ielab.analysis", "performance_difference"),
    ("harness.cmd_run_det", "ielab.harness", "cmd_run_det"),
    ("harness.cmd_run_prob", "ielab.harness", "cmd_run_prob"),
    ("harness.cmd_verify", "ielab.harness", "cmd_verify"),
]

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def _rebind_in_dict(d: dict, original, wrapped) -> list:
    """Replace ``original`` among a dict's values, also inside tuple values.

    Returns the (key, old value) pairs replaced.
    """
    replaced = []
    for key, val in list(d.items()):
        if val is original:
            new = wrapped
        elif isinstance(val, tuple) and any(v is original for v in val):
            new = tuple(wrapped if v is original else v for v in val)
        else:
            continue
        replaced.append((key, val))
        d[key] = new
    return replaced


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.kind = array("b")
        self.stack: list[int] = []
        self.counters = {"fraction_ops": 0, "to_jsonl_bytes": 0,
                         "oracle_nodes": 0, "oracle_branches": 0}
        self.binding_sites: dict[str, int] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self, idx: int, kind: int) -> int:
        pos = len(self.start)
        self.name_of.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.kind.append(kind)
        self.end.append(0)
        self.stack.append(pos)
        self.start.append(time.perf_counter_ns())
        return pos

    def _exit(self, pos: int) -> None:
        self.end[pos] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            def resumes(gen):
                while True:
                    pos = enter(idx, RESUME)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(pos)
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                pos = enter(idx, CALL)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    exit_(pos)
                return resumes(gen)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pos = enter(idx, CALL)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(pos)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        observers = {
            "mechanism.GameLog.to_jsonl": self._observe_jsonl,
            "oracle.enumerate_game": self._observe_table,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "ielab" or name.startswith("ielab.")) and m is not None]
        for name, modname, path in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, observers.get(name))
            if cls_path:  # a method: the class is its only binding site
                setattr(owner, attr, wrapped)
                self._undo.append((setattr, owner, attr, original))
                self.binding_sites[name] = 1
                continue
            sites = 0
            for mod in modules:
                space = vars(mod)
                for key, val in list(space.items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((setattr, mod, key, original))
                        sites += 1
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for dkey, old in _rebind_in_dict(val, original, wrapped):
                            self._undo.append((operator.setitem, val, dkey, old))
                            sites += 1
            if sites == 0:
                raise RuntimeError(f"{name}: no binding site found")
            self.binding_sites[name] = sites
        self._count_fraction_ops()

    def _count_fraction_ops(self) -> None:
        from fractions import Fraction

        counters = self.counters
        for op in FRACTION_OPS:
            original = Fraction.__dict__[op]

            def counted(*args, _fn=original):
                counters["fraction_ops"] += 1
                return _fn(*args)

            setattr(Fraction, op, counted)
            self._undo.append((setattr, Fraction, op, original))

    def uninstall(self) -> None:
        while self._undo:
            fn, a, b, c = self._undo.pop()
            fn(a, b, c)

    def _observe_jsonl(self, text: str) -> None:
        self.counters["to_jsonl_bytes"] += len(text)  # json.dumps output is ASCII

    def _observe_table(self, table) -> None:
        for nodes in table.nodes.values():
            self.counters["oracle_nodes"] += len(nodes)
            self.counters["oracle_branches"] += sum(len(n.branches) for n in nodes)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON header line, then one 'name start end parent kind' row per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names, "counters": self.counters,
                                "binding_sites": self.binding_sites}) + "\n")
            t0 = self.start[0] if self.start else 0
            for i in range(len(self.start)):
                f.write(f"{self.name_of[i]} {self.start[i] - t0} {self.end[i] - t0} "
                        f"{self.parent[i]} {self.kind[i]}\n")


def summarize(path: str) -> dict:
    """Per-function calls, busy and self time from a span dump, in one pass.

    busy_s sums the spans of a function that have no ancestor span of the
    same function, so recursion is not counted twice; self_s sums every
    span's duration minus the time its direct child spans cover. Parents
    precede their children in the dump.
    """
    with open(path) as f:
        header = json.loads(f.readline())
        names = header["names"]
        calls, busy, self_ns, childless = ([0] * len(names) for _ in range(4))
        calls_under: dict = {}  # (name, parent's name) -> CALL spans
        name_at, kind_at, has_child = array("i"), array("b"), bytearray()
        ancestors: list[int] = []  # per span, bitmask of the names above it
        for line in f:
            nm, start, end, parent, kind = map(int, line.split())
            dur = end - start
            mask = 0
            if parent >= 0:
                pn = name_at[parent]
                mask = ancestors[parent] | (1 << pn)
                self_ns[pn] -= dur
                has_child[parent] = 1
                if kind == CALL:
                    calls_under[(nm, pn)] = calls_under.get((nm, pn), 0) + 1
            name_at.append(nm)
            kind_at.append(kind)
            has_child.append(0)
            ancestors.append(mask)
            self_ns[nm] += dur
            if kind == CALL:
                calls[nm] += 1
            if not (mask >> nm) & 1:
                busy[nm] += dur
    for i, nm in enumerate(name_at):
        if kind_at[i] == CALL and not has_child[i]:
            childless[nm] += 1
    out = {name: {"calls": calls[k], "busy_s": busy[k] / 1e9, "self_s": self_ns[k] / 1e9,
                  "childless_calls": childless[k]}
           for k, name in enumerate(names)}
    ix = {name: k for k, name in enumerate(names)}
    out["priors.PriorTables.exact_value"]["policy_value_misses"] = calls_under.get(
        (ix["mdp.policy_value"], ix["priors.PriorTables.exact_value"]), 0)
    return {"functions": out, "counters": header["counters"],
            "binding_sites": header["binding_sites"]}
