"""The benchmark's span tracer (perfbench/tracing.py) must find every
function it wraps, so that renaming or deleting a traced function fails
here and not in the traced benchmark run. The tracer is loaded read-only,
without writing bytecode next to it."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(tracing):
    missing = []
    for name, modname, path in tracing.TARGETS:
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(name)
    assert not missing, f"traced functions missing from ielab: {missing}"


def test_tracer_installs_and_uninstalls(tracing):
    import ielab.cli  # noqa: F401  (loads every module the CLI binds)
    from ielab import mdp

    original = mdp.enumerate_trajectories, Fraction.__mul__
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert mdp.enumerate_trajectories is not original[0]
    finally:
        tracer.uninstall()
    assert set(tracer.binding_sites) == {name for name, _, _ in tracing.TARGETS}
    assert (mdp.enumerate_trajectories, Fraction.__mul__) == original
