"""The only float literal in ``src/ielab`` with 0 < |v| < 1e-6 is
``GREEDY_TIE_TOL``, whose comment says why it stays. A new float
tolerance fails here until its reason is written beside it and added
below. The files are parsed as text, read-only, so nothing is imported
or compiled next to them."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ielab"


def tiny_float_literals() -> list[tuple[str, str | None, float]]:
    """(module, the name it is assigned to or None, value) of every float
    literal in the package with 0 < |value| < 1e-6."""
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        named = {node.value: node.targets[0].id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)}
        found += [(module.stem, named.get(node), node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < abs(node.value) < 1e-6]
    return found


def test_greedy_tie_tol_is_the_only_tiny_float():
    assert tiny_float_literals() == [("priors", "GREEDY_TIE_TOL", 1e-9)]
