"""Every public top-level function and class of ``src/ielab`` is named
somewhere besides its own definition and the package's re-export: in the
program, the tests, the demos or the benchmark. The files are parsed and
searched as text, read-only, so nothing is imported or compiled next to
them."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ielab"
SEARCHED = ("src", "tests", "demos", "perfbench")


def public_definitions() -> list[tuple[Path, str]]:
    """(module, name) of every public top-level function and class."""
    out = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((module, node.name))
    return out


def test_public_names_are_used():
    # __init__.py only re-exports, so its mentions are not uses
    texts = [path.read_text() for folder in SEARCHED
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path != PACKAGE / "__init__.py"]
    unused = []
    for module, name in public_definitions():
        word = re.compile(rf"\b{name}\b")
        if sum(len(word.findall(text)) for text in texts) <= 1:  # the definition
            unused.append(f"{module.stem}.{name}")
    assert not unused, f"public names nothing uses: {unused}"
