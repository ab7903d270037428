"""Every public top-level function and class of ``src/ielab`` is named
somewhere besides its own definition and the package's re-export, every
private top-level function and every method and property of a class
somewhere besides its own definition, and every field of a
``src/ielab`` dataclass is read as an attribute somewhere: in the
program, the tests, the demos or the benchmark. Every
config key the harness accepts is read by the program. The files are
parsed and searched as text, read-only, so nothing is imported or
compiled next to them."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ielab"
SEARCHED = ("src", "tests", "demos", "perfbench")


def top_level_definitions(kinds: tuple, private: bool) -> list[tuple[str, str]]:
    """(module.name, name) of every top-level definition of the given ast
    kinds whose name is private (leading underscore) or public."""
    out = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, kinds) and node.name.startswith("_") == private:
                out.append((f"{module.stem}.{node.name}", node.name))
    return out


def class_members() -> list[tuple[str, str]]:
    """(module.Class.name, name) of every method and property defined in
    the body of a ``src/ielab`` class, dunder methods aside: Python calls
    those by protocol, not by name."""
    out = []
    for module in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(module.read_text())):
            if isinstance(cls, ast.ClassDef):
                out.extend((f"{module.stem}.{cls.name}.{node.name}", node.name)
                           for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not (node.name.startswith("__") and node.name.endswith("__")))
    return out


def named_only_at_definitions(definitions: list[tuple[str, str]], texts: list[str]) -> list[str]:
    """The definitions whose name, as a word, occurs in all the texts
    together no more often than it is defined among ``definitions``: at
    its definitions only."""
    defined = Counter(name for _, name in definitions)
    # a name is all word characters, so its whole-word matches are the
    # corpus's words equal to it
    words = Counter(re.findall(r"\w+", "\n".join(texts)))
    return [label for label, name in definitions if words[name] <= defined[name]]


def searched_texts() -> dict[Path, str]:
    return {path: path.read_text() for folder in SEARCHED
            for path in sorted((ROOT / folder).rglob("*.py"))}


def test_public_names_are_used():
    # __init__.py only re-exports, so its mentions are not uses
    texts = [text for path, text in searched_texts().items()
             if path != PACKAGE / "__init__.py"]
    unused = named_only_at_definitions(
        top_level_definitions((ast.FunctionDef, ast.ClassDef), private=False), texts)
    assert not unused, f"public names nothing uses: {unused}"


def test_private_functions_are_used():
    """A private helper that nothing names but its own definition was
    left behind when its last caller went."""
    orphans = named_only_at_definitions(
        top_level_definitions((ast.FunctionDef,), private=True), list(searched_texts().values()))
    assert not orphans, f"private functions nothing uses: {orphans}"


def test_methods_and_properties_are_used():
    """A method or property that nothing names but its definition (or the
    definitions of its namesakes in other classes) is called by no one."""
    unused = named_only_at_definitions(class_members(), list(searched_texts().values()))
    assert not unused, f"methods and properties nothing uses: {unused}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def dataclass_fields() -> list[tuple[str, str]]:
    """(class, field) of every field of a dataclass in ``src/ielab``."""
    out = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out.extend((f"{module.stem}.{node.name}", item.target.id)
                           for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name))
    return out


def test_dataclass_fields_are_read():
    """A field that nothing reads as an attribute (``obj.field``, loaded)
    is written for no one. Attribute names are matched across every
    searched file, whatever the object's type."""
    read = {node.attr for folder in SEARCHED
            for path in sorted((ROOT / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for cls, name in dataclass_fields() if name not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def known_config_keys() -> set[str]:
    """Every config key some command accepts: the strings of
    ``harness._RUN_KEYS`` and of the values of ``harness._COMMAND_KEYS``."""
    keys = set()
    for node in ast.parse((PACKAGE / "harness.py").read_text()).body:
        if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id in (
                "_RUN_KEYS", "_COMMAND_KEYS") for t in node.targets)):
            values = node.value.values if isinstance(node.value, ast.Dict) else [node.value]
            keys |= {c.value for v in values for c in ast.walk(v) if isinstance(c, ast.Constant)}
    assert keys, "harness._RUN_KEYS and harness._COMMAND_KEYS not found"
    return keys


def test_config_keys_are_read():
    """A config key is read when ``src/ielab`` looks it up by its literal
    name: ``x.get("key", ...)`` or a loaded ``x["key"]``. An accepted key
    that nothing reads is silently ignored."""
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and node.args):
                key = node.args[0]
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                key = node.slice
            else:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                read.add(key.value)
    unread = sorted(known_config_keys() - read)
    assert not unread, f"config keys nothing reads: {unread}"
