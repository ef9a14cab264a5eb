"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twpw"
# the package's __init__ imports names to export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order; the
    ``from __future__ import annotations`` switch is not a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ROOT = SRC.parent.parent
OPERATION_MODULES = ("unary.py", "binary.py")


def public_functions(source: str) -> list[str]:
    """The module's top-level functions whose names do not start with _."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


@pytest.mark.parametrize("name", OPERATION_MODULES)
def test_operation_modules_keep_no_public_helper(name):
    # every public function of these modules is timed as an operation, so
    # one that nothing outside its module names is a helper counted as one
    elsewhere = [p for p in MODULES if p.name != name]
    elsewhere += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    elsewhere.append(ROOT / "README.md")
    text = "\n".join(p.read_text(encoding="utf-8") for p in elsewhere)
    unnamed = [f for f in public_functions((SRC / name).read_text(encoding="utf-8"))
               if not re.search(rf"\b{f}\b", text)]
    assert unnamed == []


def private_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module's top-level functions whose names start with one _."""
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")]


def referenced_names(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names the module reads, attributes it looks up and names it
    imports, outside the node skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_private_function_is_used():
    # a helper that nothing in the package names is dead code, such as one
    # a rewrite left behind
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    dead = []
    for name, tree in trees.items():
        elsewhere = set().union(*(referenced_names(t) for n, t in trees.items() if n != name))
        for fn in private_functions(tree):
            if fn.name not in elsewhere | referenced_names(tree, skip=fn):
                dead.append(f"{name}::{fn.name}")
    assert dead == []


# a width table kept at module level, or in a cached function, would
# outlive the harness run that filled it; the one cache allowed holds the
# command line parser
CACHES = ("cache", "lru_cache")
ALLOWED_CACHE = ("cli.py", "_build_parser")


def lasting_state(name: str, source: str) -> list[str]:
    """Each global statement and each use of functools.cache or lru_cache
    in the module, as "line: what", except the cache on ALLOWED_CACHE."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (name, node.name) == ALLOWED_CACHE:
            allowed.update(id(sub) for dec in node.decorator_list for sub in ast.walk(dec))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append((node.lineno, f"global {', '.join(node.names)}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"
              and id(node) not in allowed):
            found.append((node.lineno, f"functools.{node.attr}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_state_outlives_a_call(path):
    assert lasting_state(path.name, path.read_text(encoding="utf-8")) == []


def test_lasting_state_is_found():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "TABLE = {}\n"
        "def fill():\n"
        "    global TABLE\n"
        "@functools.cache\n"
        "def _build_parser(): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def solve(g): pass\n"
    )
    assert lasting_state("cli.py", source) == [
        "2: import lru_cache", "5: global TABLE", "8: functools.lru_cache"]
    assert lasting_state("exact.py", source)[-2:] == [
        "6: functools.cache", "8: functools.lru_cache"]
