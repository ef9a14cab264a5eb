"""Checks on the package source itself."""

import ast
import re
import sys
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
# the standard library and the package itself
IMPORTABLE = sys.stdlib_module_names | {"__future__", "twpw"}


def foreign_imports(source: str) -> list[str]:
    """Each module the source imports, anywhere in it, whose top-level
    package is outside IMPORTABLE, as "line: module"; a relative import is
    the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {m}" for m in modules if m.split(".")[0] not in IMPORTABLE]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    # the package has no runtime dependency; networkx is a test extra
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_imports_are_found():
    source = (
        "import os.path, networkx as nx\n"
        "from __future__ import annotations\n"
        "from . import graphs\n"
        "from twpw.graphs import Graph\n"
        "def interop():\n"
        "    from networkx.generators import atlas\n"
    )
    assert foreign_imports(source) == ["1: networkx", "6: networkx.generators"]


def public_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module's top-level functions whose names do not start with _."""
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


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


def test_every_public_function_has_a_user():
    # a public function that the package does not call and that neither the
    # benchmark nor the README names is API that only the tests use; a
    # re-export in __init__ is not a use
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    named = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in named)
    unused = []
    for name, tree in trees.items():
        elsewhere = set().union(*(referenced_names(t) for n, t in trees.items() if n != name))
        for fn in public_functions(tree):
            if (fn.name not in elsewhere | referenced_names(tree, skip=fn)
                    and not re.search(rf"\b{fn.name}\b", text)):
                unused.append(f"{name}::{fn.name}")
    assert unused == []


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


def stray_kind_literals(source: str) -> list[str]:
    """Each string literal naming a product kind (a key of the module's
    _PRODUCT_RULES table) outside that table's keys, as "where: kind",
    where is the enclosing top-level function or <module>."""
    tree = ast.parse(source)
    keys = next(node.value.keys for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_PRODUCT_RULES"])
    kinds = {key.value for key in keys}
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        found += [f"{where}: {node.value}" for node in ast.walk(top)
                  if isinstance(node, ast.Constant) and node.value in kinds
                  and not any(node is key for key in keys)]
    return found


def test_product_rules_are_written_once():
    # the rule table defines every product kind; the one other mention is
    # the kind that carries a decomposition
    source = (SRC / "binary.py").read_text(encoding="utf-8")
    assert stray_kind_literals(source) == ["product: lexicographic"]


def test_stray_kind_literals_are_found():
    source = (
        "_PRODUCT_RULES = {'cartesian': None, 'normal': None}\n"
        "SPARSE = ('cartesian',)\n"
        "def edges(kind):\n"
        "    if kind == 'normal':\n"
        "        return 'tensor'\n"
    )
    assert stray_kind_literals(source) == ["<module>: cartesian", "edges: normal"]


def package_imports(source: str) -> list[str]:
    """Each twpw module the source imports, or imports a name from,
    anywhere in it, as "line: module"; in ``from . import x`` and
    ``from twpw import x``, x is the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name.removeprefix("twpw.") for a in node.names
                       if a.name.startswith("twpw.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "twpw":
                    continue
                module = module.removeprefix("twpw").lstrip(".")
            modules = [module] if module else [a.name for a in node.names]
        else:
            continue
        found += [f"{node.lineno}: {m.split('.')[0]}" for m in modules]
    return found


def test_minors_imports_nothing_from_unary():
    # a minor script replays the steps of graphs.py; routed through unary,
    # each replayed step would be a traced operation and a second copy of
    # the step's checks
    source = (SRC / "minors.py").read_text(encoding="utf-8")
    assert [m for m in package_imports(source) if m.endswith(": unary")] == []


def test_package_imports_are_found():
    source = (
        "import os, twpw.unary\n"
        "from . import unary, graphs\n"
        "from .unary import delete_vertex\n"
        "from twpw import minors\n"
        "from twpw.graphs import Graph\n"
        "from networkx import Graph\n"
        "def replay():\n"
        "    from .unary import add_edge\n"
    )
    assert package_imports(source) == [
        "1: unary", "2: unary", "2: graphs", "3: unary", "4: minors", "5: graphs", "8: unary"]


def calls_outside(source: str, names: set[str], owner: str) -> list[str]:
    """Each call of a name in names, plain or as an attribute, outside the
    top-level function owner, as "line: name" in line order."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == owner
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_harness_builds_every_check_in_one_place():
    # one builder makes each check and writes each witness bundle, so a
    # change to either touches one function
    source = (SRC / "harness.py").read_text(encoding="utf-8")
    assert calls_outside(source, {"BoundCheck", "_write_witness"}, "_check") == []


def test_calls_outside_are_found():
    source = (
        "def _check(name):\n"
        "    return BoundCheck(name, _write_witness(name))\n"
        "def suite():\n"
        "    checks = [harness.BoundCheck('a')]\n"
        "    def inner():\n"
        "        _write_witness('b')\n"
        "    return _check('c')\n"
        "EMPTY = BoundCheck('d')\n"
    )
    assert calls_outside(source, {"BoundCheck", "_write_witness"}, "_check") == [
        "4: BoundCheck", "6: _write_witness", "8: BoundCheck"]


def tree_reads(source: str) -> list[str]:
    """Each read of an attribute named tree, as "line: tree" in line order."""
    return [f"{line}: tree" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "tree")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "decomposition.py"],
                         ids=lambda p: p.name)
def test_only_decomposition_reads_the_tree(path):
    # a tree-decomposition stores its bags and its rooting, and derives its
    # tree from them; a builder or carrier outside decomposition.py that
    # read the tree would build a Graph the rooting already describes
    assert tree_reads(path.read_text(encoding="utf-8")) == []


def test_tree_reads_are_found():
    source = (
        "tree = d.bags\n"
        "def graft(d, p):\n"
        "    top = min(p.tree.vertices)\n"
        "    return d.trees, tree_to_path(d), d.tree\n"
        "nodes = sorted(getattr(d, 'tree').edges) + [x.tree.n for x in ds]\n"
    )
    assert tree_reads(source) == ["3: tree", "4: tree", "5: tree"]
