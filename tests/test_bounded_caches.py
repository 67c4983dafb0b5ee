"""Every memo in the package is bounded: each ``functools.lru_cache`` names
a positive integer ``maxsize``, and ``functools.cache`` (unbounded) is not
used.  The caches live as long as the process, so an unbounded one would
grow with every distinct argument a long-running caller passes.  The
README's list of process-wide memos names exactly the memoized functions,
and its paragraph on per-configuration work names exactly the cached
properties of ``PointSet``, so neither can be added or dropped without
its line there."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acmpts"
MEMOS = ("lru_cache", "cache")


def memo_uses(tree):
    """(name, node, parent) for each reference to a functools memo decorator."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in MEMOS
        ):
            yield node.attr, node, parents.get(node)
        elif isinstance(node, ast.Name) and imported.get(node.id) in MEMOS:
            yield imported[node.id], node, parents.get(node)


def bounded(name, node, parent):
    if name != "lru_cache" or not (isinstance(parent, ast.Call) and parent.func is node):
        return False
    sizes = [k.value for k in parent.keywords if k.arg == "maxsize"] + parent.args[:1]
    return (
        len(sizes) == 1
        and isinstance(sizes[0], ast.Constant)
        and type(sizes[0].value) is int
        and sizes[0].value > 0
    )


def test_every_lru_cache_has_a_finite_maxsize():
    uses = [
        (path.name, node.lineno, bounded(name, node, parent))
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node, parent in memo_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert len(uses) >= 5
    assert [(name, line) for name, line, ok in uses if not ok] == []


def test_the_guard_flags_unbounded_memos():
    source = """
import functools
from functools import lru_cache as memo, cache

@functools.lru_cache(maxsize=None)
def a(x): return x

@functools.lru_cache
def b(x): return x

@memo(None)
def c(x): return x

@cache
def d(x): return x

@functools.cache
def e(x): return x

@functools.lru_cache(maxsize=64)
def f(x): return x

@memo(16)
def g(x): return x
"""
    verdicts = [bounded(*use) for use in memo_uses(ast.parse(source))]
    assert sorted(verdicts) == [False] * 5 + [True] * 2


def memoized_functions():
    """``module.function`` for each function a memo decorates, and the
    number of memo references found, decorators or not."""
    names, uses = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = [(node, parent) for _, node, parent in memo_uses(tree)]
        uses += len(found)
        memo_nodes = {id(n) for pair in found for n in pair}
        names += [
            f"{path.stem}.{fn.name}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(id(d) in memo_nodes for d in fn.decorator_list)
        ]
    return names, uses


def test_readme_lists_every_memo():
    names, uses = memoized_functions()
    assert len(names) == uses  # every memo is a decorator, so it has a name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("The process-wide memos")
    section = readme[start : readme.index("\n## ", start)]
    listed = re.findall(r"^\* `(\w+\.\w+)`", section, flags=re.M)
    assert sorted(listed) == sorted(names)


def point_set_cached_properties():
    """The names of the ``functools.cached_property`` attributes of ``PointSet``."""
    tree = ast.parse((PACKAGE / "grid_model.py").read_text(encoding="utf-8"))
    (cls,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "PointSet"]
    cached = ("functools.cached_property", "cached_property")
    return [
        fn.name
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and any(ast.unparse(d) in cached for d in fn.decorator_list)
    ]


def test_readme_lists_every_point_set_cached_property():
    names = point_set_cached_properties()
    assert names  # the paragraph is checked against something
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("Work that belongs to one configuration")
    paragraph = readme[start : readme.index("\n\n", start)]
    listed = re.findall(r"`PointSet\.(\w+)`", paragraph)
    assert sorted(listed) == sorted(names)
