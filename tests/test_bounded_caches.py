"""Every memo in the package is bounded: each ``functools.lru_cache`` names
a positive integer ``maxsize``, and ``functools.cache`` (unbounded) is not
used.  A module-level container that starts empty is filled at run time,
so it is a memo too; it must be replaced or cleared when its length
passes a positive module-level bound.  The caches live as long as the
process, so an unbounded one would grow with every distinct argument a
long-running caller passes.  The README's list of process-wide memos
names exactly the memoized functions and module-level memos, and its
paragraph on per-configuration work names exactly the cached properties
of ``PointSet``, so none can be added or dropped without its line
there."""

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


EMPTY_CONTAINERS = ("dict", "set", "list", "defaultdict", "OrderedDict", "Counter")


def starts_empty(value):
    """Whether a module-level value is an empty container display, or a
    call of a container type with no argument but a default factory."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return not getattr(value, "keys", getattr(value, "elts", None))
    if isinstance(value, ast.Call):
        name = value.func.attr if isinstance(value.func, ast.Attribute) else getattr(value.func, "id", "")
        return name in EMPTY_CONTAINERS and len(value.args) <= (name == "defaultdict") and not value.keywords
    return False


def module_memos(tree):
    """(name, node) for each module-level name bound to a container that
    starts empty."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if starts_empty(value):
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def constant_int(node, constants):
    """The value of an int expression of literals, module-level names and
    arithmetic, or None."""
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) is int else None
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult, ast.Pow, ast.LShift)):
        left, right = constant_int(node.left, constants), constant_int(node.right, constants)
        if left is None or right is None:
            return None
        return {ast.Add: left + right, ast.Mult: left * right,
                ast.Pow: left**right, ast.LShift: left << right}[type(node.op)]
    return None


def measures(node, name):
    """Whether an expression takes ``len`` of ``name`` or of values read
    from it, as ``len(name)`` or ``sum(map(len, name.values()))`` do."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return name in names and "len" in names


def memo_bounded(tree, name):
    """Whether some ``if`` that compares a length of ``name`` (``len(name)``,
    or a sum of the lengths of its values) by ``>`` or ``>=`` against a
    positive constant BOUND replaces ``name`` or clears it in its body."""
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            value = constant_int(node.value, constants)
            if value is not None:
                constants[node.targets[0].id] = value
    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
            continue
        test = node.test
        measured = (
            measures(test.left, name)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Gt, ast.GtE))
        )
        bound = constant_int(test.comparators[0], constants) if measured else None
        if bound is None or bound <= 0:
            continue
        for stmt in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == name for t in stmt.targets):
                return True
            if (
                isinstance(stmt, ast.Call)
                and isinstance(stmt.func, ast.Attribute)
                and stmt.func.attr == "clear"
                and getattr(stmt.func.value, "id", None) == name
            ):
                return True
    return False


def package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_module_level_memo_is_bounded():
    memos = [
        (path.name, name, memo_bounded(tree, name))
        for path, tree in package_trees()
        for name, _ in module_memos(tree)
    ]
    assert ("reisner_oracle.py", "_verdicts", True) in memos
    assert [(file, name) for file, name, ok in memos if not ok] == []


def test_the_guard_flags_unbounded_module_memos():
    source = """
from collections import defaultdict
BOUND = 1 << 4
TABLE = {1: "one"}
a = {}
b: dict[int, int] = {}
c = defaultdict(list)
d = {}
e = {}
f = []
g = {}
h = {}

def use():
    global a, b, d, e, g, h
    if len(a) > BOUND:
        a = {}
    if sum(map(len, h.values())) > BOUND:
        h = {}
    if len(BOUND) > 1:
        c = defaultdict(list)
    if len(b) >= 8:
        b.clear()
    if len(d) > 0:
        d = {}
    if len(e) > BOUND:
        pass
    if len(g) > UNKNOWN:
        g = {}
"""
    tree = ast.parse(source)
    verdicts = {name: memo_bounded(tree, name) for name, _ in module_memos(tree)}
    assert verdicts == {
        "a": True, "b": True, "c": False, "d": False, "e": False, "f": False, "g": False,
        "h": True,
    }


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
    names += [f"{path.stem}.{name}" for path, tree in package_trees() for name, _ in module_memos(tree)]
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
