"""The combinatorial star criterion for the ACM property on (P^1)^n grids.

Two grid points P, Q span a smallest combinatorial complete intersection
whose rational points form the coordinate box {u : u_i in {P_i, Q_i}}; it
has exactly d(P, Q) generators of degree two, where d is the Hamming
distance.  A configuration fails the star property at level s when some
box with 2 <= d(P, Q) <= s meets it in exactly its two spanning corners
(type-i, the corners lie in X) or in everything but the two spanning
corners (type-ii, the corners avoid X).  ``is_acm`` reports ACM when
neither witness kind exists at level n.  That verdict agrees with the
Reisner oracle on every subset of 2x2x2, 3x3, 2x2x3 and 3x3x2, but not on
2x2x2x2: one eight-point orbit has no witness at any level and is not
Cohen-Macaulay (``test_star_accepts_non_cm_configuration_on_2x2x2x2``).

The search is a plain scan over ordered pairs of grid cells, O((prod r_i)^2 2^n);
desk-scale grids (prod r_i <= 27) finish in milliseconds.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    BadLevel,
    DimensionMismatch,
    EmptyConfiguration,
    InternalInvariantViolation,
    PathPreconditionFailed,
)
from .grid_model import GridPoint, PointSet, grid_cells, is_int

TYPE_I = "type-i"
TYPE_II = "type-ii"


@dataclass(frozen=True)
class Witness:
    """A violating pair of box corners, with the box it spans.

    ``kind`` is TYPE_I when P, Q belong to X and the box meets X only in
    them, TYPE_II when P, Q avoid X and the box meets X in all its other
    corners.  ``s_prime`` is the Hamming distance, always >= 2.
    """

    kind: str
    P: GridPoint
    Q: GridPoint
    s_prime: int
    box: frozenset[GridPoint]


def hamming_distance(u: GridPoint, v: GridPoint) -> int:
    """Number of coordinates where two grid points differ."""
    if len(u) != len(v):
        raise DimensionMismatch(f"points {u} and {v} have different lengths")
    return sum(1 for a, b in zip(u, v) if a != b)


def combinatorial_box(P: GridPoint, Q: GridPoint) -> frozenset[GridPoint]:
    """All 2^d(P,Q) corner points {u : u_i in {P_i, Q_i}}."""
    if len(P) != len(Q):
        raise DimensionMismatch(f"points {P} and {Q} have different lengths")
    return frozenset(itertools.product(*zip(P, Q)))


def check_star(X: PointSet, s: int, exhaustive: bool = False) -> tuple[bool, list[Witness]]:
    """Decide the star property at level s; return (verdict, witnesses).

    The verdict is True exactly when no witness exists for any distance
    s' with 2 <= s' <= s.  Candidate corners range over the whole dims
    grid: for a type-ii witness every other box corner must lie in X, so
    the corners' coordinates are automatically levels of X.  Pairs are
    scanned in lexicographic order, so the first witness reported is the
    lexicographically least one; with ``exhaustive`` every witness is
    collected.
    """
    if X.size == 0:
        raise EmptyConfiguration("star property needs a nonempty configuration")
    if not is_int(s) or not 2 <= s <= X.n:
        raise BadLevel(f"star level {s!r} outside 2..{X.n}")
    pts = X.points
    cells = grid_cells(X.dims)
    witnesses: list[Witness] = []
    for a, P in enumerate(cells):
        p_in = P in pts
        for Q in cells[a + 1 :]:
            if (Q in pts) != p_in:
                continue
            d = hamming_distance(P, Q)
            if d < 2 or d > s:
                continue
            box = combinatorial_box(P, Q)
            met = box & pts
            if p_in:
                if len(met) == 2:  # met == {P, Q}
                    witnesses.append(Witness(TYPE_I, P, Q, d, box))
            else:
                if len(met) == len(box) - 2:  # met == box minus the corners
                    witnesses.append(Witness(TYPE_II, P, Q, d, box))
            if witnesses and not exhaustive:
                return False, witnesses
    return not witnesses, witnesses


@functools.lru_cache(maxsize=128)
def _star_holds(X: PointSet, s: int) -> bool:
    """The star verdict at level s, cached for the 128 most recent (X, s).

    ``is_acm`` and ``find_path``'s precondition both read it, so they share
    one ``check_star`` run per (X, s).  Only booleans are stored; an
    exception from ``check_star`` propagates and is not cached.
    ``check_star`` is looked up as a module global at each miss, so a
    wrapper installed on the module sees every call.
    """
    return check_star(X, s)[0]


def is_acm(X: PointSet) -> bool:
    """ACM verdict: the cached star property at level n (true for n = 1)."""
    if X.size == 0:
        raise EmptyConfiguration("ACM verdict needs a nonempty configuration")
    return X.n == 1 or _star_holds(X, X.n)


def find_path(X: PointSet, P: GridPoint, Q: GridPoint, s: int) -> list[GridPoint]:
    """A unit-step chain from P to Q through X inside their box.

    Requires X to satisfy the star property at level s, P, Q in X and
    d(P, Q) <= s; then a chain u_0 = P, ..., u_r = Q with r = d(P, Q),
    every u_k in X inside the box and consecutive Hamming distance 1 is
    guaranteed to exist.  The star precondition is read from the cache
    behind ``is_acm`` (``_star_holds``), so the pairs of one configuration
    and its ACM verdict share one ``check_star`` run per level; a
    configuration that fails it raises on every call, even when a chain
    exists.
    Breadth-first search over the flips of one coordinate where P and Q
    differ, taken in lexicographic order, returns one deterministically;
    failure to find a chain of exactly r steps would contradict the
    guarantee and aborts loudly.
    """
    if P not in X.points or Q not in X.points:
        raise PathPreconditionFailed("both endpoints must lie in X")
    r = hamming_distance(P, Q)
    if r == 0:
        return [P]
    if r == 1:
        return [P, Q]
    if not is_int(s) or not 2 <= s <= X.n:
        raise PathPreconditionFailed(f"star level {s!r} outside 2..{X.n}")
    if r > s:
        raise PathPreconditionFailed(f"d(P,Q) = {r} exceeds s = {s}")
    if not _star_holds(X, s):
        raise PathPreconditionFailed(f"configuration fails the star property at level {s}")

    flips = [i for i, (a, b) in enumerate(zip(P, Q)) if a != b]
    parent: dict[GridPoint, GridPoint | None] = {P: None}
    queue: deque[GridPoint] = deque([P])
    while queue:
        u = queue.popleft()
        if u == Q:
            break
        steps = sorted(u[:i] + (P[i] if u[i] == Q[i] else Q[i],) + u[i + 1 :] for i in flips)
        for v in steps:
            if v in X.points and v not in parent:
                parent[v] = u
                queue.append(v)
    if Q not in parent:
        raise InternalInvariantViolation(
            f"no chain from {P} to {Q} inside the box; star guarantee violated"
        )
    path: list[GridPoint] = []
    at: GridPoint | None = Q
    while at is not None:
        path.append(at)
        at = parent[at]
    path.reverse()
    if len(path) != r + 1:
        raise InternalInvariantViolation(
            f"shortest chain from {P} to {Q} has {len(path) - 1} steps, expected {r}"
        )
    return path
