"""The combinatorial star criterion for the ACM property on (P^1)^n grids.

Two grid points P, Q span a smallest combinatorial complete intersection
whose rational points form the coordinate box {u : u_i in {P_i, Q_i}}; it
has exactly d(P, Q) generators of degree two, where d is the Hamming
distance.  A configuration fails the star property at level s when some
box with 2 <= d(P, Q) <= s meets it in exactly its two spanning corners
(type-i, the corners lie in X) or in everything but the two spanning
corners (type-ii, the corners avoid X).  ``is_acm`` reports ACM when
neither witness kind exists at level n.  That verdict agrees with the
Reisner oracle on every subset of 2x2x2, 3x3, 2x2x3 and 3x3x2, and on
all 134217727 subsets of 3x3x3 (518851 of them ACM; ``acmpts enumerate
--grid 3,3,3`` exits 0), but not on 2x2x2x2: one eight-point orbit has
no witness at any level and is not Cohen-Macaulay
(``test_star_accepts_non_cm_configuration_on_2x2x2x2``).  On 3x2x2x2,
``acmpts enumerate`` finds 158137 of the 16777215 subsets ACM and 504
with star=True but reisner=False, and exits 1.

Both the search and ``find_path`` work on cell bitmasks, in the cell
numbering of ``grid_model.cell_table`` (lexicographic, so index order is
tuple order); X is its ``PointSet.cell_mask``.  ``find_path`` finds the
cell of an endpoint that is one of X's own point objects through
``PointSet.own_cells``, without checking its coordinates again.  The
ordered pairs of cells at distance >= 2, each with the mask of its box,
are tabulated once per dims (``_pair_table``): O((prod r_i)^2 n)
operations on (prod r_i)-bit masks, kept as O((prod r_i)^2) entries, so
the table's memory grows about as (prod r_i)^3.  A check is then one
popcount of ``box & mask`` per pair (``_witness_pairs``).  Desk-scale
grids (prod r_i <= 27) finish in milliseconds.  ``acmpts check`` on k
diagonal points of the k x k x k grid peaks at 19.6 MB of resident
memory for k = 6, 40.7 MB for k = 8, 133 MB for k = 10 and 463.5 MB for
k = 12.

``is_acm`` and the star precondition of ``find_path`` read the verdict
of that scan, run once per level and kept on X
(``PointSet.star_levels``), the package's one star memo.  They build no
``Witness``.  ``check_star`` reports witnesses, for ``acmpts check`` and
the tests, and writes its verdict to the same memo, so an ``is_acm``
after it at level n does not scan again.

The scan needs no canonical form.  A witness touches only levels that X
uses: for type i, P and Q lie in X; for type ii, in each direction where
P and Q differ, the corner that takes P's level there and Q's elsewhere
is neither P nor Q (d >= 2), so it lies in X, and likewise with P and Q
swapped, while every corner has the levels they share.  Dropping unused
levels keeps the lexicographic cell order, so a subset scanned on a grid
it does not fill (a sub-configuration on its parent's grid, a shadow on
the grid without one direction) has the verdict and the witnesses of
its canonical form.  ``acm_on_grid`` is that verdict on a cell mask;
``level_structure`` and the harness behind ``acmpts enumerate`` read
it, with no PointSet.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    BadLevel,
    DimensionMismatch,
    EmptyConfiguration,
    InternalInvariantViolation,
    PathPreconditionFailed,
)
from .grid_model import GridPoint, PointSet, cell_table, grid_cells, is_int, is_point, level_masks

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


def _check_pair(P: object, Q: object) -> None:
    """Both points are tuples of int levels, of one length."""
    for u in (P, Q):
        if not is_point(u):
            raise BadLevel(f"grid point {u!r} is not a tuple of int levels")
    if len(P) != len(Q):
        raise DimensionMismatch(f"points {P} and {Q} have different lengths")


def hamming_distance(u: GridPoint, v: GridPoint) -> int:
    """Number of coordinates where two grid points differ."""
    _check_pair(u, v)
    return sum(1 for a, b in zip(u, v) if a != b)


def combinatorial_box(P: GridPoint, Q: GridPoint) -> frozenset[GridPoint]:
    """All 2^d(P,Q) corner points {u : u_i in {P_i, Q_i}}."""
    _check_pair(P, Q)
    return frozenset(itertools.product(*zip(P, Q)))


@functools.lru_cache(maxsize=32)
def _pair_table(dims: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """(d, a, b, box) for every pair of cells a < b at distance d >= 2, in
    lexicographic order of (a, b); box is the mask of the pair's box.
    Cached for 32 dims.

    The box of P and Q is the set of cells whose level in each direction i
    is P_i or Q_i, so its mask is the AND over directions of the masks of
    those one or two level slabs (``grid_model.level_masks``).  Each row
    (one P, every Q) is built one direction at a time, keeping Q in cell
    order."""
    directions = level_masks(dims)
    table = []
    for a, P in enumerate(grid_cells(dims)):
        row = [(0, -1)]  # (distance, box mask) for each prefix of Q so far
        for slabs, p in zip(directions, P):
            own = slabs[p - 1]
            steps = [(slab != own, own | slab) for slab in slabs]
            row = [(d + e, box & mask) for d, box in row for e, mask in steps]
        table += [(d, a, b, box) for b, (d, box) in enumerate(row[a + 1 :], a + 1) if d >= 2]
    return tuple(table)


def _witness_pairs(dims: tuple[int, ...], mask: int, s: int) -> Iterator[tuple[int, int, int, int]]:
    """(d, a, b, 1 for type i or 0 for type ii) for each witness pair a < b
    at distance 2 <= d <= s of the subset with cell mask ``mask`` of the
    dims grid, in lexicographic order of (a, b).  The subset need not use
    every level of the grid: a witness touches only levels it uses
    (module docstring)."""
    for d, a, b, box in _pair_table(dims):
        if d > s or (p_in := mask >> a & 1) != mask >> b & 1:
            continue
        # box & mask is {P, Q} (type-i) or the box minus {P, Q} (type-ii)
        if (box & mask).bit_count() == (2 if p_in else (1 << d) - 2):
            yield d, a, b, p_in


def check_star(X: PointSet, s: int, exhaustive: bool = False) -> tuple[bool, list[Witness]]:
    """Decide the star property at level s; return (verdict, witnesses).

    The verdict is True exactly when no witness exists for any distance
    s' with 2 <= s' <= s.  Candidate corners range over the whole dims
    grid: for a type-ii witness every other box corner must lie in X, so
    the corners' coordinates are automatically levels of X.  Pairs are
    scanned in lexicographic order, so the first witness reported is the
    lexicographically least one; with ``exhaustive`` every witness is
    collected.  The verdict is kept in ``X.star_levels``, the memo that
    ``is_acm`` and ``find_path`` read, so ``acmpts check`` scans each
    level once.
    """
    if X.size == 0:
        raise EmptyConfiguration("star property needs a nonempty configuration")
    if not is_int(s) or not 2 <= s <= X.n:
        raise BadLevel(f"star level {s!r} outside 2..{X.n}")
    cells = cell_table(X.dims)[0]
    witnesses: list[Witness] = []
    for d, a, b, p_in in _witness_pairs(X.dims, X.cell_mask, s):
        P, Q = cells[a], cells[b]
        witnesses.append(Witness(TYPE_I if p_in else TYPE_II, P, Q, d, combinatorial_box(P, Q)))
        if not exhaustive:
            break
    X.star_levels[s] = not witnesses
    return not witnesses, witnesses


def acm_on_grid(dims: tuple[int, ...], mask: int) -> bool:
    """The ACM verdict of ``is_acm`` for the nonempty subset with cell mask
    ``mask`` of the dims grid, which need not use every level: a witness
    touches only levels the subset uses, and the lexicographic cell order
    survives dropping unused levels, so the subset has the verdict of its
    canonical form.  Nothing is cached."""
    return len(dims) == 1 or next(_witness_pairs(dims, mask, len(dims)), None) is None


def _star_verdict(X: PointSet, s: int) -> bool:
    """The star verdict of X at level s, from one scan of its cell mask
    per level, kept in ``X.star_levels``.  No ``Witness`` is built."""
    levels = X.star_levels
    if s not in levels:
        levels[s] = next(_witness_pairs(X.dims, X.cell_mask, s), None) is None
    return levels[s]


def is_acm(X: PointSet) -> bool:
    """ACM verdict: the star property at level n (true for n = 1), kept on X."""
    if X.size == 0:
        raise EmptyConfiguration("ACM verdict needs a nonempty configuration")
    return X.n == 1 or _star_verdict(X, X.n)


def find_path(X: PointSet, P: GridPoint, Q: GridPoint, s: int) -> list[GridPoint]:
    """A unit-step chain from P to Q through X inside their box.

    Requires P, Q in X, given as tuples of n ints, and a star level s in
    2..n (exactly 1 when n = 1, where no star level exists and every pair
    is at distance at most 1).  When d(P, Q) >= 2 it further requires
    d(P, Q) <= s and X to satisfy the star property at level s; then a
    chain u_0 = P, ..., u_r = Q with r = d(P, Q), every u_k in X inside
    the box and consecutive Hamming distance 1 is guaranteed to exist.
    The star precondition is the verdict ``is_acm`` reads: one scan of
    X's cell mask per level, kept on X (``PointSet.star_levels``), so the
    pairs of one configuration and its ACM verdict share one scan per
    level, and later calls look it up without hashing X.  A configuration
    that fails it raises on every call, even when a chain exists.

    An endpoint that is one of the very tuples X stores (from
    ``X.points`` or ``X.sorted_points()``) was checked when X was built,
    so its cell index comes from ``X.own_cells`` by identity.  Any other
    endpoint, an equal copy included, is checked in full: a tuple of n
    ints, not bools, that is a point of X.  ``(True, 1, 1)`` equals
    ``(1, 1, 1)`` and hashes like it, which is why a lookup by value
    cannot stand in for the check.

    A shortest chain moves each coordinate where P and Q differ once,
    from P's level to Q's, and moving coordinate i changes the cell index
    by the same step (Q_i - P_i) * stride_i from every corner of the box.
    Under the star property at level s >= d(P, Q), from every point u of
    X in the box some move toward Q stays in X.  Otherwise the point
    w != u of X in box(u, Q) nearest to u has d(u, w) >= 2 and box(u, w)
    meets X only in u and w (a point of that box other than w is nearer
    to u), a type-i witness at level <= s.  So the walk is greedy: from
    P, take the least remaining step whose cell lies in X, until none is
    left.  It cannot get stuck, and because a chain continues from every
    point it reaches, its steps form the lexicographically least sequence
    among the chains that stay in X.  Both invariant checks stay: a stuck
    walk means the star verdict it relied on was wrong, and a chain
    without exactly r steps means the walk itself is; either aborts
    loudly instead of returning a wrong chain.
    """
    own = X.own_cells
    at_p, at_q = own.get(id(P)), own.get(id(Q))
    (cells, index, strides), mask = cell_table(X.dims), X.cell_mask
    if at_p and at_q and at_p[0] is P and at_q[0] is Q:
        a, b = at_p[1], at_q[1]
    else:
        if not (is_point(P) and is_point(Q) and len(P) == len(Q) == X.n):
            bad = Q if is_point(P) and len(P) == X.n else P
            raise PathPreconditionFailed(f"endpoint {bad!r} is not a tuple of {X.n} ints")
        a, b = index.get(P), index.get(Q)
        if a is None or b is None or not (mask >> a & 1 and mask >> b & 1):
            raise PathPreconditionFailed("both endpoints must lie in X")
    low = min(2, X.n)
    if not is_int(s) or not low <= s <= X.n:
        raise PathPreconditionFailed(f"star level {s!r} outside {low}..{X.n}")
    steps = sorted((q - p) * stride for p, q, stride in zip(P, Q, strides) if p != q)
    r = len(steps)
    if r > s:
        raise PathPreconditionFailed(f"d(P,Q) = {r} exceeds s = {s}")
    if r >= 2 and not _star_verdict(X, s):
        raise PathPreconditionFailed(f"configuration fails the star property at level {s}")
    path = [P]
    at = a
    while steps:
        for step in steps:
            if mask >> (at + step) & 1:
                break
        else:
            raise InternalInvariantViolation(
                f"no chain from {P} to {Q} inside the box; star guarantee violated"
            )
        steps.remove(step)
        at += step
        path.append(cells[at])
    if len(path) != r + 1:
        raise InternalInvariantViolation(
            f"shortest chain from {P} to {Q} has {len(path) - 1} steps, expected {r}"
        )
    return path
