"""Multigraded Hilbert functions by evaluation-matrix rank, and first
differences with the full inclusion-exclusion convention.

The degree-t piece of the coordinate ring has the monomial basis
prod_i x_{i,0}^{a_i} x_{i,1}^{t_i - a_i} with 0 <= a_i <= t_i.  Assigning
level j of direction i the affine point [j : 1] turns evaluation into the
integer matrix with row prod_i (p_i)^{a_i} per point p, and h_X(t) is its
rank over the rationals.  Ranks are computed exactly; degrees stay small,
so entries stay modest.

Saturation: if coordinate i takes d_i distinct values on the points, then
h_X(t) = h_X(min(t, d - 1)) componentwise.  The column space of the
degree-t matrix is spanned by the functions p -> prod_i f_i(p_i) with f_i
a polynomial of degree <= t_i restricted to the d_i nodes of coordinate
i, and by Lagrange interpolation on those nodes every function on them is
such a polynomial once t_i >= d_i - 1.  Raising t_i further leaves the
column space, hence the rank, unchanged; this is exact for any distinct
integer nodes, compressed or not.

Tables and identity checks rank every clamped degree of a box in one
pass per point set.  An identity check (``shifted_sum_identity``)
compares its sides only on the box clamped to where every term has
saturated, which has the verdict of the whole box.  The pass evaluates
the Newton basis in place of the monomials: with x_0 < x_1 < ... the
distinct nodes of coordinate i,
N_a(x) = prod_{k<a} (x - x_k) is monic of degree a, so N_0, ..., N_t
span the same polynomials as 1, x, ..., x^t for every t.  Each degree
therefore has exactly the column space, and the rank, of its monomial
matrix, on gapped or negative nodes too.  N_a vanishes on the first a
nodes, so column a is zero at every point whose coordinate i is one of
the first a_i nodes, for some i: the columns are sparse, and on a full
grid the matrix is triangular.

The pass walks the clamped degrees 0 <= k <= caps depth first, raising
one coordinate per step, never one before the coordinate raised last,
so every degree is reached by exactly one path.  A step from k to
k + e_d adds only the new slab of columns (a_d = k_d + 1, a <= k
elsewhere) to one echelon basis with ``linalg.echelon_insert``, which
keeps a column if anything is left after reduction.  The basis size is
the rank at k + e_d.  Columns and ranks are flat lists in lexicographic
order of the degree.  The walk's order depends on the caps alone, so a
second memo, ``_plan``, keeps it per caps tuple as (k, parent, slab)
entries, and every walk on those caps reads its columns by position
from there: 26 distinct caps serve the 930 walks of a seed-42
``hilbert_tables`` pass, 625 of them on (2, 2, 2).  Inserting never
changes a vector already in the basis, and the basis is a dict in
insertion order, so going back up the walk pops the basis down to the
size it had at the parent, which is the parent's rank.  Once the basis
has one vector per point, no column can add to it and the rest of the
subtree inserts nothing.  Each Newton column is packed once per walk
into one integer (see ``linalg``); its entries are >= 0, since the
nodes ascend.  Should a vector outgrow the field width, the walk is
packed wider and run again from the start.  A seed-42 pass inserts
54364 columns with 70067 reduction steps and never widens.

A walk depends only on the points and its caps, so one bounded memo,
``_walk``, keeps 128 walks keyed on (points, caps): the sorted tuple of
distinct raw points, never their canonical form, since h changes under
level relabeling from four levels on, and the caps, which are the box's
corner clamped to the number of distinct values minus 1 in each
coordinate.  A term h(t - shift) is walked at the box's caps, not at
box - shift; h saturates there either way.  So the layer identity's
base term X, ranked on a box that clamps to the same caps as X's Δ table
box, costs no second walk.

``evaluation_rank`` is the per-degree reference: it builds the monomial
basis and one evaluation matrix per degree, with no Newton columns,
slabs, walk or truncation, and hands the matrix to ``rank_int``.  That
checks everything the walk adds on top of elimination, but not the
elimination itself, which both reach through ``echelon_insert``; the
tests compare that step with elimination over Fractions separately.

The first difference is the alternating sum of h_X over all 2^n unit
down-shifts, with h identically zero at any negative degree; this
convention is what reproduces additivity under liaison addition.  It is
computed as n one-direction differences, one pass per direction over
the flat list of the table's values.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BadDegree, InputError
from .grid_model import GridPoint, MultiDegree, PointSet, cell_strides, is_int, is_point
from .linalg import Basis, Packed, echelon_insert, eliminate, rank_int


@dataclass(frozen=True)
class HilbertTable:
    """Values of h_X, or of its first differences, on the box 0 <= t <= T
    (componentwise); first differences may be negative for non-ACM
    configurations."""

    box: MultiDegree
    values: Mapping[MultiDegree, int]

    def __getitem__(self, t: Sequence[int]) -> int:
        return self.values[tuple(t)]


def _check_degree(t: Sequence[int]) -> MultiDegree:
    t = tuple(t)
    if not all(map(is_int, t)):
        raise BadDegree(f"non-integer entry in degree {t}")
    if any(ti < 0 for ti in t):
        raise BadDegree(f"negative entry in degree {t}")
    return t


def box_degrees(T: Sequence[int]) -> Iterable[MultiDegree]:
    """All multidegrees 0 <= t <= T in lexicographic order."""
    return itertools.product(*[range(Ti + 1) for Ti in _check_degree(T)])


def _nodes(points: Iterable[GridPoint], t: MultiDegree) -> list[GridPoint]:
    """The distinct points, sorted, checked against the degree's length."""
    pts = sorted(set(points))
    if any(len(p) != len(t) for p in pts):
        raise BadDegree(f"degree {t} does not match the point dimension")
    return pts


def _evaluation_rows(pts: Sequence[GridPoint], t: MultiDegree) -> list[list[int]]:
    """Degree-t evaluation matrix, columns (a_1, ..., a_n) in lexicographic order."""
    rows = []
    for p in pts:
        pows = [[x**a for a in range(ti + 1)] for x, ti in zip(p, t)]
        rows.append([math.prod(c) for c in itertools.product(*pows)])
    return rows


def evaluation_rank(points: Iterable[GridPoint], t: Sequence[int]) -> int:
    """Rank of the degree-t evaluation matrix at the given integer nodes.

    Point coordinates are used directly as evaluation nodes, so callers
    can evaluate uncompressed embeddings in a common grid; each point must
    be a tuple of ints.
    """
    t = _check_degree(t)
    points = list(points)
    for p in points:
        if not is_point(p):
            raise InputError(f"point {p!r} is not a tuple of integers")
    pts = _nodes(points, t)
    if not pts:
        return 0
    return rank_int(_evaluation_rows(pts, t))


def _newton_columns(
    pts: Sequence[GridPoint], nodes: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The Newton evaluation matrix by columns, in lexicographic order of
    a over 0 <= a_i <= len(nodes[i]): entry j of column a is
    prod_i N_{a_i}(pts[j][i]), with N_a(x) = prod_{k<a} (x - nodes[i][k])."""
    columns = [[1] * len(pts)]
    for i, xs in enumerate(nodes):
        values = [[1] * len(pts)]
        for x in xs:
            values.append([v * (p[i] - x) for v, p in zip(values[-1], pts)])
        columns = [[u * v for u, v in zip(column, vs)] for column in columns for vs in values]
    return columns


@functools.lru_cache(maxsize=32)
def _plan(caps: MultiDegree) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The walk over the degrees 0 <= k <= caps, depth first, as
    (k, parent, slab) in visiting order: the index of k, that of the
    degree it was raised from (0 for the root, which is its own parent)
    and the indices of the columns it adds.  Kept for 32 caps."""
    strides = cell_strides([cap + 1 for cap in caps])
    plan = []
    # A degree is popped only after its parent and every earlier
    # sibling's subtree.  The entry for k holds its index, the direction
    # d raised last (k is zero after d), k_d, its parent's index, the
    # columns a <= k with a_d = k_d and all columns a <= k.
    stack = [(0, 0, 0, 0, (0,), (0,))]
    while stack:
        k, d, kd, parent, slab, below = stack.pop()
        plan.append((k, parent, slab))
        for e in range(d, len(caps)):
            if e == d:
                if kd < caps[d]:
                    step = tuple(a + strides[d] for a in slab)
                    stack.append((k + strides[d], d, kd + 1, k, step, below + step))
            elif caps[e]:
                step = tuple(a + strides[e] for a in below)
                stack.append((k + strides[e], e, 1, k, step, below + step))
    return tuple(plan)


def _newton_walk(
    pts: Sequence[GridPoint], nodes: Sequence[Sequence[int]], caps: MultiDegree
) -> list[int]:
    """The ranks of every degree 0 <= k <= caps, in lexicographic order,
    from one echelon walk over the Newton columns."""
    columns = _newton_columns(pts, [xs[:cap] for xs, cap in zip(nodes, caps)])
    plan = _plan(caps)
    full = len(pts)

    def walk(basis: Basis, packed: list[Packed]) -> list[int]:
        # A degree's parent was visited before it, so the parent's rank is
        # the basis size to truncate back to before adding k's slab.
        ranks = [0] * len(packed)
        for k, parent, slab in plan:
            top = ranks[parent]
            while len(basis) > top:
                basis.popitem()
            for a in slab:
                if len(basis) == full:
                    break
                echelon_insert(basis, packed[a])
            ranks[k] = len(basis)
        return ranks

    return eliminate(columns, walk)


@functools.lru_cache(maxsize=128)
def _walk(pts: tuple[GridPoint, ...], caps: MultiDegree) -> list[int]:
    """The ranks of the evaluation matrices of pts, a sorted tuple of
    distinct raw points, at every degree 0 <= k <= caps, in lexicographic
    order; kept for the 128 most recent (pts, caps).

    The key holds the raw points, never their canonical form, since h
    changes under level relabeling from four levels on.  ``_box_values``
    clamps the caps before it asks, so every box that clamps to the same
    caps on the same points reads one walk.
    """
    nodes = [sorted({p[i] for p in pts}) for i in range(len(caps))]
    return _newton_walk(pts, nodes, caps)


def _distinct(
    points: Iterable[GridPoint], t: MultiDegree
) -> tuple[tuple[GridPoint, ...], list[int]]:
    """The distinct points, sorted and checked against the degree's length
    (``_nodes``), and the number of distinct values of each coordinate."""
    pts = tuple(_nodes(points, t))
    return pts, [len({p[i] for p in pts}) for i in range(len(t))]


def _box_values(
    pts: tuple[GridPoint, ...], counts: Sequence[int], box: MultiDegree,
    shift: Sequence[int] | None = None,
) -> list[int]:
    """evaluation_rank(pts, t - shift) for every degree 0 <= t <= box
    (checked by the caller), in lexicographic order, and 0 where t - shift
    has a negative entry; pts and counts are as ``_distinct`` gives them.

    The points are walked at caps = min(distinct values - 1, box), so a
    small box never builds more columns than its corner has.  A shifted
    term is walked at the box's caps too, not at box - shift: h saturates
    at the caps, so every value is the same, and the layer identity's
    base term X then reads the walk of X's own Δ table.
    """
    if shift is None:
        shift = (0,) * len(box)
    if not pts:
        return [0] * math.prod(Ti + 1 for Ti in box)
    caps = tuple(min(d - 1, Ti) for d, Ti in zip(counts, box))
    ranks = _walk(pts, caps)
    # Below the shift in any direction, the index sum stays negative.
    below = -len(ranks)
    index = [0]
    for Ti, d, c, s in zip(box, shift, caps, cell_strides([cap + 1 for cap in caps])):
        offsets = [min(t - d, c) * s if t >= d else below for t in range(Ti + 1)]
        index = [k + o for k in index for o in offsets]
    return [ranks[k] if k >= 0 else 0 for k in index]


def shifted_sum_identity(
    whole: Iterable[GridPoint],
    terms: Sequence[tuple[Iterable[GridPoint], Sequence[int]]],
    T: Sequence[int],
) -> bool:
    """Check h_whole(t) = sum of h_points(t - shift) over the (points,
    shift) terms for all 0 <= t <= T; terms at negative degrees count 0.

    Both sides are compared on the box clamped to the corner C where
    every term has saturated: C_i is T_i, or, when smaller, the largest
    over the terms, whole included with shift 0, of d_i - 1 + shift_i,
    where d_i counts the term's distinct values in coordinate i (never
    below 0).  That is the same verdict.  By the saturation rule (module
    docstring) h_P(t) = h_P(min(t, d - 1)), so a term's value
    h_P(t - shift) does not change with t_i once t_i >= d_i - 1 + shift_i:
    t_i - shift_i is then >= d_i - 1 >= 0, neither negative nor below the
    saturation point.  Every t of the box with t_i > C_i in some
    coordinates has, in each of them, C_i < T_i, so C_i is past every
    term's saturation point, and every term takes the same value at t and
    at min(t, C), a degree of the clamped box.  So the identity holds on
    the box exactly when it holds on the clamped box, whose size is set
    by the points and not by T.  The clamp leaves every walk's caps as
    they were, so the walks shared with Δ tables are the same.

    Each side is one list of values over the clamped box in
    lexicographic order; each point set's distinct levels are counted
    once, and each gets one walk for the whole check."""
    T = _check_degree(T)
    sides = [(*_distinct(points, T), shift) for points, shift in [(whole, (0,) * len(T)), *terms]]
    corner = tuple(
        min(Ti, max(0, *(counts[i] - 1 + shift[i] for _, counts, shift in sides)))
        for i, Ti in enumerate(T)
    )
    (pts, counts, _), *rest = sides
    lhs = _box_values(pts, counts, corner)
    rhs = [0] * len(lhs)
    for pts, counts, shift in rest:
        rhs = list(map(operator.add, rhs, _box_values(pts, counts, corner, shift)))
    return lhs == rhs


def _h_values(
    X: PointSet, T: Sequence[int]
) -> tuple[MultiDegree, Iterable[MultiDegree], list[int]]:
    """The checked corner T, the degrees 0 <= t <= T and h_X at each, in lexicographic order."""
    T = _check_degree(T)
    if len(T) != X.n:
        raise BadDegree(f"box corner {T} has length {len(T)}, expected {X.n}")
    return T, box_degrees(T), _box_values(*_distinct(X.points, T), T)


def hilbert_table(X: PointSet, T: Sequence[int]) -> HilbertTable:
    """Table of h_X(t) over the box 0 <= t <= T, for a canonical
    configuration (level j evaluates at [j:1])."""
    T, degrees, values = _h_values(X, T)
    return HilbertTable(box=T, values=dict(zip(degrees, values)))


def delta_table(X: PointSet, T: Sequence[int]) -> HilbertTable:
    """First differences of h_X over the box 0 <= t <= T."""
    T, degrees, values = _h_values(X, T)
    # In lexicographic order, direction i's predecessor lies one stride
    # back inside each block of (T_i + 1) strides.
    stride = len(values)
    for Ti in T:
        block = stride
        stride //= Ti + 1
        for lo in range(0, len(values), block):
            hi = lo + block
            values[lo + stride : hi] = map(
                operator.sub, values[lo + stride : hi], values[lo : hi - stride]
            )
    return HilbertTable(box=T, values=dict(zip(degrees, values)))
