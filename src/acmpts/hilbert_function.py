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
integer nodes, compressed or not.  Tables and identity checks therefore
build one evaluation matrix per point set, at the largest degree they can
need, and rank each clamped degree once, on its subset of columns.

The first difference is the alternating sum of h_X over all 2^n unit
down-shifts, with h identically zero at any negative degree; this
convention is what reproduces additivity under liaison addition.  It is
computed as n one-direction differences, one pass per direction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BadDegree
from .grid_model import GridPoint, MultiDegree, PointSet
from .linalg import rank_int


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
    if any(isinstance(ti, bool) or not isinstance(ti, int) for ti in t):
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
    can evaluate uncompressed embeddings in a common grid.
    """
    t = _check_degree(t)
    pts = _nodes(points, t)
    if not pts:
        return 0
    return rank_int(_evaluation_rows(pts, t))


def _saturated_ranker(
    points: Iterable[GridPoint], box: Sequence[int]
) -> Callable[[MultiDegree], int]:
    """evaluation_rank(points, t) for degrees 0 <= t <= box, each saturated
    degree ranked once.

    caps[i] is the number of distinct values of coordinate i, minus 1, or
    box[i] if smaller, so a small box never builds more columns than its
    corner has.  One evaluation matrix is built at degree caps; a
    degree t is clamped to min(t, caps) and ranked on that degree's
    columns, which are its mixed-radix indices in the caps matrix.  The
    memo lives as long as the returned function.
    """
    box = _check_degree(box)
    pts = _nodes(points, box)
    if not pts:
        return lambda t: 0
    caps = tuple(
        min(len({p[i] for p in pts}) - 1, Ti) for i, Ti in enumerate(box)
    )
    rows = _evaluation_rows(pts, caps)
    strides = [math.prod(c + 1 for c in caps[i + 1 :]) for i in range(len(caps))]
    memo: dict[MultiDegree, int] = {}

    def rank(t: MultiDegree) -> int:
        k = tuple(map(min, t, caps))
        if k not in memo:
            cols = [0]
            for ki, stride in zip(k, strides):
                cols = [c + a * stride for c in cols for a in range(ki + 1)]
            memo[k] = rank_int([[row[j] for j in cols] for row in rows])
        return memo[k]

    return rank


def hilbert_value(X: PointSet, t: Sequence[int]) -> int:
    """h_X(t) for a canonical configuration (level j evaluates at [j:1])."""
    t = _check_degree(t)
    if len(t) != X.n:
        raise BadDegree(f"degree {t} has length {len(t)}, expected {X.n}")
    return evaluation_rank(X.points, t)


def hilbert_table(X: PointSet, T: Sequence[int]) -> HilbertTable:
    """Table of hilbert_value over the box 0 <= t <= T."""
    T = _check_degree(T)
    if len(T) != X.n:
        raise BadDegree(f"box corner {T} has length {len(T)}, expected {X.n}")
    rank = _saturated_ranker(X.points, T)
    return HilbertTable(box=T, values={t: rank(t) for t in box_degrees(T)})


def delta_table(X: PointSet, T: Sequence[int]) -> HilbertTable:
    """First differences of h_X over the box 0 <= t <= T."""
    ht = hilbert_table(X, T)
    values = dict(ht.values)
    for i in range(X.n):
        values = {
            t: v - values[t[:i] + (t[i] - 1,) + t[i + 1 :]] if t[i] else v
            for t, v in values.items()
        }
    return HilbertTable(box=ht.box, values=values)
