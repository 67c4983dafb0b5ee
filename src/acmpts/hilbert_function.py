"""Multigraded Hilbert functions by evaluation-matrix rank, and first
differences with the full inclusion-exclusion convention.

The degree-t piece of the coordinate ring has the monomial basis
prod_i x_{i,0}^{a_i} x_{i,1}^{t_i - a_i} with 0 <= a_i <= t_i.  Assigning
level j of direction i the affine point [j : 1] turns evaluation into the
integer matrix with row prod_i (p_i)^{a_i} per point p, and h_X(t) is its
rank over the rationals.  Ranks are computed exactly; degrees stay small,
so entries stay modest.

The first difference is the alternating sum of h_X over all 2^n unit
down-shifts, with h identically zero at any negative degree; this
convention is what reproduces additivity under liaison addition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
    if any(ti < 0 for ti in t):
        raise BadDegree(f"negative entry in degree {t}")
    return t


def box_degrees(T: Sequence[int]) -> Iterable[MultiDegree]:
    """All multidegrees 0 <= t <= T in lexicographic order."""
    return itertools.product(*[range(Ti + 1) for Ti in _check_degree(T)])


def evaluation_rank(points: Iterable[GridPoint], t: Sequence[int]) -> int:
    """Rank of the degree-t evaluation matrix at the given integer nodes.

    Point coordinates are used directly as evaluation nodes, so callers
    can evaluate uncompressed embeddings in a common grid.
    """
    t = _check_degree(t)
    pts = sorted(set(points))
    if not pts:
        return 0
    if any(len(p) != len(t) for p in pts):
        raise BadDegree(f"degree {t} does not match the point dimension")
    rows = []
    for p in pts:
        pows = [[x**a for a in range(ti + 1)] for x, ti in zip(p, t)]
        rows.append([math.prod(c) for c in itertools.product(*pows)])
    return rank_int(rows)


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
    values = {t: evaluation_rank(X.points, t) for t in box_degrees(T)}
    return HilbertTable(box=T, values=values)


def delta_table(X: PointSet, T: Sequence[int]) -> HilbertTable:
    """First differences of h_X over the box 0 <= t <= T."""
    ht = hilbert_table(X, T)
    n = X.n
    values: dict[MultiDegree, int] = {}
    for t in box_degrees(ht.box):
        total = 0
        for mask in range(1 << n):
            shifted = tuple(t[i] - ((mask >> i) & 1) for i in range(n))
            if min(shifted) < 0:
                continue
            sign = -1 if bin(mask).count("1") % 2 else 1
            total += sign * ht.values[shifted]
        values[t] = total
    return HilbertTable(box=ht.box, values=values)
