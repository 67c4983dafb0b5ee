"""Independent ACM oracle via Stanley-Reisner complexes and Reisner's criterion.

Replacing the hyperplane through level j of direction i by a fresh
variable a[i,j] (a ``GridVariable``) turns a configuration into the
intersection of the point primes (a[1,p_1], ..., a[n,p_n]).  That
squarefree monomial model is the Stanley-Reisner ideal of the complex
whose facet for a point p is the set of all grid variables except
a[1,p_1], ..., a[n,p_n].  Cohen-Macaulayness of the model over the
rationals is decided by Reisner's criterion: every link, the empty face
included, must have vanishing reduced homology below its dimension.

Inside the oracle a face is an integer bitmask over vertex positions
(bit n - 1 - k for ``vertices[k]`` of n, so that sorting masks of one
size downwards is vertex-index order), and a complex's faces are the
submasks of its facet masks.  The link of a face sigma has the facet masks
``F & ~sigma`` of the facets F through sigma, so no complex is built per
link.  The scan decides from those facets whether a link needs homology
at all: a link of dimension at most 0 has no condition to check, and a
link whose facets share a vertex outside the face (their AND exceeds
sigma) is a cone, hence acyclic.

Reduced homology comes from one reducer.  It takes every face, the empty
face included as the single cell of degree -1, and runs coreductions
(Mrozek and Batko, *Coreduction homology algorithm*, DCG 41, 2009)
starting from the empty face: a cell whose boundary within the remaining
cells is a single cell is removed together with that cell.  The pair is
joined by a coefficient of +-1, a unit, so the removal preserves
homology over the integers, and the surviving cells with the boundary
restricted to them still form a chain complex with the same homology.
Only the survivors' boundary matrices reach the exact integer rank; on
3x3x3 samples coreductions cancel nearly every cell first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import EmptyConfiguration, FaceNotInComplex, InternalInvariantViolation
from .grid_model import PointSet
from .linalg import rank_int

Face = frozenset


class GridVariable(NamedTuple):
    """The variable a[i,j] of the hyperplane at level j of direction i."""

    direction: int
    level: int

    def __str__(self) -> str:
        return f"a[{self.direction},{self.level}]"


def grid_variables(dims: Iterable[int]) -> list[GridVariable]:
    """All variables of the grid ring, direction-major order."""
    return [
        GridVariable(i, j)
        for i, r in enumerate(dims, start=1)
        for j in range(1, r + 1)
    ]


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex list plus facet list; faces are the subsets of facets.

    The vertex tuple fixes the orientation order used for boundary signs
    and is preserved by links (minus the linked face), so that the link
    of the empty face is the complex itself.
    """

    vertices: tuple[Hashable, ...]
    facets: tuple[Face, ...]

    @classmethod
    def from_facets(
        cls, vertices: Iterable[Hashable], facets: Iterable[Iterable[Hashable]]
    ) -> "SimplicialComplex":
        verts = tuple(vertices)
        index = {v: k for k, v in enumerate(verts)}
        if len(index) != len(verts):
            raise ValueError("repeated vertex")
        fs = {frozenset(f) for f in facets}
        if not fs:
            raise ValueError("no facets (the complex whose only face is empty has facets [[]])")
        for f in fs:
            if not f <= index.keys():
                raise ValueError(f"facet {set(f)} uses unknown vertices")
        minimal = [f for f in fs if not any(f < g for g in fs)]
        minimal.sort(key=lambda f: (len(f), sorted(index[v] for v in f)))
        return cls(vertices=verts, facets=tuple(minimal))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def faces(self) -> list[Face]:
        """All faces, sorted by size then vertex order (empty face first)."""
        return [_vertex_set(self.vertices, m) for m in _faces_in_order(_facet_masks(self))]


def _facet_masks(delta: SimplicialComplex) -> list[int]:
    """The facets as bitmasks.  Vertex k of n is bit n - 1 - k, so of two
    faces of one size the one earlier in vertex-index order has the larger
    mask: the first vertex where they differ is its, and sets the higher bit."""
    top = len(delta.vertices) - 1
    bit = {v: 1 << (top - k) for k, v in enumerate(delta.vertices)}
    return [sum(bit[v] for v in f) for f in delta.facets]


def _indices(mask: int) -> list[int]:
    """Positions of the set bits, ascending."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _vertex_set(vertices: Sequence[Hashable], mask: int) -> Face:
    """The vertices of a face mask made by ``_facet_masks``."""
    top = len(vertices) - 1
    return frozenset(vertices[top - k] for k in _indices(mask))


def _face_masks(facets: Iterable[int]) -> set[int]:
    """Every face of the complex with these facet masks, 0 (empty) included."""
    faces = {0}
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    return faces


def _faces_in_order(facets: Iterable[int]) -> list[int]:
    """Face masks by size, then by increasing vertex-index tuple."""
    return sorted(_face_masks(facets), key=lambda m: (m.bit_count(), -m))


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers over the rationals, from degree -1 up to dim."""

    ranks: tuple[int, ...]

    def rank(self, i: int) -> int:
        k = i + 1
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0


def sr_complex(X: PointSet) -> SimplicialComplex:
    """The Stanley-Reisner complex of the configuration's monomial model.

    One facet per point: the complement of the point's variable set.  All
    facets have size (sum r_i) - n, so the complex is pure by construction,
    and distinct points give distinct facets, so they form an antichain
    and need no ``from_facets`` pass.  Listing the points in decreasing
    lexicographic order lists the facets in ``from_facets`` order: at the
    first direction where p > q differ, p's facet keeps the lower level
    q_i that q's facet drops, so it comes first in vertex-index order.
    """
    if not X.points:
        raise EmptyConfiguration("Reisner oracle needs a nonempty configuration")
    verts = tuple(grid_variables(X.dims))
    vert_set = frozenset(verts)
    facets = tuple(
        vert_set - {GridVariable(i + 1, c) for i, c in enumerate(p)}
        for p in sorted(X.points, reverse=True)
    )
    return SimplicialComplex(verts, facets)


def link(delta: SimplicialComplex, sigma: Iterable[Hashable]) -> SimplicialComplex:
    """The link of a face: faces disjoint from sigma whose union with
    sigma is a face.  Its facets are the facets through sigma minus sigma,
    already an antichain (F - sigma < G - sigma gives F < G) and in
    ``from_facets`` order (dropping a shared sigma keeps size and vertex order)."""
    sigma = frozenset(sigma)
    if not any(sigma <= f for f in delta.facets):
        raise FaceNotInComplex(f"{set(sigma)} is not a face")
    return SimplicialComplex(
        vertices=tuple(v for v in delta.vertices if v not in sigma),
        facets=tuple(f - sigma for f in delta.facets if sigma <= f),
    )


def _reduced_betti(facets: Sequence[int]) -> tuple[int, ...]:
    """Reduced rational Betti numbers, degree -1 up to the dimension, of
    the complex with these facet masks, after coreductions (module
    docstring).

    The reduced Euler characteristic of the original face counts must
    equal the alternating sum of the Betti numbers of the surviving
    cells, which fails if a reduction drops a cell without its partner;
    a negative Betti number means a rank exceeded its matrix's.
    """
    # each cell mapped to the number of its boundary cells still present
    cells = {c: c.bit_count() for c in _face_masks(facets)}
    top = max(f.bit_count() for f in facets)  # cells have sizes 0 .. top
    counts = [0] * (top + 1)
    for size in cells.values():
        counts[size] += 1
    verts = [1 << k for k in _indices(reduce(or_, facets, 0))]

    queue = deque(verts)  # a vertex's boundary is the empty face
    while queue:
        b = queue.popleft()
        if cells.get(b) != 1:
            continue
        a = next(b ^ v for v in verts if b & v and b ^ v in cells)
        del cells[a], cells[b]
        for c in (a, b):
            for v in verts:
                up = c | v
                if up != c and up in cells:
                    cells[up] -= 1
                    if cells[up] == 1:
                        queue.append(up)

    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for c in sorted(cells):
        by_size[c.bit_count()].append(c)
    # rank[k]: rank of the restricted boundary from cells of size k to size k - 1
    rank = [0] * (top + 2)
    for k in range(1, top + 1):
        lower, upper = by_size[k - 1], by_size[k]
        if not (lower and upper):
            continue
        row = {c: r for r, c in enumerate(lower)}
        matrix = [[0] * len(upper) for _ in lower]
        for col, b in enumerate(upper):
            for v in verts:
                r = row.get(b ^ v) if b & v else None
                if r is not None:  # cells oriented by increasing bit
                    matrix[r][col] = -1 if (b & (v - 1)).bit_count() & 1 else 1
        rank[k] = rank_int(matrix)

    betti = tuple(len(by_size[k]) - rank[k] - rank[k + 1] for k in range(top + 1))
    if min(betti) < 0:
        raise InternalInvariantViolation(f"negative Betti number in {betti}")
    def euler(by_cell_size: Sequence[int]) -> int:  # cells of size k are in degree k - 1
        return sum(n if k % 2 else -n for k, n in enumerate(by_cell_size))

    euler_faces, euler_betti = euler(counts), euler(betti)
    if euler_faces != euler_betti:
        raise InternalInvariantViolation(
            f"Euler characteristic mismatch: faces give {euler_faces}, "
            f"Betti numbers give {euler_betti}"
        )
    return betti


def homology(delta: SimplicialComplex) -> HomologyProfile:
    """Reduced rational Betti numbers via exact boundary-matrix ranks.

    Includes the empty face as the single cell in degree -1, so the
    profile of the complex whose only face is empty is (1,).
    """
    return HomologyProfile(ranks=_reduced_betti(_facet_masks(delta)))


def cm_obstruction(
    delta: SimplicialComplex,
) -> tuple[Face, int, int] | None:
    """First face whose link has nonvanishing homology below its dimension.

    Faces are scanned by size then vertex order, so the empty face comes
    first and the reported obstruction is deterministic.  Returns
    (face, homology degree, rank) or None when the complex satisfies
    Reisner's criterion.
    """
    facets = _facet_masks(delta)
    for sigma in _faces_in_order(facets):
        over = [f for f in facets if f & sigma == sigma]
        if max(f.bit_count() for f in over) - sigma.bit_count() <= 1:
            continue  # link of dimension <= 0: the conditions below it are vacuous
        if reduce(and_, over) != sigma:
            continue  # the link is a cone over a shared vertex, so acyclic
        betti = _reduced_betti([f & ~sigma for f in over])
        for i, r in enumerate(betti[:-1], start=-1):
            if r:
                return _vertex_set(delta.vertices, sigma), i, r
    return None


def is_cm(X: PointSet) -> bool:
    """Cohen-Macaulayness of the configuration's Stanley-Reisner model.

    Purity, a necessary condition, holds by construction of sr_complex.
    """
    return cm_obstruction(sr_complex(X)) is None


def first_cm_failure(X: PointSet) -> tuple[Face, int, int] | None:
    """The first failing link of the configuration's complex, if any."""
    return cm_obstruction(sr_complex(X))
