"""Independent ACM oracle via Stanley-Reisner complexes and Reisner's criterion.

The squarefree monomial model of a configuration is the Stanley-Reisner
ideal of the complex whose facet for a point p is the set of all grid
variables except a[1,p_1], ..., a[n,p_n].  Cohen-Macaulayness of that
model over the rationals is decided by Reisner's criterion: every link,
the empty face included, must have vanishing reduced homology below its
dimension.  Reduced homology ranks come from exact integer ranks of the
boundary matrices.

The scan decides from the facets containing a face whether its link
needs homology at all: a link of dimension at most 0 has no condition
to check, and a link whose facets share a vertex outside the face is a
cone, hence acyclic.  Only the remaining links are built and their
homology computed; everything is desk-scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable

from .errors import EmptyConfiguration, FaceNotInComplex, InternalInvariantViolation
from .grid_model import PointSet
from .linalg import rank_int
from .monomial_ideals import GridVariable, grid_variables

Face = frozenset


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
        verts = self.vertices
        return [frozenset(verts[i] for i in t) for faces in _faces_by_size(self) for t in faces]

    def has_face(self, sigma: Iterable[Hashable]) -> bool:
        sigma = frozenset(sigma)
        return any(sigma <= f for f in self.facets)


def _faces_by_size(delta: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    """Faces as increasing vertex-index tuples: entry k lists the faces
    of size k, sorted, for k = 0 .. dim + 1."""
    index = {v: k for k, v in enumerate(delta.vertices)}
    facets = [sorted(index[v] for v in f) for f in delta.facets]
    return [
        sorted({face for f in facets for face in itertools.combinations(f, size)})
        for size in range(delta.dim + 2)
    ]


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
    facets have size (sum r_i) - n, so the complex is pure by construction.
    """
    if not X.points:
        raise EmptyConfiguration("Reisner oracle needs a nonempty configuration")
    verts = grid_variables(X.dims)
    vert_set = set(verts)
    facets = []
    for p in X.sorted_points():
        removed = {GridVariable(i + 1, c) for i, c in enumerate(p)}
        facets.append(frozenset(vert_set - removed))
    return SimplicialComplex.from_facets(verts, facets)


def link(delta: SimplicialComplex, sigma: Iterable[Hashable]) -> SimplicialComplex:
    """The link of a face: faces disjoint from sigma whose union with
    sigma is a face.  Its facets are the facets through sigma minus sigma,
    already an antichain (F - sigma < G - sigma gives F < G) and in
    ``from_facets`` order (dropping a shared sigma keeps size and vertex order)."""
    sigma = frozenset(sigma)
    if not delta.has_face(sigma):
        raise FaceNotInComplex(f"{set(sigma)} is not a face")
    return SimplicialComplex(
        vertices=tuple(v for v in delta.vertices if v not in sigma),
        facets=tuple(f - sigma for f in delta.facets if sigma <= f),
    )


def homology(delta: SimplicialComplex) -> HomologyProfile:
    """Reduced rational Betti numbers via exact boundary-matrix ranks.

    Includes the empty face as the single cell in degree -1, so the
    profile of the complex whose only face is empty is (1,).  The reduced
    Euler characteristic is recomputed from face counts and must match
    the alternating Betti sum.
    """
    by_size = _faces_by_size(delta)
    top = delta.dim

    # boundary_rank[k] = rank of the map from k-chains to (k-1)-chains
    boundary_rank = {k: 0 for k in range(-1, top + 2)}
    for k in range(1, top + 1):
        lower = {face: r for r, face in enumerate(by_size[k])}
        upper = by_size[k + 1]
        matrix = [[0] * len(upper) for _ in lower]
        for c, face in enumerate(upper):
            sign = 1
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1 :]
                matrix[lower[sub]][c] = sign
                sign = -sign
        boundary_rank[k] = rank_int(matrix)
    if top >= 0:
        boundary_rank[0] = 1  # augmentation onto the empty face

    counts = {k: len(by_size[k + 1]) for k in range(-1, top + 1)}
    betti = tuple(
        counts[k] - boundary_rank[k] - boundary_rank[k + 1] for k in range(-1, top + 1)
    )
    euler_faces = sum((-1) ** k * counts[k] for k in range(-1, top + 1))
    euler_betti = sum((-1) ** k * b for k, b in enumerate(betti, start=-1))
    if euler_faces != euler_betti:
        raise InternalInvariantViolation(
            f"Euler characteristic mismatch: faces give {euler_faces}, "
            f"Betti numbers give {euler_betti}"
        )
    return HomologyProfile(ranks=betti)


def cm_obstruction(
    delta: SimplicialComplex,
) -> tuple[Face, int, int] | None:
    """First face whose link has nonvanishing homology below its dimension.

    Faces are scanned by size then vertex order, so the empty face comes
    first and the reported obstruction is deterministic.  Returns
    (face, homology degree, rank) or None when the complex satisfies
    Reisner's criterion.
    """
    for sigma in delta.faces():
        over = [f for f in delta.facets if sigma <= f]
        if max(map(len, over)) - len(sigma) <= 1:
            continue  # link of dimension <= 0: the conditions below it are vacuous
        if len(frozenset.intersection(*over)) > len(sigma):
            continue  # the link is a cone over a shared vertex, so acyclic
        lk = link(delta, sigma)
        profile = homology(lk)
        for i in range(-1, lk.dim):
            r = profile.rank(i)
            if r:
                return sigma, i, r
    return None


def is_cm(X: PointSet) -> bool:
    """Cohen-Macaulayness of the configuration's Stanley-Reisner model.

    Purity, a necessary condition, holds by construction of sr_complex.
    """
    return cm_obstruction(sr_complex(X)) is None


def first_cm_failure(X: PointSet) -> tuple[Face, int, int] | None:
    """The first failing link of the configuration's complex, if any."""
    return cm_obstruction(sr_complex(X))
