"""Combinatorial model for finite point configurations on a grid in (P^1)^n.

A configuration is stored purely by incidence: each point is an n-tuple of
1-based level indices, where level j in direction i names the j-th
hyperplane of that coordinate family that actually meets the
configuration.  Canonical form therefore uses every level 1..r_i in every
direction.  No projective coordinates are kept here; only the Hilbert
function module ever assigns coordinate values, and it does so on demand.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BadDirection,
    BadPermutation,
    DimensionMismatch,
    EmptyConfiguration,
    InputError,
)

# A grid point is a plain tuple of 1-based level indices.
GridPoint = tuple[int, ...]

# A multidegree is a plain tuple of integers, one per direction.
MultiDegree = tuple[int, ...]


@dataclass(frozen=True)
class PointSet:
    """A duplicate-free point configuration in canonical form.

    ``dims[i-1]`` is the number of grid hyperplanes in direction ``i``;
    every level ``1..dims[i-1]`` is used by at least one point.  The empty
    configuration (used by interface computations) has ``dims = (0,...,0)``.
    """

    n: int
    dims: tuple[int, ...]
    points: frozenset[GridPoint]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("dimension count must be >= 1")
        if len(self.dims) != self.n:
            raise DimensionMismatch("dims length must equal n")
        used: list[set[int]] = [set() for _ in range(self.n)]
        for p in self.points:
            if len(p) != self.n:
                raise DimensionMismatch(f"point {p} has wrong length")
            for i, (c, r) in enumerate(zip(p, self.dims)):
                if not 1 <= c <= r:
                    raise InputError(f"coordinate {c} outside 1..{r} in direction {i + 1}")
                used[i].add(c)
        for i, (r, seen) in enumerate(zip(self.dims, used)):
            if len(seen) != r:
                raise InputError(f"direction {i + 1} has unused levels; not canonical")

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(n=n, dims=(0,) * n, points=frozenset())

    @property
    def size(self) -> int:
        return len(self.points)

    def sorted_points(self) -> list[GridPoint]:
        return sorted(self.points)

    def grid_cells(self) -> list[GridPoint]:
        """All cells of the ambient dims box, in lexicographic order."""
        return list(itertools.product(*[range(1, r + 1) for r in self.dims]))

    def __repr__(self) -> str:  # compact, deterministic
        pts = ",".join(str(p) for p in self.sorted_points())
        return f"PointSet(n={self.n}, dims={self.dims}, points=[{pts}])"


def canonicalize(raw: Iterable[Sequence[int]]) -> PointSet:
    """Build the canonical PointSet for a list of raw integer tuples.

    Duplicates merge; in each direction the distinct values that occur are
    relabeled 1..r_i preserving their order.  Raw values may be any
    integers, only their relative order per direction matters.
    """
    tuples = [tuple(p) for p in raw]
    if not tuples:
        raise EmptyConfiguration("no points given")
    n = len(tuples[0])
    if n < 1:
        raise DimensionMismatch("points must have at least one coordinate")
    for p in tuples:
        if len(p) != n:
            raise DimensionMismatch(f"ragged input: {p} has length {len(p)}, expected {n}")
        for c in p:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InputError(f"coordinate {c!r} is not an integer")
    maps = [
        {v: k + 1 for k, v in enumerate(sorted({p[i] for p in tuples}))}
        for i in range(n)
    ]
    points = frozenset(tuple(maps[i][p[i]] for i in range(n)) for p in tuples)
    dims = tuple(len(m) for m in maps)
    return PointSet(n=n, dims=dims, points=points)


def drop_coordinate(p: GridPoint, i: int) -> GridPoint:
    """The tuple with the i-th (1-based) coordinate deleted."""
    if not 1 <= i <= len(p):
        raise BadDirection(f"direction {i} outside 1..{len(p)}")
    return p[: i - 1] + p[i:]


def project(X: PointSet, i: int) -> PointSet:
    """Image of X under deletion of coordinate i, with collisions merged."""
    if X.n < 2:
        raise BadDirection("projection needs at least two directions")
    if not 1 <= i <= X.n:
        raise BadDirection(f"direction {i} outside 1..{X.n}")
    return canonicalize([drop_coordinate(p, i) for p in X.points])


def _check_perm(perm: Sequence[int], size: int, what: str) -> None:
    if sorted(perm) != list(range(1, size + 1)):
        raise BadPermutation(f"{what} {tuple(perm)} is not a permutation of 1..{size}")


def relabel(
    X: PointSet,
    direction_perm: Sequence[int] | None = None,
    level_perms: Sequence[Sequence[int]] | None = None,
) -> PointSet:
    """Permute directions and/or level indices within each direction.

    ``direction_perm[k]`` is the old direction whose (level-permuted)
    coordinate becomes new coordinate ``k+1``.  ``level_perms`` is indexed
    by old direction; entry for direction i sends old level j to
    ``level_perms[i-1][j-1]``.  Bijective on configurations.
    """
    dperm = list(direction_perm) if direction_perm is not None else list(range(1, X.n + 1))
    _check_perm(dperm, X.n, "direction permutation")
    if level_perms is None:
        lperms = [list(range(1, r + 1)) for r in X.dims]
    else:
        lperms = [list(lp) for lp in level_perms]
        if len(lperms) != X.n:
            raise BadPermutation("need one level permutation per direction")
        for i, (lp, r) in enumerate(zip(lperms, X.dims)):
            _check_perm(lp, r, f"level permutation for direction {i + 1}")
    points = frozenset(
        tuple(lperms[d - 1][p[d - 1] - 1] for d in dperm) for p in X.points
    )
    dims = tuple(X.dims[d - 1] for d in dperm)
    return PointSet(n=X.n, dims=dims, points=points)
