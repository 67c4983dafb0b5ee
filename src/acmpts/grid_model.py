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

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadDirection,
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
        if not is_int(self.n):
            raise InputError(f"dimension count {self.n!r} is not an integer")
        if self.n < 1:
            raise InputError("dimension count must be >= 1")
        if not isinstance(self.dims, tuple):
            raise InputError(f"dims {self.dims!r} is not a tuple")
        if not isinstance(self.points, frozenset):
            raise InputError(f"points {self.points!r} are not a frozenset")
        if len(self.dims) != self.n:
            raise DimensionMismatch("dims length must equal n")
        for i, r in enumerate(self.dims):
            if not is_int(r):
                raise InputError(f"level count {r!r} in direction {i + 1} is not an integer")
        used: list[set[int]] = [set() for _ in range(self.n)]
        for p in self.points:
            if not isinstance(p, tuple):
                raise InputError(f"point {p!r} is not a tuple")
            if len(p) != self.n:
                raise DimensionMismatch(f"point {p} has wrong length")
            for i, (c, r) in enumerate(zip(p, self.dims)):
                if not is_int(c):
                    raise InputError(f"coordinate {c!r} is not an integer")
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

    @functools.cached_property
    def cell_mask(self) -> int:
        """The points as a mask over ``cell_table(dims)`` (bit k is cell k),
        computed on first read and kept on this PointSet, dying with it.
        Cell p has index sum((p_i - 1) * stride_i), computed from the
        strides, so no table of the grid's cells is built: every point is
        shifted up by sum(stride_i), and the sum is shifted back down."""
        strides = cell_strides(self.dims)
        return sum(1 << sum(map(operator.mul, p, strides)) for p in self.points) >> sum(strides)

    @functools.cached_property
    def own_cells(self) -> dict[int, tuple[GridPoint, int]]:
        """Each point's cell index in ``cell_table(dims)``, keyed by the id
        of the very tuple stored in ``points``, with that tuple: a caller
        holding one of these objects (from ``points`` or
        ``sorted_points()``) holds a point that was validated here, which
        ``entry[0] is u`` confirms without looking at its coordinates.
        Computed on first read and kept on this PointSet, dying with it."""
        index = cell_table(self.dims)[1]
        return {id(p): (p, index[p]) for p in self.points}

    @functools.cached_property
    def star_levels(self) -> dict[int, bool]:
        """The star verdict of this configuration per level, as far as
        ``star_property.is_acm``, ``find_path`` and ``check_star`` have
        scanned for it: the package's one star memo, so a chain query
        looks its precondition up here.  Kept on this PointSet, dying
        with it."""
        return {}

    def sorted_points(self) -> list[GridPoint]:
        return sorted(self.points)

    def __repr__(self) -> str:  # compact, deterministic
        pts = ",".join(str(p) for p in self.sorted_points())
        return f"PointSet(n={self.n}, dims={self.dims}, points=[{pts}])"


def is_int(value: object) -> bool:
    """Whether value is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_point(u: object) -> bool:
    """Whether u is a tuple of ints, none of them a bool."""
    return isinstance(u, tuple) and all(map(is_int, u))


def check_direction(i: object, n: int) -> None:
    """Raise BadDirection unless i is an int direction in 1..n."""
    if not is_int(i) or not 1 <= i <= n:
        raise BadDirection(f"direction {i!r} outside 1..{n}")


@functools.lru_cache(maxsize=32)
def cell_table(
    dims: tuple[int, ...],
) -> tuple[tuple[GridPoint, ...], dict[GridPoint, int], tuple[int, ...]]:
    """The package's one cell numbering: the dims grid's cells in
    lexicographic order (bit k of a cell mask is cell k), each cell's
    index, and each direction's index stride; cached for 32 dims."""
    cells = tuple(itertools.product(*[range(1, r + 1) for r in dims]))
    return cells, {c: k for k, c in enumerate(cells)}, cell_strides(dims)


def cell_strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Each direction's index stride in the cell numbering of ``cell_table``:
    the product of the level counts of the directions after it."""
    return tuple(math.prod(dims[i + 1 :]) for i in range(len(dims)))


@functools.lru_cache(maxsize=32)
def level_masks(dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The package's one definition of a level's cells: ``[i][l - 1]`` is
    the mask over ``cell_table(dims)`` of the cells at level l of
    direction i + 1; cached for 32 dims.  Level l of a direction with
    stride s and r levels holds the cells whose index k has
    k // s % r == l - 1: a block of s cells repeated every r * s cells, so
    its mask is that block doubled up to the grid's cell count, with no
    table of the grid's cells."""
    cells = math.prod(dims)
    masks = []
    for r, s in zip(dims, cell_strides(dims)):
        direction = []
        for j in range(r):
            mask, width = ((1 << s) - 1) << j * s, r * s
            while width < cells:
                mask |= mask << width
                width <<= 1
            direction.append(mask & (1 << cells) - 1)
        masks.append(tuple(direction))
    return tuple(masks)


def mask_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def project_mask(dims: tuple[int, ...], mask: int, i: int) -> int:
    """The cells of ``mask`` with coordinate i deleted, as a mask over the
    grid ``dims`` without direction i; collisions merge.  With the stride
    s and the r levels of direction i, cell h * r * s + l * s + t (t < s)
    goes to cell h * s + t."""
    block, s = math.prod(dims[i - 1 :]), math.prod(dims[i:])
    return functools.reduce(operator.or_, (1 << k // block * s + k % s for k in mask_bits(mask)), 0)


def grid_cells(dims: Sequence[int]) -> tuple[GridPoint, ...]:
    """All cells of the box with ``dims`` levels per direction, lexicographically."""
    return cell_table(tuple(dims))[0]


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
            if not is_int(c):
                raise InputError(f"coordinate {c!r} is not an integer")
    maps = [
        {v: k + 1 for k, v in enumerate(sorted({p[i] for p in tuples}))}
        for i in range(n)
    ]
    # Canonical by construction, from coordinates checked above: a direct
    # PointSet(...) would check every coordinate, range and level again.
    X = object.__new__(PointSet)
    X.__dict__.update(
        n=n,
        dims=tuple(len(m) for m in maps),
        points=frozenset(tuple(maps[i][p[i]] for i in range(n)) for p in tuples),
    )
    return X


def project(X: PointSet, i: int) -> PointSet:
    """Image of X under deletion of coordinate i, with collisions merged."""
    if X.n < 2:
        raise BadDirection("projection needs at least two directions")
    check_direction(i, X.n)
    return canonicalize([p[: i - 1] + p[i:] for p in X.points])
