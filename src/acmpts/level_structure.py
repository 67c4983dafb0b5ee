"""Level-set decompositions, the inclusion property and interface sets.

Fixing a direction i stratifies a configuration X by its i-th coordinate
into level sets, one per grid hyperplane of that family.  The inclusion
property with respect to direction i asks the projected level sets to
form a chain under set inclusion with every member ACM; it implies the
ACM property in general and characterizes it exactly for n = 2.

The interface set of a level j is the part of the other levels sitting
over the shadow of level j; an empty interface counts as ACM.

Both run on cell masks of a grid that need not be X's own
(``inclusion_on_grid``, ``interface_on_grid``), so ``acmpts enumerate``
asks them about a subset of its run's grid with no PointSet.  A level's
shadow is a mask on the grid without direction i
(``grid_model.project_mask``), whose star verdict is read there
(``star_property.acm_on_grid``), and an interface is the level's part
copied onto every level of direction i, ANDed with the rest of X.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import BadDirection, BadLevel, EmptyConfiguration, WouldBeEmpty
from .grid_model import (
    GridPoint, PointSet, canonicalize, cell_strides, check_direction, is_int, level_masks,
    mask_bits, project_mask,
)
from .star_property import acm_on_grid


@dataclass(frozen=True)
class LevelDecomposition:
    """Partition of a configuration by one coordinate direction.

    ``levels`` lists (level index, subset of X) pairs ordered by index;
    the subsets are nonempty, pairwise disjoint and cover X.
    """

    levels: tuple[tuple[int, frozenset[GridPoint]], ...]

    def sizes(self) -> list[int]:
        return [len(part) for _, part in self.levels]


def level_sets(X: PointSet, i: int) -> LevelDecomposition:
    """Partition X by its i-th coordinate, levels ordered by index."""
    check_direction(i, X.n)
    groups: dict[int, set[GridPoint]] = defaultdict(set)
    for p in X.points:
        groups[p[i - 1]].add(p)
    levels = tuple((j, frozenset(groups[j])) for j in sorted(groups))
    return LevelDecomposition(levels=levels)


def inclusion_on_grid(dims: tuple[int, ...], mask: int, i: int) -> bool:
    """The inclusion property in direction i of the subset with this cell
    mask of the dims grid (n >= 2), which need not use every level.

    Each used level's shadow is a mask on the grid without direction i.
    A chain under inclusion is cardinality-monotone, so sorting the
    shadows by size and checking consecutive containment suffices (equal
    sizes then force equality).  Each distinct shadow is then checked for
    ACM on that grid: by the star scan (``acm_on_grid``), or, on a grid of
    two directions, by its own inclusion property in direction 1.  There
    a witness is two rows of which neither contains the other, so the
    star verdict is that the rows form a chain, and no pair table is
    built.
    """
    parts = [mask & slab for slab in level_masks(dims)[i - 1] if mask & slab]
    shadows = sorted((project_mask(dims, part, i) for part in parts), key=int.bit_count)
    if any(small & ~big for small, big in zip(shadows, shadows[1:])):
        return False
    rest = dims[: i - 1] + dims[i:]
    if len(rest) == 2:
        return all(inclusion_on_grid(rest, shadow, 1) for shadow in set(shadows))
    return all(acm_on_grid(rest, shadow) for shadow in set(shadows))


def inclusion_property(X: PointSet, i: int) -> bool:
    """Whether the projected i-level sets form an inclusion chain of ACM
    sets, compared as raw subsets of the common ambient (P^1)^(n-1)
    (``inclusion_on_grid``)."""
    if X.n < 2:
        raise BadDirection("inclusion property needs at least two directions")
    check_direction(i, X.n)
    return inclusion_on_grid(X.dims, X.cell_mask, i)


def _check_level(X: PointSet, i: int, j: int) -> None:
    """Level j of direction i exists and is not the direction's only level."""
    check_direction(i, X.n)
    if not is_int(j) or not 1 <= j <= X.dims[i - 1]:
        raise BadLevel(f"level {j!r} outside 1..{X.dims[i - 1]} in direction {i}")
    if X.dims[i - 1] < 2:
        raise WouldBeEmpty(f"direction {i} has a single level")


def remove_level(X: PointSet, i: int, j: int) -> PointSet:
    """X minus its j-th i-level set, recanonicalized."""
    _check_level(X, i, j)
    rest = [p for p in X.points if p[i - 1] != j]
    return canonicalize(rest)


def interface_on_grid(dims: tuple[int, ...], mask: int, i: int, j: int) -> int:
    """The interface set of level j of direction i of the subset with this
    cell mask of the dims grid, as a mask: the level's part, moved to
    level 1 and copied onto every level, covers the cells over its shadow,
    and those of the subset off level j are the interface."""
    slabs, s = level_masks(dims)[i - 1], math.prod(dims[i:])
    base = (mask & slabs[j - 1]) >> (j - 1) * s
    return reduce(or_, [base << l * s for l in range(len(slabs))]) & mask & ~slabs[j - 1]


def interface_set(X: PointSet, i: int, j: int) -> PointSet:
    """Points of the other levels lying over the shadow of level j
    (``interface_on_grid``), canonicalized.

    Returns the empty configuration when no point of X minus the level
    projects into the level's shadow.
    """
    _check_level(X, i, j)
    rest = interface_on_grid(X.dims, X.cell_mask, i, j)
    if not rest:
        return PointSet.empty(X.n)
    dims, strides = X.dims, cell_strides(X.dims)  # cell k has level k // s % r + 1
    return canonicalize([[k // s % r for r, s in zip(dims, strides)] for k in mask_bits(rest)])


def max_level_size(X: PointSet) -> int:
    """Largest number of points on any single grid hyperplane."""
    if X.size == 0:
        raise EmptyConfiguration("max level size needs a nonempty configuration")
    return max(
        size for i in range(1, X.n + 1) for size in level_sets(X, i).sizes()
    )
