"""Level-set decompositions, the inclusion property and interface sets.

Fixing a direction i stratifies a configuration X by its i-th coordinate
into level sets, one per grid hyperplane of that family.  The inclusion
property with respect to direction i asks the projected level sets to
form a chain under set inclusion with every member ACM; it implies the
ACM property in general and characterizes it exactly for n = 2.

The interface set of a level j is the part of the other levels sitting
over the shadow of level j; an empty interface counts as ACM.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import BadDirection, BadLevel, EmptyConfiguration, WouldBeEmpty
from .grid_model import GridPoint, PointSet, canonicalize, drop_coordinate
from .star_property import is_acm


@dataclass(frozen=True)
class LevelDecomposition:
    """Partition of a configuration by one coordinate direction.

    ``levels`` lists (level index, subset of X) pairs ordered by index;
    the subsets are nonempty, pairwise disjoint and cover X.
    """

    direction: int
    levels: tuple[tuple[int, frozenset[GridPoint]], ...]

    def sizes(self) -> list[int]:
        return [len(part) for _, part in self.levels]


def _check_direction(X: PointSet, i: int) -> None:
    if not 1 <= i <= X.n:
        raise BadDirection(f"direction {i} outside 1..{X.n}")


def level_sets(X: PointSet, i: int) -> LevelDecomposition:
    """Partition X by its i-th coordinate, levels ordered by index."""
    _check_direction(X, i)
    groups: dict[int, set[GridPoint]] = defaultdict(set)
    for p in X.points:
        groups[p[i - 1]].add(p)
    levels = tuple((j, frozenset(groups[j])) for j in sorted(groups))
    return LevelDecomposition(direction=i, levels=levels)


def _shadow(points: frozenset[GridPoint], i: int) -> frozenset[GridPoint]:
    return frozenset(drop_coordinate(p, i) for p in points)


def _acm_of_shadow(shadow: frozenset[GridPoint]) -> bool:
    return is_acm(canonicalize(sorted(shadow)))


def inclusion_property(X: PointSet, i: int) -> bool:
    """Whether the projected i-level sets form an inclusion chain of ACM sets.

    The projections are compared as raw subsets of the common ambient
    (P^1)^(n-1); a chain under inclusion is cardinality-monotone, so
    sorting by size and checking consecutive containment suffices (equal
    sizes then force equality).  Each projected level is recanonicalized
    before its own ACM check, which is automatic for n - 1 = 1.
    """
    if X.n < 2:
        raise BadDirection("inclusion property needs at least two directions")
    _check_direction(X, i)
    shadows = [_shadow(part, i) for _, part in level_sets(X, i).levels]
    shadows.sort(key=len)
    for small, big in zip(shadows, shadows[1:]):
        if not small <= big:
            return False
    return all(_acm_of_shadow(sh) for sh in shadows)


def _check_level(X: PointSet, i: int, j: int) -> None:
    """Level j of direction i exists and is not the direction's only level."""
    _check_direction(X, i)
    if not 1 <= j <= X.dims[i - 1]:
        raise BadLevel(f"level {j} outside 1..{X.dims[i - 1]} in direction {i}")
    if X.dims[i - 1] < 2:
        raise WouldBeEmpty(f"direction {i} has a single level")


def remove_level(X: PointSet, i: int, j: int) -> PointSet:
    """X minus its j-th i-level set, recanonicalized."""
    _check_level(X, i, j)
    rest = [p for p in X.points if p[i - 1] != j]
    return canonicalize(rest)


def interface_set(X: PointSet, i: int, j: int) -> PointSet:
    """Points of the other levels lying over the shadow of level j.

    Returns the empty configuration when no point of X minus the level
    projects into the level's shadow.
    """
    _check_level(X, i, j)
    level_shadow = {drop_coordinate(p, i) for p in X.points if p[i - 1] == j}
    rest = [
        p
        for p in X.points
        if p[i - 1] != j and drop_coordinate(p, i) in level_shadow
    ]
    if not rest:
        return PointSet.empty(X.n)
    return canonicalize(rest)


def max_level_size(X: PointSet) -> int:
    """Largest number of points on any single grid hyperplane."""
    if X.size == 0:
        raise EmptyConfiguration("max level size needs a nonempty configuration")
    return max(
        size for i in range(1, X.n + 1) for size in level_sets(X, i).sizes()
    )
