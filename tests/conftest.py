"""Shared example configurations and hypothesis strategies."""

import itertools
import random

import pytest
from hypothesis import strategies as st

from acmpts import PointSet, canonicalize

# Six of the eight corners of the 2x2x2 block: the complement of one
# long diagonal.  Satisfies the star property at level 2 but not 3.
SIX_POINTS = [(1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1)]

# Liaison addition of the three diagonal points with quadratic forms:
# summands plus the eight-point complete-intersection block.
DIAGONAL = [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
BLOCK = [(a, b, c) for a in (2, 3) for b in (1, 3) for c in (1, 2)]
ELEVEN_POINTS = DIAGONAL + BLOCK

# Same eleven points with the middle diagonal point moved into the
# bottom slice; same Hilbert function but an inclusion chain appears.
ELEVEN_MOVED = [(1, 1, 1), (3, 2, 2), (3, 3, 3)] + BLOCK

# Twelve points on a 4x3x3 grid whose direction-1 slices form a chain
# under inclusion of shadows; no chain exists for the other directions.
TWELVE_CHAIN = [
    (1, 1, 3),
    (2, 1, 3),
    (3, 1, 2), (3, 1, 3), (3, 3, 2), (3, 3, 3),
    (4, 1, 2), (4, 1, 3), (4, 2, 2), (4, 3, 1), (4, 3, 2), (4, 3, 3),
]

# Eight points of the 2x2x2x2 grid, mapped to itself by flipping every
# coordinate.  No star witness exists at any level, yet the set is not
# Cohen-Macaulay: the star and Reisner routes disagree on its orbit.
STAR_BLIND_EIGHT = [
    (1, 1, 2, 2), (1, 2, 1, 1), (1, 2, 2, 1), (1, 2, 2, 2),
    (2, 1, 1, 1), (2, 1, 1, 2), (2, 1, 2, 2), (2, 2, 1, 1),
]


@pytest.fixture
def six_points() -> PointSet:
    return canonicalize(SIX_POINTS)


@pytest.fixture
def eleven_points() -> PointSet:
    return canonicalize(ELEVEN_POINTS)


@pytest.fixture
def eleven_moved() -> PointSet:
    return canonicalize(ELEVEN_MOVED)


@pytest.fixture
def twelve_chain() -> PointSet:
    return canonicalize(TWELVE_CHAIN)


@pytest.fixture
def star_blind_eight() -> PointSet:
    return canonicalize(STAR_BLIND_EIGHT)


def grid_configurations(max_n: int = 3, max_levels: int = 3, max_size: int = 9):
    """Strategy for canonical configurations on desk-scale grids."""

    def build(n: int):
        point = st.tuples(*[st.integers(1, max_levels)] * n)
        return st.lists(point, min_size=1, max_size=max_size).map(canonicalize)

    return st.integers(1, max_n).flatmap(build)


def subset_configurations(*grids, step=1):
    """Every step-th nonempty subset of each grid, by bitmask over its
    cells in lexicographic order, canonicalized."""
    for dims in grids:
        cells = sorted(itertools.product(*[range(1, r + 1) for r in dims]))
        for mask in range(1, 1 << len(cells), step):
            yield canonicalize([c for b, c in enumerate(cells) if mask >> b & 1])


def relabel(X, direction_perm=None, level_perms=None):
    """X with its directions and the levels within each direction permuted.

    ``direction_perm[k]`` is the old direction whose (level-permuted)
    coordinate becomes new coordinate ``k+1``.  ``level_perms`` is indexed
    by old direction; the entry for direction i sends old level j to
    ``level_perms[i-1][j-1]``.  The permutations are trusted, not checked.
    """
    dperm = direction_perm or range(1, X.n + 1)
    lperms = level_perms or [range(1, r + 1) for r in X.dims]
    points = frozenset(tuple(lperms[d - 1][p[d - 1] - 1] for d in dperm) for p in X.points)
    return PointSet(n=X.n, dims=tuple(X.dims[d - 1] for d in dperm), points=points)


def cube_sample(seed, count=405):
    """``count`` seeded canonical subsets of the 3x3x3 grid, each size
    1..27 equally often in a seeded order: the draw of the
    ``sample_3x3x3`` benchmark workload."""
    cells = sorted(itertools.product((1, 2, 3), repeat=3))
    rng = random.Random(seed)
    sizes = [1 + k % len(cells) for k in range(count)]
    rng.shuffle(sizes)
    return [canonicalize(rng.sample(cells, k)) for k in sizes]
