"""The deciders on cell masks against the routes through canonical PointSets.

``acmpts enumerate`` asks ``acm_on_grid``, ``cm_on_grid``,
``inclusion_on_grid`` and ``interface_on_grid`` about subsets of its run's
grid, which need not use every level, and ``level_structure`` projects
levels with ``project_mask``.  Each is held here to the route through the
canonical form of the subset: ``is_acm`` and ``is_cm``, the tuple route of
the inclusion property and of interface sets (``structure_reference``),
``interface_set``, and projection of point tuples.  The inputs are every
subset of 2x2x2, 3x3 and 2x2x3, every 97th subset of 2x2x2x2 and both
seeded 3x3x3 samples, each as a mask on its grid and, canonicalized, as a
mask on its own grid.
"""

import itertools
import random

import pytest

from acmpts.grid_model import canonicalize, cell_table, project_mask
from acmpts.level_structure import inclusion_on_grid, interface_on_grid, interface_set
from acmpts.reisner_oracle import cm_on_grid, is_cm
from acmpts.star_property import acm_on_grid, is_acm
from conftest import cube_sample
from structure_reference import reference_inclusion_property, reference_interface_set


def cube_masks(seed, count=405):
    """The draws of ``conftest.cube_sample`` as masks on the 3x3x3 grid."""
    cells = sorted(itertools.product((1, 2, 3), repeat=3))
    rng = random.Random(seed)
    sizes = [1 + k % len(cells) for k in range(count)]
    rng.shuffle(sizes)
    return [sum(1 << cells.index(c) for c in rng.sample(cells, k)) for k in sizes]


def grid_subsets():
    """(dims, mask) for every input: each mask on its grid, then each
    distinct canonical form on its own grid."""
    inputs = [((2, 2, 2), range(1, 1 << 8)), ((3, 3), range(1, 1 << 9)),
              ((2, 2, 3), range(1, 1 << 12)), ((2, 2, 2, 2), range(1, 1 << 16, 97)),
              ((3, 3, 3), cube_masks(42)), ((3, 3, 3), cube_masks(7))]
    on_grid = [(dims, mask) for dims, masks in inputs for mask in masks]
    canonical = {canonicalize(cells_of(dims, mask)) for dims, mask in on_grid}
    return on_grid + [(X.dims, X.cell_mask) for X in sorted(canonical, key=repr)]


def cells_of(dims, mask):
    return [c for k, c in enumerate(cell_table(dims)[0]) if mask >> k & 1]


def mask_of(dims, points):
    index = cell_table(dims)[1]
    return sum(1 << index[p] for p in set(points))


@pytest.fixture(scope="module")
def subsets():
    return grid_subsets()


def test_cube_masks_are_the_benchmark_draws():
    for seed in (42, 7):
        drawn = [canonicalize(cells_of((3, 3, 3), mask)) for mask in cube_masks(seed)]
        assert drawn == cube_sample(seed)


def test_verdicts_on_a_grid_are_those_of_the_canonical_form(subsets):
    """A subset that does not use every level of its grid has the star
    and Reisner verdicts of its canonical form.  In two directions the
    star verdict is the inclusion property in direction 1, which
    ``inclusion_on_grid`` reads for shadows on such grids."""
    assert len(subsets) > 6000
    for dims, mask in subsets:
        X = canonicalize(cells_of(dims, mask))
        assert acm_on_grid(dims, mask) == is_acm(X), (dims, mask)
        assert cm_on_grid(dims, mask) == is_cm(X), (dims, mask)
        if len(dims) == 2:
            assert inclusion_on_grid(dims, mask, 1) == is_acm(X), (dims, mask)


def test_projection_deletes_one_coordinate(subsets):
    for dims, mask in subsets:
        cells = cells_of(dims, mask)
        for i in range(1, len(dims) + 1):
            rest = dims[: i - 1] + dims[i:]
            expected = mask_of(rest, [p[: i - 1] + p[i:] for p in cells])
            assert project_mask(dims, mask, i) == expected, (dims, mask, i)


def test_inclusion_on_grid_matches_the_tuple_route(subsets):
    """Every direction, against the route that canonicalizes each shadow."""
    for dims, mask in subsets:
        X = canonicalize(cells_of(dims, mask))
        for i in range(1, len(dims) + 1):
            expected = reference_inclusion_property(X, i)
            assert inclusion_on_grid(dims, mask, i) == expected, (dims, mask, i)


def test_interface_on_grid_matches_interface_set(subsets):
    """On its grid, an interface is the points off the level over the
    level's shadow.  On a canonical set's own grid, level l is level l of
    the set, and the interface, canonicalized, is ``interface_set``, which
    equals the tuple route; each canonical set is checked there once."""
    seen = set()
    for dims, mask in subsets:
        cells = cells_of(dims, mask)
        X = canonicalize(cells)
        if X.dims != dims or X in seen:
            X = None
        seen.add(X)
        for i in range(1, len(dims) + 1):
            for level in sorted({p[i - 1] for p in cells}):
                shadow = {p[: i - 1] + p[i:] for p in cells if p[i - 1] == level}
                rest = [p for p in cells if p[i - 1] != level and p[: i - 1] + p[i:] in shadow]
                iface = interface_on_grid(dims, mask, i, level)
                assert iface == mask_of(dims, rest), (dims, mask, i, level)
                if X is not None and dims[i - 1] > 1:
                    expected = reference_interface_set(X, i, level)
                    assert interface_set(X, i, level) == expected, (dims, mask, i, level)
                    assert (canonicalize(rest) if rest else expected) == expected
