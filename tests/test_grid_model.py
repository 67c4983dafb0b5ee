import itertools
import sys
import threading

import pytest
from hypothesis import given

from acmpts import canonicalize, grid_model, project
from acmpts.errors import (
    BadDirection,
    DimensionMismatch,
    EmptyConfiguration,
    InputError,
)
from acmpts.grid_model import PointSet, cell_table
from conftest import ELEVEN_POINTS, cube_sample, grid_configurations, relabel, subset_configurations


def test_canonicalize_relabels_order_preserving():
    X = canonicalize([(2, 5), (7, 5)])
    assert X.n == 2
    assert X.dims == (2, 1)
    assert X.points == {(1, 1), (2, 1)}


def test_canonicalize_single_point():
    X = canonicalize([(1, 1, 1)])
    assert X.dims == (1, 1, 1)
    assert X.points == {(1, 1, 1)}


def test_canonicalize_eleven_point_example():
    X = canonicalize(ELEVEN_POINTS)
    assert X.dims == (3, 3, 3)
    assert X.size == 11


def test_canonicalize_merges_duplicates():
    X = canonicalize([(1, 1), (1, 1), (3, 1)])
    assert X.size == 2


def test_canonicalize_rejects_empty():
    with pytest.raises(EmptyConfiguration):
        canonicalize([])


def test_canonicalize_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        canonicalize([(1, 2), (1, 2, 3)])


@pytest.mark.parametrize(
    "raw, error, message",
    [
        ([()], DimensionMismatch, "at least one coordinate"),
        ([(1, 1.5)], InputError, "coordinate 1.5 is not an integer"),
    ],
    ids=["no-coordinate", "float"],
)
def test_canonicalize_rejects_empty_and_non_integer_points(raw, error, message):
    with pytest.raises(error, match=message):
        canonicalize(raw)


@pytest.mark.parametrize(
    "n, dims, points, error, message",
    [
        (0, (), [], InputError, "dimension count must be >= 1"),
        (2, (1,), [(1, 1)], DimensionMismatch, "dims length must equal n"),
        (2, (1, 1), [(1, 1, 1)], DimensionMismatch, r"point \(1, 1, 1\) has wrong length"),
        (2, (1, 1), [(1, 2)], InputError, "coordinate 2 outside 1..1 in direction 2"),
        (2, (2, 1), [(1, 1)], InputError, "direction 1 has unused levels"),
        (2, (1, 1), [(1.0, 1)], InputError, "coordinate 1.0 is not an integer"),
        (2, (1, 1), [(True, True)], InputError, "coordinate True is not an integer"),
        (1, (2,), [(1,), (2.0,)], InputError, "coordinate 2.0 is not an integer"),
        (2.0, (1, 1), [(1, 1)], InputError, "dimension count 2.0 is not an integer"),
        (True, (1,), [(1,)], InputError, "dimension count True is not an integer"),
        (2, (1.0, 1), [(1, 1)], InputError, r"level count 1.0 in direction 1 is not an integer"),
    ],
    ids=["no-direction", "dims-length", "point-length", "out-of-range", "unused-level",
         "float", "bool", "float-level", "float-n", "bool-n", "float-dims"],
)
def test_point_set_built_directly_is_validated(n, dims, points, error, message):
    with pytest.raises(error, match=message):
        PointSet(n=n, dims=dims, points=frozenset(points))


@pytest.mark.parametrize(
    "dims, points, message",
    [
        ((1, 1), ((1, 1), (1, 1)), r"points \(\(1, 1\), \(1, 1\)\) are not a frozenset"),
        ((2, 2), {(1, 1), (2, 2)}, "are not a frozenset"),
        ((2, 2), [(1, 1), (2, 2)], "are not a frozenset"),
        ([2, 2], frozenset({(1, 1), (2, 2)}), r"dims \[2, 2\] is not a tuple"),
    ],
    ids=["tuple-with-repeat", "set", "list", "list-dims"],
)
def test_point_set_fields_must_be_tuple_and_frozenset(dims, points, message):
    """A repeated point in a tuple would count twice in ``size``, and a set
    or a list would fail later as an unhashable key."""
    with pytest.raises(InputError, match=message):
        PointSet(n=2, dims=dims, points=points)


@pytest.mark.parametrize("point", [range(1, 3), 7, "12", frozenset({1, 2})])
def test_point_set_points_must_be_tuples(point):
    """A point that is not a tuple, even one whose items are in range,
    would later break ``repr`` and the cell lookups by value."""
    with pytest.raises(InputError, match="is not a tuple"):
        PointSet(n=2, dims=(1, 2), points=frozenset({point, (1, 1)}))


def test_own_cells_index_the_stored_point_objects():
    X = canonicalize([(2, 1), (1, 1), (1, 2)])
    index = cell_table(X.dims)[1]
    entries = X.own_cells
    assert len(entries) == X.size
    for p in X.points:
        stored, k = entries[id(p)]
        assert stored is p and k == index[p]


def test_point_set_repr_lists_sorted_points():
    X = canonicalize([(2, 1), (1, 1), (1, 2)])
    assert repr(X) == "PointSet(n=2, dims=(2, 2), points=[(1, 1),(1, 2),(2, 1)])"


@given(grid_configurations())
def test_canonicalize_idempotent(X):
    assert canonicalize(X.sorted_points()) == X


def test_project_six_points(six_points):
    assert project(six_points, 1).points == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_project_to_single_direction():
    X = canonicalize([(1, 1)])
    Y = project(X, 2)
    assert Y.n == 1
    assert Y.points == {(1,)}


def test_project_eleven_points_dedupes(eleven_points):
    # every direction collapses the eleven points to six shadows
    for i in (1, 2, 3):
        assert project(eleven_points, i).size == 6


def test_project_bad_direction(six_points):
    with pytest.raises(BadDirection):
        project(six_points, 4)
    with pytest.raises(BadDirection):
        project(canonicalize([(1,)]), 1)


@pytest.mark.parametrize("i", [1.0, True])
def test_direction_must_be_an_int(i):
    X = canonicalize([(1, 1), (2, 2), (1, 2)])
    with pytest.raises(BadDirection):
        project(X, i)


@given(grid_configurations())
def test_project_size_bound(X):
    if X.n < 2:
        return
    for i in range(1, X.n + 1):
        images = {p[: i - 1] + p[i:] for p in X.points}
        Y = project(X, i)
        assert Y.size == len(images) <= X.size
        # equality exactly when coordinate deletion is injective on X
        assert (Y.size == X.size) == (len(images) == X.size)


def test_relabel_identity(six_points):
    assert relabel(six_points) == six_points


def test_relabel_swap_directions():
    X = canonicalize([(1, 1), (1, 2)])
    Y = relabel(X, direction_perm=[2, 1])
    assert Y.points == {(1, 1), (2, 1)}  # (1,2) becomes (2,1)
    assert Y.dims == (2, 1)


def test_relabel_swap_levels():
    X = canonicalize([(1, 1), (2, 2)])
    Y = relabel(X, level_perms=[[2, 1], [1, 2]])
    assert Y.points == {(2, 1), (1, 2)}


@given(grid_configurations())
def test_relabel_preserves_size(X):
    reversed_dirs = list(range(X.n, 0, -1))
    reversed_levels = [list(range(r, 0, -1)) for r in X.dims]
    Y = relabel(X, reversed_dirs, reversed_levels)
    assert Y.size == X.size
    # applying the inverse relabeling twice returns the original
    assert relabel(Y, reversed_dirs, [list(range(r, 0, -1)) for r in Y.dims]) == X


def test_cell_mask_sets_the_bit_of_each_point_in_cell_table_order():
    for X in subset_configurations((2, 2, 3)):
        cells = cell_table(X.dims)[0]
        assert X.cell_mask == sum(1 << k for k, c in enumerate(cells) if c in X.points)
    assert PointSet.empty(3).cell_mask == 0


def test_cell_mask_and_own_cells_are_computed_once_per_point_set(monkeypatch):
    """``cell_mask`` reads the strides, with no table of the grid's cells,
    and ``own_cells`` reads the table; each is computed on first read only,
    and both agree with the table's numbering."""
    table, strides = grid_model.cell_table, grid_model.cell_strides
    calls = []

    def counted(dims):
        calls.append(("table", dims))
        return table(dims)

    def counted_strides(dims):
        calls.append(("strides", dims))
        return strides(dims)

    monkeypatch.setattr(grid_model, "cell_table", counted)
    monkeypatch.setattr(grid_model, "cell_strides", counted_strides)
    for X in cube_sample(42, 27):
        index = table(X.dims)[1]
        for Y in (X, PointSet(X.n, X.dims, X.points)):
            calls.clear()
            mask, own = Y.cell_mask, Y.own_cells
            assert Y.cell_mask is mask and Y.own_cells is own
            assert calls == [("strides", X.dims), ("table", X.dims)]
            assert mask == sum(1 << index[p] for p in Y.points)
            assert own == {id(p): (p, index[p]) for p in Y.points}


def test_first_reads_race_to_one_value():
    # Threads read both values of fresh PointSets at once; each read must
    # give the value, whichever thread's result is kept.
    X = canonicalize(itertools.product((1, 2, 3), repeat=3))
    fresh = [PointSet(X.n, X.dims, X.points) for _ in range(200)]
    wrong = []

    def reader():
        for Y in fresh:
            if Y.cell_mask != X.cell_mask or Y.own_cells.keys() != X.own_cells.keys():
                wrong.append(Y)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_canonicalize_output_passes_the_checked_constructor():
    """``canonicalize`` builds its PointSet without ``__post_init__``'s
    second pass; its fields must still pass every check of a direct
    ``PointSet(...)``, and give an equal, equally hashed value."""
    for X in [*subset_configurations((2, 2, 3)), *cube_sample(42)]:
        Y = PointSet(n=X.n, dims=X.dims, points=X.points)
        assert (Y, hash(Y)) == (X, hash(X))
        assert type(X.dims) is tuple and type(X.points) is frozenset
