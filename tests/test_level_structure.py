import pytest
from hypothesis import given, settings

from acmpts import canonicalize, is_acm
from acmpts.errors import BadDirection, BadLevel, EmptyConfiguration, WouldBeEmpty
from acmpts.level_structure import (
    inclusion_property,
    interface_set,
    level_sets,
    max_level_size,
    remove_level,
)
from conftest import grid_configurations, relabel


def test_level_sizes(six_points, eleven_points):
    assert level_sets(eleven_points, 1).sizes() == [1, 5, 5]
    assert level_sets(eleven_points, 2).sizes() == [5, 1, 5]
    assert level_sets(eleven_points, 3).sizes() == [5, 5, 1]
    assert level_sets(six_points, 1).sizes() == [3, 3]
    assert level_sets(canonicalize([(1, 1)]), 2).sizes() == [1]


def test_level_sets_bad_direction(six_points):
    with pytest.raises(BadDirection):
        level_sets(six_points, 0)


@pytest.mark.parametrize(
    "fn, args, error",
    [
        (level_sets, (1.0,), BadDirection),
        (level_sets, (True,), BadDirection),
        (remove_level, (True, 1), BadDirection),
        (remove_level, (1, 1.0), BadLevel),
        (interface_set, (1, 1.0), BadLevel),
        (interface_set, (1, True), BadLevel),
    ],
)
def test_direction_and_level_must_be_ints(fn, args, error):
    with pytest.raises(error):
        fn(canonicalize([(1, 1), (2, 2), (1, 2)]), *args)


@given(grid_configurations())
@settings(max_examples=60)
def test_level_sets_partition(X):
    for i in range(1, X.n + 1):
        dec = level_sets(X, i)
        assert sum(dec.sizes()) == X.size
        seen = set()
        for j, part in dec.levels:
            assert part
            assert all(p[i - 1] == j for p in part)
            assert not (part & seen)
            seen |= part
        assert seen == X.points


def test_inclusion_chain_configuration(twelve_chain):
    assert inclusion_property(twelve_chain, 1) is True
    assert inclusion_property(twelve_chain, 2) is False
    assert inclusion_property(twelve_chain, 3) is False


def test_inclusion_fails_everywhere_for_eleven_points(eleven_points):
    assert all(not inclusion_property(eleven_points, i) for i in (1, 2, 3))


def test_inclusion_single_level_direction():
    X = canonicalize([(1, 1, 1), (1, 1, 2)])  # one level, ACM shadow
    assert inclusion_property(X, 1) is True
    Y = canonicalize([(1, 1, 1), (1, 2, 2)])  # one level, diagonal shadow
    assert inclusion_property(Y, 1) is False


def test_inclusion_needs_two_directions():
    with pytest.raises(BadDirection):
        inclusion_property(canonicalize([(1,), (2,)]), 1)


def test_remove_level(eleven_points, six_points):
    assert remove_level(eleven_points, 1, 1).size == 10
    two = canonicalize([(1, 1), (2, 2)])
    assert remove_level(two, 1, 1) == canonicalize([(2, 2)])
    assert remove_level(six_points, 1, 2) == canonicalize(
        [(1, 1, 2), (1, 2, 1), (1, 2, 2)]
    )


def test_remove_level_errors(six_points):
    with pytest.raises(BadDirection):
        remove_level(six_points, 5, 1)
    with pytest.raises(BadLevel):
        remove_level(six_points, 1, 3)
    with pytest.raises(WouldBeEmpty):
        remove_level(canonicalize([(1, 1), (1, 2)]), 1, 1)


def test_interface_set(eleven_points):
    full = canonicalize([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert interface_set(full, 1, 1) == canonicalize([(1, 1), (1, 2)])
    empty = interface_set(canonicalize([(1, 1), (2, 2)]), 1, 1)
    assert empty.size == 0 and empty.n == 2
    # points of the other slices over the shadow of the first slice
    assert interface_set(eleven_points, 1, 1) == canonicalize([(2, 1, 1), (3, 1, 1)])


def test_interface_set_errors(six_points):
    with pytest.raises(BadLevel):
        interface_set(six_points, 1, 9)
    with pytest.raises(WouldBeEmpty):
        interface_set(canonicalize([(1, 1), (1, 2)]), 1, 1)


def test_max_level_size(eleven_points):
    assert max_level_size(eleven_points) == 5
    assert max_level_size(canonicalize([(1, 1, 1)])) == 1
    cube = canonicalize([(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)])
    assert max_level_size(cube) == 4
    from acmpts.grid_model import PointSet

    with pytest.raises(EmptyConfiguration):
        max_level_size(PointSet.empty(2))


def test_acm_consequences_for_eleven_points(eleven_points):
    """Level sets, complements and interfaces of an ACM configuration
    are ACM again."""
    X = eleven_points
    assert is_acm(X)
    for i in (1, 2, 3):
        for j, part in level_sets(X, i).levels:
            assert is_acm(canonicalize(sorted(part)))
            assert is_acm(remove_level(X, i, j))
            iface = interface_set(X, i, j)
            assert iface.size == 0 or is_acm(iface)


@given(grid_configurations(max_n=2, max_levels=3, max_size=9))
@settings(max_examples=60)
def test_inclusion_characterizes_acm_for_two_directions(X):
    if X.n != 2:
        return
    covered = inclusion_property(X, 1) or inclusion_property(X, 2)
    assert covered == is_acm(X)


def test_inclusion_implies_acm_in_three_directions():
    import itertools

    cells = sorted(itertools.product((1, 2), (1, 2), (1, 2)))
    for mask in range(1, 1 << 8):
        X = canonicalize([cells[b] for b in range(8) if mask >> b & 1])
        if any(inclusion_property(X, i) for i in (1, 2, 3)):
            assert is_acm(X)


@given(grid_configurations(max_n=3, max_levels=2, max_size=6))
@settings(max_examples=40)
def test_inclusion_invariant_under_level_relabeling(X):
    if X.n < 2:
        return
    Y = relabel(X, None, [list(range(r, 0, -1)) for r in X.dims])
    for i in range(1, X.n + 1):
        assert inclusion_property(X, i) == inclusion_property(Y, i)
