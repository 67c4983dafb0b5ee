import itertools

import pytest
from hypothesis import given, settings

from acmpts import (
    canonicalize,
    delta_table,
    evaluation_rank,
    hilbert_function,
    hilbert_table,
    hilbert_value,
    relabel,
)
from acmpts.constructions import verify_layer_hf
from acmpts.errors import BadDegree
from acmpts.level_structure import max_level_size
from conftest import (
    ELEVEN_MOVED,
    ELEVEN_POINTS,
    SIX_POINTS,
    STAR_BLIND_EIGHT,
    TWELVE_CHAIN,
    grid_configurations,
)

KNOWN_SLICES = {
    0: [(1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)],
    1: [(1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)],
}


def test_hilbert_single_point():
    X = canonicalize([(1, 1)])
    for t in [(0, 0), (1, 2), (3, 3)]:
        assert hilbert_value(X, t) == 1


def test_hilbert_full_grid_degree_one():
    X = canonicalize([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert hilbert_value(X, (1, 1)) == 4


def test_hilbert_eleven_point_corner(eleven_points):
    assert hilbert_value(eleven_points, (3, 3, 3)) == 11


def test_hilbert_degree_errors(eleven_points):
    with pytest.raises(BadDegree):
        hilbert_value(eleven_points, (1, -1, 0))
    with pytest.raises(BadDegree):
        hilbert_value(eleven_points, (1, 1))
    with pytest.raises(BadDegree):
        evaluation_rank([(1, 1, 1), (2, 2, 2), (1, 2, 1)], (1, 1))


def test_hilbert_table_single_point():
    ht = hilbert_table(canonicalize([(1, 1)]), (2, 2))
    assert all(v == 1 for v in ht.values.values())


def test_hilbert_table_diagonal_pair():
    ht = hilbert_table(canonicalize([(1, 1), (2, 2)]), (1, 1))
    assert ht.values == {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 2}


def test_hilbert_table_eleven_points(eleven_points):
    ht = hilbert_table(eleven_points, (3, 3, 3))
    assert len(ht.values) == 64
    assert ht[(3, 3, 3)] == 11
    assert ht[(0, 0, 0)] == 1


def test_delta_table_matches_printed_slices(eleven_points):
    dt = delta_table(eleven_points, (3, 3, 3))
    for i, rows in KNOWN_SLICES.items():
        for j in range(4):
            assert tuple(dt[(i, j, k)] for k in range(4)) == rows[j]
    assert dt[(2, 0, 0)] == 1
    for t, v in dt.values.items():
        if t[0] == 2 and t != (2, 0, 0):
            assert v == 0
        if t[0] == 3:
            assert v == 0


def test_delta_single_point():
    dt = delta_table(canonicalize([(1, 1)]), (2, 2))
    assert dt[(0, 0)] == 1
    assert all(v == 0 for t, v in dt.values.items() if t != (0, 0))


def test_slice_sum_exceeds_max_level_size(eleven_points):
    dt = delta_table(eleven_points, (3, 3, 3))
    slice_sum = sum(dt[(0, j, k)] for j in range(4) for k in range(4))
    assert slice_sum == 6
    assert max_level_size(eleven_points) == 5 < slice_sum


def test_moved_point_variant_same_table():
    dt = delta_table(canonicalize(ELEVEN_POINTS), (3, 3, 3))
    dt_moved = delta_table(canonicalize(ELEVEN_MOVED), (3, 3, 3))
    assert dt.values == dt_moved.values


@given(grid_configurations(max_n=2, max_levels=3, max_size=6))
@settings(max_examples=30, deadline=None)
def test_delta_telescopes_to_corner_value(X):
    T = (3,) * X.n
    ht = hilbert_table(X, T)
    dt = delta_table(X, T)
    assert sum(dt.values.values()) == ht[T]


@given(grid_configurations(max_n=2, max_levels=3, max_size=5))
@settings(max_examples=20, deadline=None)
def test_hilbert_stabilizes_at_size(X):
    assert hilbert_value(X, (X.size,) * X.n) == X.size


@given(grid_configurations(max_n=2, max_levels=3, max_size=6))
@settings(max_examples=30, deadline=None)
def test_hilbert_monotone(X):
    ht = hilbert_table(X, (2,) * X.n)
    for t, v in ht.values.items():
        assert v <= X.size
        for i in range(X.n):
            if t[i] > 0:
                below = t[:i] + (t[i] - 1,) + t[i + 1 :]
                assert ht[below] <= v
    assert ht[(0,) * X.n] == 1


@given(grid_configurations(max_n=3, max_levels=2, max_size=6))
@settings(max_examples=25, deadline=None)
def test_direction_permutation_equivariance(X):
    if X.n < 2:
        return
    perm = list(range(X.n, 0, -1))
    Y = relabel(X, direction_perm=perm)
    T = (2,) * X.n
    dX = delta_table(X, T)
    dY = delta_table(Y, T)
    for t, v in dX.values.items():
        assert dY[tuple(t[d - 1] for d in perm)] == v


@given(grid_configurations(max_n=2, max_levels=3, max_size=7))
@settings(max_examples=25, deadline=None)
def test_level_relabel_invariance_on_small_grids(X):
    # Holds because any permutation of up to three evaluation nodes in a
    # direction extends to a fractional-linear substitution, which acts
    # by an invertible change of basis in each graded piece.  On four or
    # more levels this can fail, so the property is asserted only here.
    perms = [list(range(r, 0, -1)) for r in X.dims]
    Y = relabel(X, None, perms)
    T = (2,) * X.n
    assert hilbert_table(X, T).values == hilbert_table(Y, T).values
    assert delta_table(X, T).values == delta_table(Y, T).values


def test_level_relabel_can_change_rank_on_four_levels():
    # Four aligned diagonal points admit a degree-(1,1) relation; after
    # swapping two levels the relation disappears.  This pins down why
    # the invariance test above restricts to at most three levels.
    diag = [(k, k) for k in range(1, 5)]
    swapped = [(1, 1), (2, 2), (3, 4), (4, 3)]
    assert hilbert_value(canonicalize(diag), (1, 1)) == 3
    assert hilbert_value(canonicalize(swapped), (1, 1)) == 4


def test_table_lookup_accepts_sequences(eleven_points):
    ht = hilbert_table(eleven_points, (1, 1, 1))
    assert ht[[1, 1, 1]] == ht[(1, 1, 1)]


def all_subsets(grid):
    cells = sorted(itertools.product(*[range(1, r + 1) for r in grid]))
    return [
        canonicalize([c for b, c in enumerate(cells) if mask >> b & 1])
        for mask in range(1, 1 << len(cells))
    ]


FIXTURES = [SIX_POINTS, ELEVEN_POINTS, ELEVEN_MOVED, TWELVE_CHAIN, STAR_BLIND_EIGHT]


@pytest.mark.parametrize("bad", [(1.5, 1), (True, 1), (1, False), ("1", 1)])
def test_degree_entries_must_be_integers(bad):
    X = canonicalize([(1, 1), (2, 2), (2, 1)])
    with pytest.raises(BadDegree):
        hilbert_table(X, bad)
    with pytest.raises(BadDegree):
        delta_table(X, bad)
    with pytest.raises(BadDegree):
        evaluation_rank(X.points, bad)
    with pytest.raises(BadDegree):
        hilbert_value(X, bad)
    with pytest.raises(BadDegree):
        verify_layer_hf(X, 1, bad)


def inclusion_exclusion(ht, n):
    """Alternating sum of h over all 2^n unit down-shifts, h = 0 below 0."""
    out = {}
    for t in ht.values:
        total = 0
        for mask in range(1 << n):
            shifted = tuple(t[i] - (mask >> i & 1) for i in range(n))
            if min(shifted) >= 0:
                total += (-1) ** bin(mask).count("1") * ht.values[shifted]
        out[t] = total
    return out


def test_delta_matches_inclusion_exclusion():
    cases = [(canonicalize(pts), (3, 2, 4)) for pts in FIXTURES[:4]]
    cases.append((canonicalize(STAR_BLIND_EIGHT), (2, 1, 2, 1)))
    cases += [(X, (2, 3, 1)) for X in all_subsets((2, 2, 2))]
    for X, T in cases:
        dt = delta_table(X, T)
        expected = inclusion_exclusion(hilbert_table(X, T), X.n)
        assert list(dt.values.items()) == list(expected.items())
        assert list(dt.values) == list(itertools.product(*[range(Ti + 1) for Ti in T]))


@pytest.mark.parametrize("grid, T", [((2, 2, 2), (4, 4, 4)), ((3, 3), (5, 5))])
def test_saturated_table_matches_per_degree_rank(grid, T):
    for X in all_subsets(grid):
        ht = hilbert_table(X, T)
        assert ht.values == {t: evaluation_rank(X.points, t) for t in ht.values}


def test_saturated_ranker_on_raw_nodes_with_gaps():
    nodes = [(1, 3, 4, 9), (2, 5, 6), (1, 7)]
    cells = list(itertools.product(*nodes))
    for k in range(1, len(cells) + 1, 5):
        points = cells[::k]
        rank = hilbert_function._saturated_ranker(points, (4, 3, 2))
        for t in itertools.product(range(5), range(4), range(3)):
            assert rank(t) == evaluation_rank(points, t)


def test_full_grid_table_ranks_each_saturated_degree_once(monkeypatch):
    calls = []
    original = hilbert_function.rank_int

    def counting(matrix):
        calls.append((len(matrix), len(matrix[0])))
        return original(matrix)

    monkeypatch.setattr(hilbert_function, "rank_int", counting)
    X = canonicalize(itertools.product((1, 2, 3), repeat=3))
    ht = hilbert_table(X, (5, 5, 5))
    assert len(calls) == 27
    assert max(calls) == (27, 27)
    for t, v in ht.values.items():
        assert v == min(t[0] + 1, 3) * min(t[1] + 1, 3) * min(t[2] + 1, 3)
