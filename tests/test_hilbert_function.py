import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings

from acmpts import (
    canonicalize,
    delta_table,
    evaluation_rank,
    hilbert_function,
    hilbert_table,
    linalg,
    relabel,
)
from acmpts.constructions import _layer_pieces, verify_layer_hf
from acmpts.errors import BadDegree, InputError
from acmpts.level_structure import max_level_size
from acmpts.linalg import echelon_insert
from conftest import (
    ELEVEN_MOVED,
    ELEVEN_POINTS,
    SIX_POINTS,
    STAR_BLIND_EIGHT,
    TWELVE_CHAIN,
    grid_configurations,
)
from test_linalg import reference_rank

KNOWN_SLICES = {
    0: [(1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)],
    1: [(1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)],
}


def test_hilbert_single_point():
    X = canonicalize([(1, 1)])
    for t in [(0, 0), (1, 2), (3, 3)]:
        assert evaluation_rank(X.points, t) == 1


def test_hilbert_full_grid_degree_one():
    X = canonicalize([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert evaluation_rank(X.points, (1, 1)) == 4


def test_hilbert_eleven_point_corner(eleven_points):
    assert evaluation_rank(eleven_points.points, (3, 3, 3)) == 11


@pytest.mark.parametrize(
    "points",
    [
        [(True, 2), (2, 1)],
        [(1.0, 2), (2, 1)],
        [(1.5, 2), (2, 1)],
        [("a", 2), (2, 1)],
        [[1, 2], [2, 1]],
    ],
)
def test_evaluation_points_must_be_tuples_of_ints(points):
    """A bool would be ranked as the node 1 (giving 2 here), and the
    others would fail inside the arithmetic."""
    with pytest.raises(InputError, match="not a tuple of integers"):
        evaluation_rank(points, (1, 1))


def test_hilbert_degree_errors(eleven_points):
    with pytest.raises(BadDegree):
        evaluation_rank(eleven_points.points, (1, -1, 0))
    with pytest.raises(BadDegree):
        evaluation_rank(eleven_points.points, (1, 1))
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
    assert evaluation_rank(X.points, (X.size,) * X.n) == X.size


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
    assert evaluation_rank(canonicalize(diag).points, (1, 1)) == 3
    assert evaluation_rank(canonicalize(swapped).points, (1, 1)) == 4


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
        values = hilbert_function._box_values(points, (4, 3, 2))
        degrees = itertools.product(range(5), range(4), range(3))
        for t, value in zip(degrees, values, strict=True):
            assert value == evaluation_rank(points, t)


def test_full_grid_table_ranks_each_saturated_degree_once(monkeypatch):
    # The table comes from one echelon walk over the 27 clamped degrees,
    # with no per-degree matrix left to hand to rank_int.
    def forbidden(matrix):
        raise AssertionError("hilbert_table called rank_int")

    monkeypatch.setattr(hilbert_function, "rank_int", forbidden)
    X = canonicalize(itertools.product((1, 2, 3), repeat=3))
    ht = hilbert_table(X, (5, 5, 5))
    assert len(ht.values) == 216
    for t, v in ht.values.items():
        assert v == min(t[0] + 1, 3) * min(t[1] + 1, 3) * min(t[2] + 1, 3)


def random_raw_points(rng, n):
    """Up to 12 points on 1-4 seeded integer nodes per coordinate, drawn
    from -6..9, so nodes can be negative and gapped."""
    nodes = [rng.sample(range(-6, 10), rng.randint(1, 4)) for _ in range(n)]
    cells = list(itertools.product(*nodes))
    return rng.sample(cells, rng.randint(1, min(len(cells), 12)))


def assert_box_values_match_evaluation_rank(points, box):
    """The walk against independent per-degree ranks on monomials, at
    every degree of the box."""
    values = hilbert_function._box_values(points, box)
    for t, value in zip(hilbert_function.box_degrees(box), values, strict=True):
        assert value == evaluation_rank(points, t), (points, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ranker_matches_evaluation_rank_on_random_raw_nodes(n):
    rng = random.Random(1400 + n)
    for _ in range(60):
        box = [rng.randint(0, 4) for _ in range(n)]
        assert_box_values_match_evaluation_rank(random_raw_points(rng, n), box)


@pytest.mark.parametrize("n", [3, 4])
def test_walk_widens_on_newton_entries_above_2_to_the_32(monkeypatch, n):
    # Nodes spread over -10^6..10^6, so negative and far apart: the Newton
    # entries outgrow the first 32-bit fields and the walk is packed wider.
    rng = random.Random(1710 + n)
    widths = []
    pack = linalg.pack

    def recording(vectors, width):
        packed = pack(vectors, width)
        widths.append(width)
        return packed

    for _ in range(12):
        nodes = [rng.sample(range(-(10**6), 10**6), rng.randint(2, 3)) for _ in range(n)]
        cells = list(itertools.product(*nodes))
        points = rng.sample(cells, rng.randint(n + 2, min(len(cells), 12)))
        box = [rng.randint(1, 2) for _ in range(n)]
        pts = sorted(set(points))
        capped = [sorted({p[i] for p in pts})[:cap] for i, cap in enumerate(box)]
        assert max(map(max, hilbert_function._newton_columns(pts, capped))) > 1 << 32
        hilbert_function._walk.cache_clear()
        widths.clear()
        monkeypatch.setattr(linalg, "pack", recording)
        values = hilbert_function._box_values(points, box)
        monkeypatch.setattr(linalg, "pack", pack)
        assert min(widths) > linalg.WIDTH
        for t, value in zip(hilbert_function.box_degrees(box), values, strict=True):
            assert value == evaluation_rank(points, t), (points, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ranker_matches_fraction_elimination_on_monomials(n):
    # The walk and evaluation_rank share echelon_insert, so a fault in it
    # could hide from the comparison above; this one ranks the monomial
    # matrices by elimination over Fractions instead.
    rng = random.Random(1600 + n)
    for _ in range(30):
        points = random_raw_points(rng, n)
        box = [rng.randint(0, 5 - n) for _ in range(n)]
        values = hilbert_function._box_values(points, box)
        pts = sorted(set(points))
        for t, value in zip(hilbert_function.box_degrees(box), values, strict=True):
            assert value == reference_rank(hilbert_function._evaluation_rows(pts, t)), (points, t)


def test_ranker_matches_evaluation_rank_on_layer_pieces():
    # Both placements of the layer: fresh=False shifts the base up one
    # level and puts the layer at level 1; every set the identity ranks
    # is checked, at the boxes it ranks them on.
    rng = random.Random(1405)
    for _ in range(30):
        n = rng.randint(2, 4)
        X = canonicalize(random_raw_points(rng, n))
        i = rng.randint(1, n)
        T = [rng.randint(0, 3) for _ in range(n)]
        below = [max(ti - (k == i - 1), 0) for k, ti in enumerate(T)]
        for fresh in (True, False):
            base, layer = _layer_pieces(X, i, fresh)
            assert_box_values_match_evaluation_rank(base | layer, T)
            assert_box_values_match_evaluation_rank(layer, T)
            assert_box_values_match_evaluation_rank(base, below)
            assert verify_layer_hf(X, i, T, fresh)


GAPPED = [(1, 2, 1), (1, 2, 7), (3, 2, 1), (3, 5, 7), (4, 5, 1), (4, 6, 7), (9, 8, 7)]


@pytest.mark.parametrize("first, second", [((1, 1, 0), (3, 2, 1)), ((3, 2, 1), (1, 1, 0))])
def test_walk_memo_serves_a_second_box_on_the_same_points(first, second):
    # The two boxes clamp to different caps, so the second one is walked
    # on its own key; both answers match a cold walk and the per-degree
    # reference.
    hilbert_function._walk.cache_clear()
    cold = hilbert_function._box_values(GAPPED, second)
    hilbert_function._walk.cache_clear()
    hilbert_function._box_values(GAPPED, first)
    assert hilbert_function._box_values(GAPPED, second) == cold
    assert_box_values_match_evaluation_rank(GAPPED, second)
    assert_box_values_match_evaluation_rank(GAPPED, first)


@pytest.mark.parametrize(
    "a, b",
    [
        ([(k, k) for k in range(1, 5)], [(1, 1), (2, 2), (3, 3), (5, 4)]),
        (GAPPED, canonicalize(GAPPED).sorted_points()),
    ],
    ids=["four-levels", "gapped"],
)
def test_walk_memo_keys_on_raw_points(a, b):
    # Same canonical form, different evaluation nodes, different h: the
    # second set must not read the first set's walk.
    assert canonicalize(a) == canonicalize(b)
    box = (3, 3) if len(a[0]) == 2 else (3, 2, 1)
    degrees = list(hilbert_function.box_degrees(box))
    assert [evaluation_rank(a, t) for t in degrees] != [evaluation_rank(b, t) for t in degrees]
    hilbert_function._walk.cache_clear()
    for points in (a, b, a):
        assert_box_values_match_evaluation_rank(points, box)


def test_walk_memo_does_not_keep_a_failed_walk(monkeypatch):
    hilbert_function._walk.cache_clear()
    calls = []

    def failing(basis, v):
        calls.append(v)
        if len(calls) == 5:
            raise RuntimeError("interrupted")
        return echelon_insert(basis, v)

    monkeypatch.setattr(hilbert_function, "echelon_insert", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        hilbert_function._box_values(GAPPED, (3, 2, 1))
    monkeypatch.undo()
    assert_box_values_match_evaluation_rank(GAPPED, (3, 2, 1))


def test_walk_memo_under_concurrent_requests():
    # Threads ask for growing and shrinking boxes on the same points while
    # the memo is cleared under them; every answer must stay exact.
    hilbert_function._walk.cache_clear()
    boxes = [(1, 1, 0), (3, 2, 1), (0, 2, 1), (2, 0, 1), (3, 3, 3)]
    expected = {box: [evaluation_rank(GAPPED, t) for t in hilbert_function.box_degrees(box)] for box in boxes}
    wrong = []

    def worker(offset):
        for k in range(40):
            box = boxes[(k + offset) % len(boxes)]
            got = hilbert_function._box_values(GAPPED, box)
            if got != expected[box]:
                wrong.append(box)
            if k % 7 == offset:
                hilbert_function._walk.cache_clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_layer_check_reads_the_delta_table_walk(monkeypatch):
    # The layer identity's base term is X itself, walked at the box's
    # clamped caps, which are those of X's own Δ table on (3, 3, 3): a
    # pass walks X, the layered set and the layer once each.
    rng = random.Random(2020)
    cells = list(itertools.product((1, 2, 3), repeat=3))
    walks = []
    newton_walk = hilbert_function._newton_walk

    def counted(pts, nodes, caps):
        walks.append(caps)
        return newton_walk(pts, nodes, caps)

    monkeypatch.setattr(hilbert_function, "_newton_walk", counted)
    for _ in range(20):
        X = canonicalize(rng.sample(cells, rng.randint(4, 27)))
        hilbert_function._walk.cache_clear()
        walks.clear()
        delta_table(X, (3, 3, 3))
        assert verify_layer_hf(X, 1, (2, 2, 2))
        assert len(walks) == 3, (X, walks)
