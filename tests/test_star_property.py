import itertools
from collections import deque

import pytest
from hypothesis import given, settings

from acmpts import (
    canonicalize,
    fixture_path,
    grid_model,
    check_star,
    combinatorial_box,
    delta_table,
    find_path,
    hamming_distance,
    is_acm,
    star_property,
)
from acmpts.cli import load_configuration, main
from acmpts.errors import (
    BadLevel,
    DimensionMismatch,
    EmptyConfiguration,
    InternalInvariantViolation,
    PathPreconditionFailed,
)
from acmpts.grid_model import PointSet, cell_table, grid_cells, is_point
from acmpts.reisner_oracle import first_cm_failure
from acmpts.star_property import TYPE_I, TYPE_II, Witness
from conftest import STAR_BLIND_EIGHT, cube_sample, grid_configurations, relabel, subset_configurations


def test_hamming_distance():
    assert hamming_distance((1, 1, 1), (1, 1, 1)) == 0
    assert hamming_distance((1, 1, 1), (2, 2, 2)) == 3
    assert hamming_distance((1, 1, 2), (1, 2, 1)) == 2
    with pytest.raises(DimensionMismatch):
        hamming_distance((1, 1), (1, 1, 1))


def test_combinatorial_box():
    assert combinatorial_box((1, 1), (1, 1)) == {(1, 1)}
    cube = combinatorial_box((1, 1, 1), (2, 2, 2))
    assert len(cube) == 8
    assert cube == {(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)}
    assert combinatorial_box((1, 1, 2), (1, 2, 1)) == {
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
    }
    # a descending and an equal coordinate
    assert combinatorial_box((2, 1, 3), (1, 1, 2)) == {
        (2, 1, 3), (2, 1, 2), (1, 1, 3), (1, 1, 2),
    }
    with pytest.raises(DimensionMismatch):
        combinatorial_box((1,), (1, 2))


@pytest.mark.parametrize(
    "P, Q", [((1, 1), (2, 2.5)), ([1, 1], (2, 2)), ((True, 1), (2, 2)), ((1, 1), "12")]
)
def test_box_and_distance_reject_points_that_are_not_int_tuples(P, Q):
    for function in (combinatorial_box, hamming_distance):
        with pytest.raises(BadLevel):
            function(P, Q)
        with pytest.raises(BadLevel):
            function(Q, P)


def reference_check_star(X, s):
    """The star scan as a plain loop: every ordered pair of grid cells, its
    box built as a set of points and intersected with X."""
    pts = X.points
    cells = sorted(itertools.product(*[range(1, r + 1) for r in X.dims]))
    witnesses = []
    for a, P in enumerate(cells):
        p_in = P in pts
        for Q in cells[a + 1 :]:
            if (Q in pts) != p_in:
                continue
            d = hamming_distance(P, Q)
            if d < 2 or d > s:
                continue
            box = combinatorial_box(P, Q)
            met = box & pts
            if p_in and met == {P, Q}:
                witnesses.append(Witness(TYPE_I, P, Q, d, box))
            elif not p_in and met == box - {P, Q}:
                witnesses.append(Witness(TYPE_II, P, Q, d, box))
    return not witnesses, witnesses


TESSERACT = list(itertools.product((1, 2), repeat=4))
ANTIPODES = [(1, 1, 1, 1), (2, 2, 2, 2)]


@pytest.mark.parametrize(
    "grids, step, extra",
    [
        ([(2, 2, 2), (2, 2, 3)], 1, []),
        ([(2, 2, 2, 2)], 61, [STAR_BLIND_EIGHT, ANTIPODES, sorted(set(TESSERACT) - set(ANTIPODES))]),
    ],
    ids=["2x2x2-2x2x3-every-subset", "2x2x2x2-strided"],
)
def test_check_star_matches_reference_scan(grids, step, extra):
    """Every witness, in order, at every level, and the first one alone
    when the scan is not exhaustive.  Witnesses at distance 4 need a
    pair of antipodes alone or missing, which the stride skips, so those
    two sets are added."""
    configs = [canonicalize(points) for points in extra]
    configs += [X for X in subset_configurations(*grids, step=step) if X.n >= 2]
    kinds = set()
    for X in configs:
        for s in range(2, X.n + 1):
            verdict, witnesses = reference_check_star(X, s)
            assert check_star(X, s, exhaustive=True) == (verdict, witnesses), (X, s)
            assert check_star(X, s) == (verdict, witnesses[:1]), (X, s)
            kinds.update((w.kind, w.s_prime) for w in witnesses)
        # is_acm decides by the mask scan, not through check_star; the
        # loop's last verdict is the reference's at level n
        assert is_acm(canonicalize(X.points)) == verdict, X
    n = max(len(dims) for dims in grids)
    assert kinds == {(kind, d) for kind in (TYPE_I, TYPE_II) for d in range(2, n + 1)}


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_pair_table_boxes_are_the_corner_sets(dims):
    """Where P and Q share a coordinate, product(*zip(P, Q)) lists every
    corner more than once, so a box mask summed over it carries into other
    bits; the table must hold the mask of the corner set."""
    cells = grid_cells(dims)
    bit = {c: 1 << k for k, c in enumerate(cells)}
    expected = []
    summed_differs = 0
    for (a, P), (b, Q) in itertools.combinations(enumerate(cells), 2):
        d = hamming_distance(P, Q)
        if d >= 2:
            corners = list(itertools.product(*zip(P, Q)))
            box = 0
            for c in set(corners):
                box |= bit[c]
            expected.append((d, a, b, box))
            summed_differs += sum(bit[c] for c in corners) != box
    assert star_property._pair_table(dims) == tuple(expected)
    assert summed_differs > 0


def test_star_verdicts_on_six_points(six_points):
    assert check_star(six_points, 2)[0] is True
    verdict, witnesses = check_star(six_points, 3)
    assert verdict is False
    w = witnesses[0]
    assert (w.kind, w.P, w.Q, w.s_prime) == (TYPE_II, (1, 1, 1), (2, 2, 2), 3)


def test_star_diagonal_pair_both_witness_kinds():
    X = canonicalize([(1, 1), (2, 2)])
    verdict, witnesses = check_star(X, 2, exhaustive=True)
    assert verdict is False
    kinds = {(w.kind, w.P, w.Q) for w in witnesses}
    assert (TYPE_I, (1, 1), (2, 2)) in kinds
    assert (TYPE_II, (1, 2), (2, 1)) in kinds


def test_star_antipodal_pair_alone_in_cube():
    # two opposite cube corners with nothing else: fine at level 2,
    # a type-i witness at level 3
    X = canonicalize([(1, 1, 1), (2, 2, 2)])
    assert check_star(X, 2)[0] is True
    verdict, witnesses = check_star(X, 3)
    assert verdict is False
    assert witnesses[0].kind == TYPE_I
    assert witnesses[0].s_prime == 3


def test_star_single_point_and_eleven_points(eleven_points):
    single = canonicalize([(4, 7, 9)])
    assert check_star(single, 2)[0] is True
    assert check_star(single, 3)[0] is True
    assert check_star(eleven_points, 3)[0] is True


def test_star_level_out_of_range(six_points):
    with pytest.raises(BadLevel):
        check_star(six_points, 1)
    with pytest.raises(BadLevel):
        check_star(six_points, 4)
    with pytest.raises(EmptyConfiguration):
        check_star(PointSet.empty(2), 2)


def test_acm_verdict_needs_a_nonempty_configuration():
    with pytest.raises(EmptyConfiguration, match="ACM verdict needs a nonempty configuration"):
        is_acm(PointSet.empty(2))


def test_distance_one_pair_is_harmless():
    assert is_acm(canonicalize([(1, 1), (1, 2)])) is True


def test_is_acm_verdicts(six_points, eleven_points):
    assert is_acm(eleven_points) is True
    assert is_acm(six_points) is False
    assert is_acm(canonicalize([(1,), (2,), (5,)])) is True  # n = 1 always


@given(grid_configurations(max_n=3, max_levels=2, max_size=6))
@settings(max_examples=60)
def test_star_monotone_in_level(X):
    if X.n < 2:
        return
    verdicts = [check_star(X, s)[0] for s in range(2, X.n + 1)]
    # once violated, violated at every higher level
    for lower, higher in zip(verdicts, verdicts[1:]):
        if not lower:
            assert not higher


@given(grid_configurations(max_n=3, max_levels=2, max_size=6))
@settings(max_examples=60)
def test_witness_soundness(X):
    if X.n < 2:
        return
    _, witnesses = check_star(X, X.n, exhaustive=True)
    for w in witnesses:
        assert 2 <= w.s_prime <= X.n
        assert hamming_distance(w.P, w.Q) == w.s_prime
        assert w.box == combinatorial_box(w.P, w.Q)
        met = w.box & X.points
        if w.kind == TYPE_I:
            assert {w.P, w.Q} <= X.points
            assert met == {w.P, w.Q}
        else:
            assert not ({w.P, w.Q} & X.points)
            assert met == w.box - {w.P, w.Q}


@given(grid_configurations(max_n=3, max_levels=3, max_size=7))
@settings(max_examples=40)
def test_star_invariant_under_relabeling(X):
    if X.n < 2:
        return
    Y = relabel(
        X,
        list(range(X.n, 0, -1)),
        [list(range(r, 0, -1)) for r in X.dims],
    )
    for s in range(2, X.n + 1):
        assert check_star(X, s)[0] == check_star(Y, s)[0]


def path_is_valid(X, P, Q, path):
    box = combinatorial_box(P, Q)
    assert path[0] == P and path[-1] == Q
    assert len(path) == hamming_distance(P, Q) + 1
    for u in path:
        assert u in X.points and u in box
    for u, v in zip(path, path[1:]):
        assert hamming_distance(u, v) == 1


def test_find_path_trivial_cases(eleven_points):
    assert find_path(eleven_points, (1, 1, 1), (1, 1, 1), 3) == [(1, 1, 1)]
    assert find_path(eleven_points, (2, 1, 1), (2, 1, 2), 3) == [(2, 1, 1), (2, 1, 2)]


def test_find_path_through_eleven_points(eleven_points):
    path = find_path(eleven_points, (1, 1, 1), (2, 2, 2), 3)
    assert path == [(1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2)]
    path_is_valid(eleven_points, (1, 1, 1), (2, 2, 2), path)


@pytest.mark.parametrize("s", [2.0, True])
def test_star_level_must_be_an_int(s):
    X = canonicalize([(1, 1), (2, 2), (1, 2)])
    with pytest.raises(BadLevel):
        check_star(X, s)
    with pytest.raises(PathPreconditionFailed):
        find_path(X, (1, 1), (2, 2), s)


@pytest.mark.parametrize(
    "P, Q, s",
    [((1, 1), (1, 1), 2.0), ((1, 1), (1, 2), "x"), ((1, 1), (1, 1), 1), ((1, 2), (1, 1), 3)],
)
def test_find_path_checks_star_level_at_every_distance(P, Q, s):
    X = canonicalize([(1, 1), (2, 2), (1, 2)])
    with pytest.raises(PathPreconditionFailed, match="star level"):
        find_path(X, P, Q, s)


def test_find_path_in_one_direction_takes_level_one():
    """With n = 1 there is no star level and every pair is at distance at
    most 1; the CLI passes s = n = 1."""
    X = canonicalize([(1,), (3,), (4,)])
    assert find_path(X, (2,), (2,), 1) == [(2,)]
    assert find_path(X, (1,), (3,), 1) == [(1,), (3,)]
    for s in (0, 2, 1.0):
        with pytest.raises(PathPreconditionFailed, match="star level"):
            find_path(X, (1,), (3,), s)


@pytest.mark.parametrize("bad", [[1, 1], (1.0, 1.0), (True, True), (1, 2.0), (1, 1, 1), (1,), "12"])
def test_find_path_endpoints_are_tuples_of_n_ints(bad):
    X = canonicalize([(1, 1), (2, 2), (1, 2)])
    for P, Q in ((bad, (1, 2)), ((1, 2), bad)):
        with pytest.raises(PathPreconditionFailed, match="endpoint"):
            find_path(X, P, Q, 2)


def test_find_path_preconditions(eleven_points):
    with pytest.raises(PathPreconditionFailed):
        find_path(eleven_points, (1, 1, 1), (1, 2, 2), 3)  # endpoint not in X
    with pytest.raises(PathPreconditionFailed):
        find_path(eleven_points, (1, 1, 1), (2, 2, 2), 2)  # distance exceeds s
    bad = canonicalize([(1, 1), (2, 2)])
    with pytest.raises(PathPreconditionFailed):
        find_path(bad, (1, 1), (2, 2), 2)  # star property fails


def reference_path(X, P, Q):
    """Breadth-first chain from P to Q that scans all box points of X, in
    sorted order, for the Hamming neighbours of each dequeued point."""
    nodes = sorted(combinatorial_box(P, Q) & X.points)
    parent = {P: None}
    queue = deque([P])
    while queue:
        u = queue.popleft()
        if u == Q:
            break
        for v in nodes:
            if v not in parent and hamming_distance(u, v) == 1:
                parent[v] = u
                queue.append(v)
    path = [Q]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def test_find_path_matches_reference_bfs(eleven_points, eleven_moved, twelve_chain):
    """Stepping by coordinate flips keeps the lexicographic tie-break:
    the same chain on every pair of every ACM configuration checked."""
    cells = list(itertools.product((1, 2), repeat=3))
    cube = [
        canonicalize(subset)
        for k in range(1, len(cells) + 1)
        for subset in itertools.combinations(cells, k)
    ]
    configs = [eleven_points, eleven_moved, twelve_chain] + [X for X in cube if is_acm(X)]
    assert all(is_acm(X) for X in configs[:3])
    pairs = 0
    for X in configs:
        for P, Q in itertools.product(X.sorted_points(), repeat=2):
            assert find_path(X, P, Q, X.n) == reference_path(X, P, Q)
            pairs += 1
    assert pairs > 1000


def least_step_chain(X, P, Q):
    """The chain from P to Q through X that moves the differing
    coordinates to Q's levels in the lexicographically least order, a
    coordinate ranked by how far moving it shifts P in the sorted grid;
    found by trying every order.  None when no order stays in X."""
    cells = sorted(itertools.product(*[range(1, r + 1) for r in X.dims]))
    position = {c: k for k, c in enumerate(cells)}

    def raised(u, i):
        return u[:i] + (Q[i],) + u[i + 1 :]

    coords = [i for i in range(X.n) if P[i] != Q[i]]
    coords.sort(key=lambda i: position[raised(P, i)] - position[P])
    for order in itertools.permutations(coords):
        chain = [P]
        for i in order:
            chain.append(raised(chain[-1], i))
        if X.points.issuperset(chain):
            return chain
    return None


@pytest.mark.parametrize(
    "grid, step",
    [((2, 2, 2), 1), ((2, 2, 3), 1), ((3, 3), 1), ((2, 2, 2, 2), 7)],
    ids=["2x2x2", "2x2x3", "3x3", "2x2x2x2-every-7th"],
)
def test_find_path_takes_the_least_step_order(grid, step):
    pairs = 0
    for X in subset_configurations(grid, step=step):
        if not is_acm(X):
            continue
        for P, Q in itertools.product(X.sorted_points(), repeat=2):
            assert find_path(X, P, Q, X.n) == least_step_chain(X, P, Q), (X, P, Q)
            pairs += 1
    assert pairs > 1000


def greedy_chain(X, P, Q):
    """The greedy walk of ``find_path`` on points looked up by value: from
    P, the least remaining step (Q_i - P_i) * stride_i of the cell index
    whose cell lies in X."""
    cells, index, strides = cell_table(X.dims)
    steps = sorted((q - p) * stride for p, q, stride in zip(P, Q, strides) if p != q)
    at, chain = index[P], [P]
    while steps:
        step = next(step for step in steps if cells[at + step] in X.points)
        steps.remove(step)
        at += step
        chain.append(cells[at])
    return chain


@pytest.mark.parametrize(
    "configs",
    [
        lambda: subset_configurations((2, 2, 2), (2, 2, 3)),
        lambda: cube_sample(42),
    ],
    ids=["2x2x2+2x2x3", "seed-42-sample"],
)
def test_find_path_on_own_points_and_on_copies_is_the_greedy_walk(configs):
    """Endpoints taken from X take the identity path, equal copies the
    full check; both give the greedy walk's chain on every pair of every
    ACM configuration."""
    pairs = 0
    for X in configs():
        if not is_acm(X):
            continue
        for P, Q in itertools.product(X.sorted_points(), repeat=2):
            chain = find_path(X, P, Q, X.n)
            assert chain == greedy_chain(X, P, Q), (X, P, Q)
            P2, Q2 = tuple(list(P)), tuple(list(Q))
            assert P2 is not P and Q2 is not Q
            assert find_path(X, P2, Q2, X.n) == chain
            pairs += 1
    assert pairs > 10000


@pytest.mark.parametrize(
    "bad", [(True, 1, 1), (1, True, 1), [1, 1, 1], (1.0, 1, 1), (1, 1), (1, 1, 1, 1)]
)
def test_find_path_checks_endpoints_equal_to_points_of_x(eleven_points, bad):
    """An endpoint equal or nearly equal to a point of X, but not that
    point's own object, is checked in full, also after find_path has
    indexed X's points."""
    P = next(p for p in eleven_points.points if p == (1, 1, 1))
    assert find_path(eleven_points, P, P, 3) == [P]
    for ends in ((bad, P), (P, bad)):
        with pytest.raises(PathPreconditionFailed, match="endpoint"):
            find_path(eleven_points, *ends, 3)


def test_find_path_checks_an_endpoint_whose_id_has_a_stale_entry(eleven_points):
    """An entry of ``own_cells`` is trusted only for the very object it
    holds.  Unpickling carries the dict over with the old ids as keys,
    which later objects may reuse; here an invalid endpoint is given such
    a key by hand."""
    X = eleven_points
    P = next(p for p in X.points if p == (1, 1, 1))
    bad = (True, 1, 1)
    X.__dict__["own_cells"] = {**X.own_cells, id(bad): X.own_cells[id(P)]}
    assert find_path(X, P, P, 3) == [P]
    with pytest.raises(PathPreconditionFailed, match="endpoint"):
        find_path(X, bad, P, 3)


def test_find_path_on_points_of_x_checks_no_coordinates(monkeypatch, eleven_points):
    """The points of a PointSet were checked when it was built, so
    endpoints that are those very tuples are not checked again; a copy is."""
    calls = []

    def counting(u):
        calls.append(u)
        return is_point(u)

    monkeypatch.setattr(star_property, "is_point", counting)
    monkeypatch.setattr(grid_model, "is_point", counting)
    points = eleven_points.sorted_points()
    for P, Q in itertools.product(points, repeat=2):
        find_path(eleven_points, P, Q, 3)
    assert calls == []
    find_path(eleven_points, tuple(list(points[0])), points[-1], 3)
    assert calls


def test_star_accepts_non_cm_configuration_on_2x2x2x2(star_blind_eight):
    """The one known case where the star criterion and the Reisner oracle
    disagree, pinned route by route.  No star witness exists at any level
    and every pair has a chain, yet the complex fails Reisner's criterion
    at the empty face, and the first differences of the Hilbert function
    go negative, which no ACM set allows (Van Tuyl 2003).  The star
    verdict itself is left unasserted until ``is_acm`` is repaired."""
    X = star_blind_eight
    assert X.dims == (2, 2, 2, 2) and X.size == 8
    for s in (2, 3, 4):
        assert check_star(X, s, exhaustive=True) == (True, [])
    assert first_cm_failure(X) == (frozenset(), 1, 1)
    delta = delta_table(X, (1, 1, 1, 1))
    negative = {t: v for t, v in delta.values.items() if v < 0}
    assert negative == {t: -1 for t in itertools.permutations((0, 1, 1, 1))}
    pairs = list(itertools.combinations(X.sorted_points(), 2))
    assert len(pairs) == 28
    for P, Q in pairs:
        path_is_valid(X, P, Q, find_path(X, P, Q, 4))


def test_find_path_without_a_chain_is_an_invariant_violation():
    """The diagonal pair has no chain; with its failing star verdict
    forced to pass, the search must abort instead of returning a path."""
    X = canonicalize([(1, 1), (2, 2)])
    X.star_levels[2] = True
    with pytest.raises(InternalInvariantViolation, match="no chain"):
        find_path(X, (1, 1), (2, 2), 2)


def test_find_path_non_star_raises_on_every_call():
    bad = canonicalize([(1, 1), (2, 2)])
    for _ in range(2):
        with pytest.raises(PathPreconditionFailed, match="fails the star property at level 2"):
            find_path(bad, (1, 1), (2, 2), 2)


@pytest.mark.parametrize("levels", [(2, 3), (3, 2)])
def test_find_path_star_verdict_keyed_on_level(six_points, levels):
    """cube_six has the star property at level 2 but not at level 3, so a
    cached verdict must not cross levels, whichever is asked first."""
    P, Q = (1, 1, 2), (1, 2, 1)
    for s in levels:
        if s == 2:
            assert find_path(six_points, P, Q, s) == [(1, 1, 2), (1, 2, 2), (1, 2, 1)]
        else:
            with pytest.raises(PathPreconditionFailed, match="at level 3"):
                find_path(six_points, P, Q, s)


@pytest.fixture
def star_calls(monkeypatch):
    """The (dims, s) of every star scan of a cell mask (``_witness_pairs``)."""
    calls = []
    scan = star_property._witness_pairs

    def counting(dims, mask, s):
        calls.append((dims, s))
        return scan(dims, mask, s)

    monkeypatch.setattr(star_property, "_witness_pairs", counting)
    return calls


def test_find_path_checks_star_once_per_level(eleven_points, star_calls):
    chains = 0
    for s in (2, 3):
        for P, Q in itertools.product(eleven_points.sorted_points(), repeat=2):
            if hamming_distance(P, Q) <= s:
                find_path(eleven_points, P, Q, s)
                chains += 1
    assert chains > 100
    assert star_calls == [(eleven_points.dims, 2), (eleven_points.dims, 3)]
    assert eleven_points.star_levels == {2: True, 3: True}


def test_is_acm_and_find_path_share_one_check_star(eleven_points, star_calls):
    assert is_acm(eleven_points)
    assert star_calls == [(eleven_points.dims, 3)]
    for P, Q in itertools.combinations(eleven_points.sorted_points(), 2):
        find_path(eleven_points, P, Q, 3)
    assert is_acm(eleven_points)
    assert star_calls == [(eleven_points.dims, 3)]


def test_check_command_scans_each_star_level_once(star_calls, capsys):
    """``acmpts check`` reports the witness of each level from
    ``check_star`` and then the ACM verdict, which reads the level-n
    verdict ``check_star`` kept instead of scanning again."""
    path = fixture_path("cube_six.json")
    assert main(["check", str(path)]) == 0
    assert "ACM: false" in capsys.readouterr().out
    dims = canonicalize(load_configuration(path).points).dims
    assert star_calls == [(dims, 2), (dims, 3)]


def test_is_acm_and_find_path_build_no_witness(monkeypatch):
    """The verdicts and chains come from the mask scan alone: with
    ``Witness``, ``combinatorial_box`` and ``check_star`` raising, fresh
    copies of the seed-42 sample get the same ACM verdicts, and the same
    chain on every pair of every ACM set."""

    def answers():
        verdicts, chains = [], []
        for X in cube_sample(42):
            verdicts.append(is_acm(X))
            if verdicts[-1]:
                pairs = itertools.product(X.sorted_points(), repeat=2)
                chains += [find_path(X, P, Q, X.n) for P, Q in pairs]
        return verdicts, chains

    expected = answers()

    def forbidden(*args, **kwargs):
        raise AssertionError("a witness was built")

    for name in ("Witness", "combinatorial_box", "check_star"):
        monkeypatch.setattr(star_property, name, forbidden)
    assert answers() == expected
    assert sum(expected[0]) > 50 and len(expected[1]) > 10000
