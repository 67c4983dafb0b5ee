import functools
import hashlib
import itertools
import math
import operator
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from acmpts import PointSet, canonicalize, grid_model, is_acm, relabel, reisner_oracle
from acmpts.errors import (
    EmptyConfiguration,
    FaceNotInComplex,
    InputError,
    InternalInvariantViolation,
    MalformedComplex,
)
from acmpts.level_structure import remove_level
from acmpts.linalg import rank_int
from acmpts.reisner_oracle import (
    GridVariable,
    SimplicialComplex,
    _vertex_bits,
    empty_face_failure,
    first_cm_failure,
    grid_variables,
    homology,
    is_cm,
    link,
    sr_complex,
)
from conftest import (
    ELEVEN_MOVED,
    ELEVEN_POINTS,
    SIX_POINTS,
    STAR_BLIND_EIGHT,
    TWELVE_CHAIN,
    cube_sample,
    grid_configurations,
    subset_configurations,
)
from ideal_reference import configuration_ideal
from reduction_reference import coreduced_betti


def var(i, j):
    return GridVariable(i, j)


def test_sr_complex_single_point():
    delta = sr_complex(canonicalize([(1, 1)]))
    assert delta.vertices == (var(1, 1), var(2, 1))
    assert delta.facets == (frozenset(),)


def test_sr_complex_diagonal_pair_is_two_edges():
    delta = sr_complex(canonicalize([(1, 1), (2, 2)]))
    assert set(delta.facets) == {
        frozenset({var(1, 2), var(2, 2)}),
        frozenset({var(1, 1), var(2, 1)}),
    }


def test_sr_complex_full_grid_is_four_cycle():
    delta = sr_complex(canonicalize([(1, 1), (1, 2), (2, 1), (2, 2)]))
    assert len(delta.facets) == 4
    assert all(len(f) == 2 for f in delta.facets)
    prof = homology(delta)
    assert (prof.rank(0), prof.rank(1)) == (0, 1)


FIXTURES = ["six_points", "eleven_points", "eleven_moved", "twelve_chain", "star_blind_eight"]


@pytest.mark.parametrize("case", FIXTURES + ["2x2x2", "3x3"])
def test_nonfaces_generate_configuration_ideal(request, case):
    """Minimal vertex sets that are not faces are exactly the minimal
    generators of the configuration ideal, on each fixture and on every
    nonempty subset of the 2x2x2 and 3x3 grids."""
    if case in FIXTURES:
        configurations = [request.getfixturevalue(case)]
    else:
        configurations = subset_configurations(tuple(map(int, case.split("x"))))
    for X in configurations:
        delta = sr_complex(X)
        faces = set(delta.faces())
        minimal_nonfaces = []
        for k in range(1, len(delta.vertices) + 1):
            for combo in itertools.combinations(delta.vertices, k):
                s = frozenset(combo)
                if s not in faces and not any(m < s for m in minimal_nonfaces):
                    minimal_nonfaces.append(s)
        assert set(minimal_nonfaces) == configuration_ideal(X).generators, X


def test_faces_sorted_by_size_then_vertex_order():
    """The vertex tuple, not the vertices' own order, ranks faces of one
    size; first_cm_failure reports the first failing face in this order."""
    delta = SimplicialComplex.from_facets("dcab", [{"a", "b"}, {"d", "c", "a"}, {"c", "b"}])
    index = {v: k for k, v in enumerate(delta.vertices)}
    subsets = {
        frozenset(s)
        for f in delta.facets
        for k in range(len(f) + 1)
        for s in itertools.combinations(f, k)
    }
    expected = sorted(subsets, key=lambda f: (len(f), sorted(index[v] for v in f)))
    assert delta.faces() == expected
    assert expected[1:5] == [{"d"}, {"c"}, {"a"}, {"b"}]
    assert expected[5:8] == [{"d", "c"}, {"d", "a"}, {"c", "a"}]


def test_link_of_empty_face_is_whole_complex(six_points):
    delta = sr_complex(six_points)
    assert link(delta, []) == delta


def test_link_in_four_cycle():
    delta = sr_complex(canonicalize([(1, 1), (1, 2), (2, 1), (2, 2)]))
    lk = link(delta, [var(1, 1)])
    assert sorted(len(f) for f in lk.facets) == [1, 1]  # two isolated vertices
    prof = homology(lk)
    assert prof.rank(0) == 1


def test_link_in_disjoint_edges():
    delta = sr_complex(canonicalize([(1, 1), (2, 2)]))
    lk = link(delta, [var(1, 1)])
    assert lk.facets == (frozenset({var(2, 1)}),)


def test_link_equals_its_from_facets_form(
    six_points, eleven_points, eleven_moved, twelve_chain, star_blind_eight
):
    """Facets through a face minus the face are already a minimal,
    sorted facet list: rebuilding it through from_facets changes nothing,
    facet order included.  The empty face's link is the complex itself,
    so this also checks the facet order ``sr_complex`` builds, on every
    nonempty subset of the 2x2x2 and 3x3 grids."""
    dcab = SimplicialComplex.from_facets("dcab", [{"a", "b"}, {"d", "c", "a"}, {"c", "b"}])
    fixtures = [six_points, eleven_points, eleven_moved, twelve_chain, star_blind_eight]
    complexes = [sr_complex(X) for X in fixtures + list(subset_configurations((2, 2, 2), (3, 3)))]
    for delta in complexes + [dcab]:
        for sigma in delta.faces():
            lk = link(delta, sigma)
            assert lk == SimplicialComplex.from_facets(lk.vertices, lk.facets)


def test_link_rejects_non_face():
    delta = sr_complex(canonicalize([(1, 1), (2, 2)]))
    with pytest.raises(FaceNotInComplex):
        link(delta, [var(1, 1), var(1, 2)])


def test_empty_configuration_rejected():
    for oracle in (sr_complex, is_cm, first_cm_failure):
        with pytest.raises(EmptyConfiguration):
            oracle(PointSet.empty(3))


def test_from_facets_rejects_no_facets():
    with pytest.raises(ValueError, match="no facets"):
        SimplicialComplex.from_facets("ab", [])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimplicialComplex.from_facets("aba", [["a"]]), "repeated vertex"),
        (lambda: SimplicialComplex.from_facets("ab", []), "no facets"),
        (lambda: SimplicialComplex.from_facets("ab", [["a", "c"]]), "uses unknown vertices"),
        (lambda: homology(SimplicialComplex(("a", "b"), ())), "no facets"),
        (lambda: homology(SimplicialComplex((1, 1, 2), (frozenset({1, 2}),))), "repeated vertex"),
        (lambda: homology(SimplicialComplex((1,), (frozenset({2}),))), "uses unknown vertices"),
    ],
    ids=[
        "repeated-vertex",
        "no-facets",
        "unknown-vertex",
        "built-without-facets",
        "built-with-repeated-vertex",
        "built-with-unknown-vertex",
    ],
)
def test_malformed_complex_is_an_input_error(build, message):
    """Bad data handed to the library raises an ``InputError``; this one is
    also a ``ValueError``."""
    with pytest.raises(MalformedComplex, match=message) as caught:
        build()
    assert isinstance(caught.value, InputError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize("vertices", [(), ("a", "b")])
def test_complex_built_with_no_facets_is_rejected(vertices):
    """A complex constructed directly, bypassing ``from_facets``, gets the
    same explicit error from every entry point instead of an empty max()."""
    delta = SimplicialComplex(vertices, ())
    for entry in (homology, SimplicialComplex.faces, lambda d: d.dim):
        with pytest.raises(ValueError, match=r"no facets \(the complex whose only face is empty"):
            entry(delta)


@pytest.mark.parametrize(
    "vertices, facets, message",
    [
        ((1,), (frozenset({2}),), r"facet \{2\} uses unknown vertices"),
        ((1, 1, 2), (frozenset({1, 2}),), "repeated vertex"),
    ],
    ids=["unknown-vertex", "repeated-vertex"],
)
def test_complex_built_with_bad_vertices_is_rejected(vertices, facets, message):
    """A complex constructed directly with a facet on an unknown vertex, or
    with a repeated vertex, gets ``from_facets``' error from every entry
    point, not a bare ``KeyError`` or a silent answer for a complex whose
    two vertices share one bit."""
    delta = SimplicialComplex(vertices, facets)
    for entry in (homology, SimplicialComplex.faces, lambda d: d.dim):
        with pytest.raises(MalformedComplex, match=message):
            entry(delta)


def test_homology_triangle_boundary():
    tri = SimplicialComplex.from_facets("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}])
    assert homology(tri).ranks == (0, 0, 1)


def test_homology_two_disjoint_edges():
    delta = sr_complex(canonicalize([(1, 1), (2, 2)]))
    assert homology(delta).ranks == (0, 1, 0)


def test_homology_irrelevant_complex():
    delta = SimplicialComplex.from_facets([], [frozenset()])
    assert homology(delta).ranks == (1,)


def test_homology_solid_simplex_is_trivial():
    delta = SimplicialComplex.from_facets("abc", [{"a", "b", "c"}])
    assert homology(delta).ranks == (0, 0, 0, 0)


def reference_homology(delta):
    """Reduced Betti numbers from the unreduced boundary matrices of every
    face, the empty face included, kept independent of the reducer under
    test."""
    index = {v: k for k, v in enumerate(delta.vertices)}
    facets = [sorted(index[v] for v in f) for f in delta.facets]
    top = delta.dim
    by_size = [
        sorted({face for f in facets for face in itertools.combinations(f, size)})
        for size in range(top + 2)
    ]
    # boundary_rank[k] = rank of the map from k-chains to (k-1)-chains
    boundary_rank = {k: 0 for k in range(-1, top + 2)}
    for k in range(1, top + 1):
        lower = {face: r for r, face in enumerate(by_size[k])}
        upper = by_size[k + 1]
        matrix = [[0] * len(upper) for _ in lower]
        for c, face in enumerate(upper):
            sign = 1
            for drop in range(len(face)):
                matrix[lower[face[:drop] + face[drop + 1 :]]][c] = sign
                sign = -sign
        boundary_rank[k] = rank_int(matrix)
    if top >= 0:
        boundary_rank[0] = 1  # augmentation onto the empty face
    counts = {k: len(by_size[k + 1]) for k in range(-1, top + 1)}
    return tuple(counts[k] - boundary_rank[k] - boundary_rank[k + 1] for k in range(-1, top + 1))


def random_complexes(seed, count):
    """Seeded complexes on two to seven vertices, built by ``from_facets``.
    Facets have mixed sizes, none spanning all the vertices it may use, and
    many vertices are in no facet; every third complex is a cone whose apex
    is its last used vertex, the lowest bit, on which the first element
    matching pairs every face."""
    rng = random.Random(seed)
    for t in range(count):
        vertices = "abcdefg"[: rng.randint(2, 7)]
        used = rng.sample(vertices, rng.randint(max(1, len(vertices) - 2), len(vertices)))
        size = max(1, len(used) - 1)
        facets = [rng.sample(used, rng.randint(1, size)) for _ in range(rng.randint(1, 6))]
        if t % 3 == 2:
            apex = max(used, key=vertices.index)
            facets = [f + [apex] for f in facets]
        yield SimplicialComplex.from_facets(vertices, facets)


def test_reducer_matches_unreduced_reference_on_random_complexes():
    """The reducer, element matchings and the Morse differential where
    they leave critical cells of two sizes, against the plain boundary
    ranks, on non-pure complexes, complexes with unused vertices, cones
    over the lowest vertex, the complex whose only face is empty, a single
    vertex and solid simplices."""
    special = [
        SimplicialComplex.from_facets([], [[]]),
        SimplicialComplex.from_facets("ab", [[]]),
        SimplicialComplex.from_facets("a", ["a"]),
        SimplicialComplex.from_facets("ab", ["a"]),
        SimplicialComplex.from_facets("ab", ["b"]),
    ] + [SimplicialComplex.from_facets("abcdef"[:k], ["abcdef"[:k]]) for k in range(1, 7)]
    complexes = special + list(random_complexes(5, 400))
    assert any(len({len(f) for f in d.facets}) > 1 for d in complexes)
    assert any(set(d.vertices) - set().union(*d.facets) for d in complexes)
    for delta in complexes:
        assert homology(delta).ranks == reference_homology(delta), delta
    assert [homology(d).ranks for d in special[:5]] == [(1,), (1,), (0, 0), (0, 0), (0, 0)]


def test_homology_matches_unreduced_reference_on_every_link(
    six_points, eleven_points, eleven_moved, twelve_chain, star_blind_eight
):
    fixtures = [six_points, eleven_points, eleven_moved, twelve_chain, star_blind_eight]
    for X in fixtures + list(subset_configurations((2, 2, 2), (3, 3))):
        delta = sr_complex(X)
        for sigma in delta.faces():
            lk = link(delta, sigma)
            assert homology(lk).ranks == reference_homology(lk), (X, sigma)


def test_homology_matches_unreduced_reference_on_small_complexes(six_points):
    delta = sr_complex(six_points)
    apex = var(1, 99)
    complexes = [
        SimplicialComplex.from_facets("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}]),
        SimplicialComplex.from_facets("dcab", [{"a", "b"}, {"d", "c", "a"}, {"c", "b"}]),
        SimplicialComplex.from_facets(delta.vertices + (apex,), [f | {apex} for f in delta.facets]),
        SimplicialComplex.from_facets("abcdefg", [{"b", "d"}, {"d", "f"}, {"f", "b"}, {"g"}]),
        SimplicialComplex.from_facets("ab", [[]]),
        SimplicialComplex.from_facets([], [[]]),
    ]
    for delta in complexes:
        assert homology(delta).ranks == reference_homology(delta), delta
    assert [homology(d).ranks for d in complexes[2:]] == [
        (0, 0, 0, 0, 0),
        (0, 1, 1),
        (1,),
        (1,),
    ]


def memo_free_first_failure(X):
    return memo_free_obstruction(sr_complex(X))


def memo_free_obstruction(delta):
    """``cm_obstruction`` without the walk over boxes, the link-class memo
    or the sphere skip: every face of the complex in order, links of
    dimension at most 0 and cones skipped, and ``homology`` on the link
    itself."""
    for sigma in delta.faces():
        lk = link(delta, sigma)
        if lk.dim <= 0 or frozenset.intersection(*lk.facets):
            continue  # vacuous below dimension 0, or a cone
        for i, r in enumerate(homology(lk).ranks[:-1], start=-1):
            if r:
                return sigma, i, r
    return None


def test_link_class_memo_matches_memo_free_scan(
    six_points, eleven_points, eleven_moved, twelve_chain, star_blind_eight
):
    """Links that share a key share one reduction, and the walk over boxes
    skips spheres, cones and non-faces without reducing them; any key that
    merges two complexes with different homology, or any skip of a link
    that can fail, changes some first failure here.  The configurations
    are every distinct canonical subset of 2x2x2, 3x3 and 2x2x3, every
    97th subset of 4x4 and 2x2x2x2, seeded 3x3x3 samples and the
    fixtures."""
    cells = sorted(itertools.product((1, 2, 3), repeat=3))
    rng = random.Random(13)
    sampled = [canonicalize(rng.sample(cells, rng.randint(1, 27))) for _ in range(40)]
    fixtures = [six_points, eleven_points, eleven_moved, twelve_chain, star_blind_eight]
    exhaustive = dict.fromkeys(subset_configurations((2, 2, 2), (3, 3), (2, 2, 3)))
    strided = list(subset_configurations((4, 4), (2, 2, 2, 2), step=97))
    for X in fixtures + list(exhaustive) + strided + sampled:
        assert first_cm_failure(X) == memo_free_first_failure(X), X


def counted_reductions(monkeypatch):
    """A list that records the facet masks of every reduction made from
    here on, starting from an empty link-class memo."""
    calls = []
    reduced_betti = reisner_oracle._reduced_betti

    def counting(facets):
        calls.append(facets)
        return reduced_betti(facets)

    monkeypatch.setattr(reisner_oracle, "_reduced_betti", counting)
    monkeypatch.setattr(reisner_oracle, "_verdicts", {})
    reisner_oracle._class_betti.cache_clear()
    return calls


def assert_passes_unreduced(calls, X):
    """X passes Reisner's criterion within a second, and ``calls`` (from
    ``counted_reductions``) records no reduction from an empty memo."""
    calls.clear()
    reisner_oracle._class_betti.cache_clear()
    reisner_oracle._verdicts.clear()
    start = time.perf_counter()
    assert first_cm_failure(X) is None and empty_face_failure(X) is None
    assert time.perf_counter() - start < 1.0, X.dims
    assert calls == [], X.dims


def test_collinear_points_need_no_reduction(monkeypatch):
    """The complex of k points on a line is the boundary of a
    (k-1)-simplex, a sphere, as is every link in it: the k points are the
    full grid of k levels, answered from the point counts.  Above 22
    vertices a reduction would list every face of the sphere, about 2^k."""
    calls = counted_reductions(monkeypatch)
    for k in list(range(1, 13)) + [30]:
        assert_passes_unreduced(calls, canonicalize([(i,) for i in range(1, k + 1)]))


@pytest.mark.parametrize(
    "dims", [(3, 3, 3), (12, 11), (8, 8, 8)], ids=["3x3x3", "12x11", "8x8x8"]
)
def test_full_grids_need_no_reduction(monkeypatch, dims):
    """The complex of a full grid is a join of simplex boundaries, a
    sphere, and every link in it is the complex of a full sub-grid or not
    a face at all: nothing is reduced, not even the whole complex, which
    on 23 or 24 vertices would list every face."""
    calls = counted_reductions(monkeypatch)
    assert_passes_unreduced(calls, canonicalize(itertools.product(*[range(r) for r in dims])))


def test_sparse_set_in_many_directions_is_scanned_in_small_memory():
    """Three points in twelve directions of two levels each: the grid has
    4096 cells and 3^12 boxes, but the scan walks only boxes around
    subsets of X, so its memory and time stay those of reducing the whole
    complex, three facets of twelve vertices (about 1.4 MB traced and
    2 s under tracing on a 2-vCPU host; a table of every box would hold
    hundreds of MB)."""
    n = 12
    X = PointSet(
        n=n, dims=(2,) * n, points=frozenset([(1,) * n, (2,) * n, (1,) * 6 + (2,) * 6])
    )
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = time.perf_counter()
        failure = first_cm_failure(X)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert failure == (frozenset(var(i, 2) for i in range(1, 7)), 0, 1)
    assert peak < 16 * 2**20, peak
    assert elapsed < 20, elapsed


@pytest.mark.parametrize("dims", [(1,), (2,), (3, 1, 2), (2, 5, 1, 3), (3, 3, 3), (2,) * 12])
def test_scan_level_bits_are_the_vertex_bits_of_the_grid_variables(monkeypatch, dims):
    """The scan derives the bit of a[i,j] from dims alone; it must be the
    bit ``_vertex_bits`` gives a[i,j] in ``sr_complex``'s vertex list.
    With a passing whole complex, the scan hands those bits to the walk.
    A grid with sum(dims) - n < 2 has no link of dimension >= 1 and is
    answered before any bit is derived.  ``is_cm`` accepts a set whose
    every link passes without walking it, so the walk is called directly."""
    seen = []

    def walk(bits, points):
        seen.append(bits)
        return iter(())

    monkeypatch.setattr(reisner_oracle, "_class_betti", lambda key: (0,))
    monkeypatch.setattr(reisner_oracle, "_links_to_reduce", walk)
    staircase = {tuple(min(k, r) for r in dims) for k in range(1, max(dims) + 1)}
    X = PointSet(n=len(dims), dims=dims, points=frozenset(staircase))
    assert reisner_oracle._first_failure(X) is None
    bit = _vertex_bits(grid_variables(dims))
    expected = tuple(
        tuple(bit[var(i, j)] for j in range(1, r + 1)) for i, r in enumerate(dims, start=1)
    )
    assert seen == ([expected] if sum(dims) - len(dims) >= 2 else [])


def test_walk_on_sets_of_26_points_sizes_few_full_grids(monkeypatch):
    """With one hole in 3x3x3, removing a level through it leaves a full
    grid.  The walk recognises most of those from point counts before
    sizing them (81 of the 1539 boxes it sizes on these 27 sets are full
    grids, against 3078 of 4536 without that test), and the exact check
    keeps every full grid off the heap.  These sets are Cohen-Macaulay,
    which ``first_cm_failure`` learns from ``is_cm`` without a walk, so the
    walk is called directly."""
    sized, popped = [], []
    smallest_box, pop = reisner_oracle._smallest_box, reisner_oracle.heappop

    def sizing(inside, bits, slab):
        box = smallest_box(inside, bits, slab)
        sized.append((inside, box[1]))
        return box

    def popping(heap):
        entry = pop(heap)
        popped.append(entry[2])
        return entry

    monkeypatch.setattr(reisner_oracle, "_smallest_box", sizing)
    monkeypatch.setattr(reisner_oracle, "heappop", popping)
    cells = sorted(itertools.product((1, 2, 3), repeat=3))
    for hole in cells:
        reisner_oracle._first_failure(canonicalize([c for c in cells if c != hole]))
    full = [inside for inside, volume in sized if inside.bit_count() == volume]
    assert sized and 10 * len(full) < len(sized)
    volume = dict(sized)
    assert popped and all(inside.bit_count() != volume[inside] for inside in popped)


def boxes_to_reduce(X):
    """Each X n B, B a box of the grid, whose link the scan must reduce:
    B is the smallest box around it (else a cone), it is not all of B
    (else a sphere), and B has at least n + 2 levels (else a link of
    dimension <= 0) and is not the whole grid; found by trying every box."""
    choices = [
        [levels for k in range(1, r + 1) for levels in itertools.combinations(range(1, r + 1), k)]
        for r in X.dims
    ]
    found = set()
    for box in itertools.product(*choices):
        size, cells = sum(map(len, box)), math.prod(map(len, box))
        inside = frozenset(p for p in X.points if all(c in A for c, A in zip(p, box)))
        spans = all({p[i] for p in inside} == set(A) for i, A in enumerate(box))
        if spans and len(inside) < cells and X.n + 2 <= size < sum(X.dims):
            found.add(inside)
    return found


@pytest.mark.parametrize(
    "configs",
    [
        lambda: [
            canonicalize([c for c in itertools.product((1, 2, 3), repeat=3) if c != hole])
            for hole in itertools.product((1, 2, 3), repeat=3)
        ],
        lambda: cube_sample(42),
    ],
    ids=["26-of-3x3x3", "seed-42"],
)
def test_walk_yields_every_box_to_reduce_on_cm_sets(monkeypatch, configs):
    """On a CM set the scan runs to the end, so the walk must yield each
    box that is neither a cone nor a sphere exactly once, however many
    full grids it skips.  ``first_cm_failure`` does not walk a CM set, so
    the walk is called directly."""
    walks = []
    links = reisner_oracle._links_to_reduce

    def walk(bits, points):
        boxes = [inside for _, inside in links(bits, points)]
        walks.append([frozenset(points[k] for k in reisner_oracle._bits(i)) for i in boxes])
        return iter(())

    cm_sets = [X for X in configs() if is_cm(X) and sum(X.dims) - X.n >= 2]
    monkeypatch.setattr(reisner_oracle, "_links_to_reduce", walk)
    for X in cm_sets:
        walks.clear()
        assert reisner_oracle._first_failure(X) is None
        if X.size == math.prod(X.dims):  # a full grid has no box to reduce
            assert walks == [] and boxes_to_reduce(X) == set(), X
            continue
        assert len(walks) == 1 and len(set(walks[0])) == len(walks[0])
        assert set(walks[0]) == boxes_to_reduce(X), X
    assert len(cm_sets) >= 20


WALK_DIGESTS = {
    "2x2x3+3x3": "57ff8090f71f8b0ccaf48c561e73d01b4dc28c7abebe2fcd6855227870e4093a",
    "3x3x2/41": "1e63ab57725ae7f3663047a5ef25a9335906e20f19faf0b3b32399ad3d354963",
    "2x2x2x2/7": "627dd786c7295a8a41a782dc895fef6506a1c03d659bd4e811dd02d051ab95ce",
    "seeds 42, 7": "d1061f1d22f130d385792c60fdecd94ed4769d2d45140a5e035d282c2b5e68d7",
}


@pytest.mark.parametrize(
    "name, configs",
    [
        ("2x2x3+3x3", lambda: subset_configurations((2, 2, 3), (3, 3))),
        ("3x3x2/41", lambda: subset_configurations((3, 3, 2), step=41)),
        ("2x2x2x2/7", lambda: subset_configurations((2, 2, 2, 2), step=7)),
        ("seeds 42, 7", lambda: cube_sample(42) + cube_sample(7)),
    ],
    ids=list(WALK_DIGESTS),
)
def test_first_cm_failure_is_pinned(name, configs):
    """A digest of ``first_cm_failure`` (face as a sorted list) over every
    subset of 2x2x3 and 3x3, every 41st of 3x3x2, every 7th of 2x2x2x2
    and the two seeded 3x3x3 benchmark samples, recorded before the walk
    learned to skip full grids unsized."""
    digest = hashlib.sha256()
    for X in configs():
        failure = first_cm_failure(X)
        digest.update(repr(failure and (sorted(failure[0]), *failure[1:])).encode())
    assert digest.hexdigest() == WALK_DIGESTS[name]


def test_seven_diagonal_points_of_7x7x7_are_decided_by_the_matching():
    """Seven points on the diagonal of 7x7x7: 21 vertex positions, within
    the matching's bound, so the face bitset of 2^21 bits answers where
    the Morse route would enumerate about 7 * 2^18 faces as a set."""
    X = canonicalize([(k, k, k) for k in range(1, 8)])
    assert reisner_oracle.MATCHING_BOUND >= 21
    start = time.perf_counter()
    assert first_cm_failure(X) == (frozenset(), 5, 1)
    assert time.perf_counter() - start < 10


def test_rank_larger_than_possible_is_an_invariant_violation(monkeypatch):
    """The element matchings leave critical cells of two sizes in this
    set's complex, so the Morse route ranks its differential between two
    adjacent degrees; one more than the matrix has rows makes a Betti
    number negative, which homology must not return.  ``is_cm`` rejects
    the set at a vertex link before it reduces the whole complex, and the
    walk of ``first_cm_failure`` then reduces the whole complex first."""
    X = canonicalize([(1, 1, 1), (1, 2, 2), (2, 1, 2), (3, 2, 1)])
    calls = []

    def too_large(matrix):
        calls.append(matrix)
        return len(matrix) + 1

    monkeypatch.setattr(reisner_oracle, "rank_int", too_large)
    reisner_oracle._class_betti.cache_clear()
    with pytest.raises(InternalInvariantViolation):
        homology(sr_complex(X))
    monkeypatch.setattr(reisner_oracle, "_verdicts", {})
    with pytest.raises(InternalInvariantViolation):
        first_cm_failure(X)
    assert calls


def test_miscounted_faces_are_an_invariant_violation(monkeypatch):
    """The matching route compares the faces' Euler characteristic with
    the critical cells'.  Counting the empty face as odd-sized corrupts
    the face side only: the empty face is always a face, and the matching
    on the lowest vertex always pairs it with that vertex."""
    delta = sr_complex(canonicalize([(1, 1), (2, 2)]))
    facets = reisner_oracle._facet_masks(delta)
    assert reisner_oracle._reduced_betti(facets) == (0, 1, 0)
    subset_masks = reisner_oracle._subset_masks

    def miscounted(m):
        has, odd = subset_masks(m)
        return has, odd | 1

    monkeypatch.setattr(reisner_oracle, "_subset_masks", miscounted)
    with pytest.raises(InternalInvariantViolation, match="Euler"):
        homology(delta)


def matching_critical_cells(facets):
    """The cells left by the element matching on each vertex in increasing
    bit order, run face by face on a set: a vertex v pairs each remaining
    cell c without v with c + v when that is a remaining cell too."""
    cells = reisner_oracle._face_masks(facets)
    for j in range(max(facets).bit_length()):
        v = 1 << j
        paired = {c for c in cells if not c & v and c | v in cells}
        cells -= paired | {c | v for c in paired}
    return cells


def random_facet_masks(seed, count):
    """Seeded non-pure facet lists on up to ``MATCHING_BOUND`` vertex
    positions, the highest one always used, with facets of one to six
    vertices, so the reference reduction stays small at every size."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, reisner_oracle.MATCHING_BOUND)
        facets = [
            sum(1 << v for v in rng.sample(range(m), rng.randint(1, min(m, 6))))
            for _ in range(rng.randint(1, 8))
        ]
        facets[0] |= 1 << (m - 1)
        yield tuple(facets)


def sparse_configuration(seed, count, n=12):
    """``count`` seeded points in n directions of two levels each, drawn
    until both levels of every direction are used."""
    rng = random.Random(seed)
    points = set()
    while len(points) < count:
        points.add(tuple(rng.randint(1, 2) for _ in range(n)))
    return PointSet(n=n, dims=(2,) * n, points=frozenset(points))


@pytest.fixture(scope="module")
def reduction_references():
    """The reference's Betti numbers of every class key reached on
    exhaustive 2x2x3, on strided 3x3x2 and 2x2x2x2 and on two whole
    complexes above the vertex bound (6 and 12 points in 12 directions,
    24 vertices, which fail at the empty face and so reduce nothing
    else), then of random non-pure complexes up to the bound."""
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_reductions(patch)
        for X in subset_configurations((2, 2, 3)):
            first_cm_failure(X)
        for X in subset_configurations((3, 3, 2), (2, 2, 2, 2), step=97):
            first_cm_failure(X)
        for seed, count in [(11, 6), (9, 12)]:
            assert first_cm_failure(sparse_configuration(seed, count))[0] == frozenset()
    keys = list(dict.fromkeys(calls)) + list(random_facet_masks(11, 300))
    return {facets: coreduced_betti(facets) for facets in keys}


def test_matching_answers_exactly_when_critical_cells_have_one_size(
    monkeypatch, reduction_references
):
    """Both matchings against the face-by-face matching, and both routes of
    the reducer against the reference: on every key up to
    ``MATCHING_BOUND`` vertex positions the bitset matching leaves the
    cells the face-by-face matching leaves, and on every key the set
    matching does too; the reducer gives the reference's Betti numbers,
    which count the critical cells in their degree when they have one
    size; and so does the reducer with the face-set route taken on every
    key, not only above the bound."""
    bound = reisner_oracle.MATCHING_BOUND
    one_size = 0
    for facets, exact in reduction_references.items():
        cells = matching_critical_cells(facets)
        full = functools.reduce(operator.or_, facets)
        if full.bit_length() <= bound:
            critical, _ = reisner_oracle._bitset_matchings(facets, full)
            assert set(critical) == cells, facets
        faces = reisner_oracle._face_masks(facets)
        reisner_oracle._element_matchings(faces, full)
        assert faces == cells, facets
        assert reisner_oracle._reduced_betti(facets) == exact, facets
        if len({c.bit_count() for c in cells}) <= 1:
            one_size += 1
            assert sum(exact) == len(cells), facets
    assert 0 < one_size < len(reduction_references)
    monkeypatch.setattr(reisner_oracle, "MATCHING_BOUND", 0)
    for facets, exact in reduction_references.items():
        assert reisner_oracle._reduced_betti(facets) == exact, facets
    lengths = {max(f).bit_length() for f in reduction_references}
    assert bound in lengths and max(lengths) == 24
    above = [exact for f, exact in reduction_references.items() if max(f).bit_length() > bound]
    assert [b for b in above if any(b)] == [
        (0, 0, 0, 1) + (0,) * 9,  # H~_2 = 1 on 6 points
        (0, 0, 0, 0, 4) + (0,) * 8,  # H~_3 = 4 on 12 points
    ]


def test_two_size_class_is_matched_on_the_bitset_alone(monkeypatch):
    """Below ``MATCHING_BOUND`` the element matchings run once, on the face
    bitset, even when they leave critical cells of two sizes, as on this
    set's complex: no face is listed as a set, by the reducer, ``homology``
    or ``first_cm_failure``."""
    X = canonicalize([(1, 1, 1), (1, 2, 2), (2, 1, 2), (3, 2, 1)])
    facets = reisner_oracle._renumbered(reisner_oracle._grid_facets(X)[2])
    assert len({c.bit_count() for c in matching_critical_cells(facets)}) == 2
    exact = coreduced_betti(facets)
    listed = []
    face_masks = reisner_oracle._face_masks

    def counting(facets):
        listed.append(facets)
        return face_masks(facets)

    monkeypatch.setattr(reisner_oracle, "_face_masks", counting)
    reisner_oracle._class_betti.cache_clear()
    assert reisner_oracle._reduced_betti(facets) == exact
    assert homology(sr_complex(X)).ranks == exact
    assert first_cm_failure(X) == (frozenset(), 1, 1)
    assert listed == []


def unsigned(boundary):
    """Every incidence +1: the flow drops the incidence sign."""
    return lambda cell: dict.fromkeys(boundary(cell), 1)


def both_ways(matchings):
    """Each pair of the set matching reported from its upper cell too, so
    the flow follows an upper cell to its partner instead of dropping it."""

    def matched(cells, full):
        up = matchings(cells, full)
        return {**up, **{upper: lower for lower, upper in up.items()}}

    return matched


def bitset_both_ways(partners):
    """The bitset matching's pairs read from either cell: each lower-cell
    bitset over vertex j is joined by its upper cells, the same set
    shifted by 2^j, so the lookup answers an upper cell with its partner
    too."""

    def matched(full, lower):
        vertices = [j for j in range(full.bit_length()) if full >> j & 1]
        return partners(full, [p | p << (1 << j) for j, p in zip(vertices, lower)])

    return matched


@pytest.mark.parametrize(
    "helper, mutation",
    [
        ("_boundary", unsigned),
        ("_element_matchings", both_ways),
        ("_bitset_partners", bitset_both_ways),
    ],
)
def test_flow_mutations_fail_the_reference_check(
    monkeypatch, reduction_references, helper, mutation
):
    """Each mutation of the flow makes the reducer miss the reference on
    some key, on every route that reads the mutated helper: the bitset
    route, and the face-set route taken on every key.  Without signs,
    some Morse boundary that cancels no longer does.  An upper cell's
    partner lies below it, so its boundary holds no incidence for the
    upper cell and the flow stops there with an error."""
    bound = reisner_oracle.MATCHING_BOUND
    bounds = {"_boundary": (bound, 0), "_element_matchings": (0,), "_bitset_partners": (bound,)}
    monkeypatch.setattr(reisner_oracle, helper, mutation(getattr(reisner_oracle, helper)))
    for route_bound in bounds[helper]:
        monkeypatch.setattr(reisner_oracle, "MATCHING_BOUND", route_bound)
        missed = 0
        for facets, exact in reduction_references.items():
            try:
                missed += reisner_oracle._reduced_betti(facets) != exact
            except (KeyError, InternalInvariantViolation):
                missed += 1
        assert missed, route_bound


def test_six_diagonal_points_of_6x6x6_are_decided_by_the_matching():
    """Six points on the diagonal of 6x6x6: the complex has 18 vertices
    and six facets of 15, about 6 * 2^15 faces, which the reference
    reduction takes tens of seconds to reduce; the matching leaves one
    critical cell."""
    X = canonicalize([(k, k, k) for k in range(1, 7)])
    start = time.perf_counter()
    assert first_cm_failure(X) == (frozenset(), 4, 1)
    assert time.perf_counter() - start < 10


def test_second_pass_over_the_same_configurations_reduces_nothing(monkeypatch):
    """Link classes are shared across calls: once a pass has reduced every
    class its configurations need, a second pass over them takes each
    class's Betti numbers from the memo and reports the same failures."""
    cells = sorted(itertools.product((1, 2, 3), repeat=3))
    rng = random.Random(29)
    configs = [canonicalize(rng.sample(cells, rng.randint(1, 27))) for _ in range(30)]
    calls = counted_reductions(monkeypatch)
    first = [first_cm_failure(X) for X in configs]
    assert len(calls) == len(set(calls)) > 0
    calls.clear()
    assert [first_cm_failure(X) for X in configs] == first
    assert calls == []


def test_is_cm_verdicts(six_points, eleven_points):
    assert is_cm(canonicalize([(1, 1)])) is True
    assert is_cm(canonicalize([(1, 1), (2, 2)])) is False
    assert is_cm(eleven_points) is True
    assert is_cm(six_points) is False


def test_first_failure_of_diagonal_pair():
    face, degree, rank = first_cm_failure(canonicalize([(1, 1), (2, 2)]))
    assert face == frozenset()
    assert degree == 0
    assert rank == 1


@given(grid_configurations(max_n=2, max_levels=3, max_size=7))
@settings(max_examples=40, deadline=None)
def test_is_cm_invariant_under_relabeling(X):
    Y = relabel(
        X,
        list(range(X.n, 0, -1)),
        [list(range(r, 0, -1)) for r in X.dims],
    )
    assert is_cm(X) == is_cm(Y)


@given(grid_configurations(max_n=3, max_levels=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_oracle_agrees_with_star_criterion(X):
    assert is_cm(X) == is_acm(X)


@given(grid_configurations(max_n=3, max_levels=2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_complexes_are_pure(X):
    delta = sr_complex(X)
    total = sum(X.dims)
    assert all(len(f) == total - X.n for f in delta.facets)


def test_failing_triples_exhaustive_small_grids():
    """First failing (face, degree, rank) on every nonempty subset of the
    2x2x2 and 3x3 grids, pinned by a digest captured with this snippet:

        import hashlib, itertools
        from acmpts import canonicalize
        from acmpts.reisner_oracle import first_cm_failure
        h = hashlib.sha256()
        for dims in ((2, 2, 2), (3, 3)):
            cells = sorted(itertools.product(*[range(1, r + 1) for r in dims]))
            for mask in range(1, 1 << len(cells)):
                X = canonicalize([c for b, c in enumerate(cells) if mask >> b & 1])
                t = first_cm_failure(X)
                h.update(f"{dims} {mask} {t and (sorted(t[0]), t[1], t[2])}\n".encode())
        print(h.hexdigest())

    Of the 766 configurations, 410 fail.
    """
    h = hashlib.sha256()
    failing = 0
    for dims in ((2, 2, 2), (3, 3)):
        cells = sorted(itertools.product(*[range(1, r + 1) for r in dims]))
        for mask in range(1, 1 << len(cells)):
            X = canonicalize([c for b, c in enumerate(cells) if mask >> b & 1])
            t = first_cm_failure(X)
            h.update(f"{dims} {mask} {t and (sorted(t[0]), t[1], t[2])}\n".encode())
            failing += t is not None
    assert failing == 410
    assert h.hexdigest() == "172f8d815895022c689075001132de42d09bfe13bfa52082ecb3f600014a8296"


def test_oracle_agreement_exhaustive_mixed_grid():
    """Every nonempty subset of the 2x2x3 grid gets the same verdict
    from the star criterion and the homological oracle."""
    cells = sorted(itertools.product((1, 2), (1, 2), (1, 2, 3)))
    for mask in range(1, 1 << 12):
        X = canonicalize([cells[b] for b in range(12) if mask >> b & 1])
        assert is_acm(X) == is_cm(X)


def test_oracle_agrees_on_chain_configuration(twelve_chain):
    # a 4x3x3 case, larger than the exhaustive envelopes
    assert is_acm(twelve_chain) is True
    assert is_cm(twelve_chain) is True


def test_oracle_agreement_random_four_directions():
    """Seeded random subsets of the 2x2x2x2 grid agree.  The agreement is
    not exhaustive there: the star criterion accepts one orbit that is not
    Cohen-Macaulay, which these samples miss (pinned in
    test_star_property.py::test_star_accepts_non_cm_configuration_on_2x2x2x2)."""
    import random

    cells = sorted(itertools.product((1, 2), (1, 2), (1, 2), (1, 2)))
    rng = random.Random(7)
    for _ in range(150):
        k = rng.randint(1, 16)
        X = canonicalize(sorted(rng.sample(cells, k)))
        assert is_acm(X) == is_cm(X)


def test_empty_face_failure_is_the_first_step_of_the_scan():
    """``empty_face_failure`` reports the whole complex's failure exactly
    when ``first_cm_failure`` reports the empty face."""
    for X in [*subset_configurations((2, 2, 3), (3, 3)), *cube_sample(42)]:
        failure = first_cm_failure(X)
        expected = failure[1:] if failure and not failure[0] else None
        assert empty_face_failure(X) == expected


def test_cm_exactly_when_vertex_links_are_cm_and_the_whole_complex_passes():
    """The route of ``acmpts enumerate``: the link of a[i,j] is the complex
    of X without level j of direction i (coned over the levels that
    removal empties), so X is CM exactly when every such configuration
    is CM and the empty face passes."""
    for X in [*subset_configurations((2, 2, 3), (3, 3)), *cube_sample(42)]:
        links = [remove_level(X, i, j) for i in range(1, X.n + 1) if X.dims[i - 1] > 1
                 for j in range(1, X.dims[i - 1] + 1)]
        assert is_cm(X) == (all(map(is_cm, links)) and empty_face_failure(X) is None)


@pytest.fixture(scope="module")
def walked_sets():
    """The differential inputs with the walk's first failure of each: the
    fixtures, every distinct canonical subset of 2x2x2, 3x3 and 2x2x3,
    every 97th subset of 4x4 and 2x2x2x2 and both seeded 3x3x3 benchmark
    samples.  The walk reads none of the helpers that the mutations below
    replace."""
    fixtures = [SIX_POINTS, ELEVEN_POINTS, ELEVEN_MOVED, TWELVE_CHAIN, STAR_BLIND_EIGHT]
    configs = dict.fromkeys([
        *map(canonicalize, fixtures),
        *subset_configurations((2, 2, 2), (3, 3), (2, 2, 3)),
        *subset_configurations((4, 4), (2, 2, 2, 2), step=97),
        *cube_sample(42),
        *cube_sample(7),
    ])
    return [(X, reisner_oracle._first_failure(X)) for X in configs]


def is_cm_mismatches(walked):
    """The sets on which ``is_cm`` disagrees with "the walk finds no
    failing link", from an empty verdict memo."""
    return [X for X, failure in walked if is_cm(X) != (failure is None)]


def test_is_cm_is_the_walk_finding_no_failure(monkeypatch, walked_sets):
    """The route over vertex links and the walk over boxes are two
    readings of Reisner's criterion; they must agree on every set, and
    ``first_cm_failure`` still reports the walk's first failing face."""
    monkeypatch.setattr(reisner_oracle, "_verdicts", {})
    assert is_cm_mismatches(walked_sets) == []
    assert all(first_cm_failure(X) == failure for X, failure in walked_sets)
    assert sum(failure is None for _, failure in walked_sets) == 951  # CM sets among them


def always_passes(whole_complex_passes):
    """Every whole complex passes: the route checks vertex links only."""
    return lambda grid, mask, kept: True


def no_links(vertex_links):
    """No vertex link is checked: the route checks the whole complex only."""

    def links(grid, mask):
        split = vertex_links(grid, mask)
        return split and (split[0], [])

    return links


@pytest.mark.parametrize(
    "helper, mutation",
    [("_whole_complex_passes", always_passes), ("_vertex_links", no_links)],
    ids=["no-whole-complex-step", "no-vertex-link-step"],
)
def test_route_mutations_fail_the_differential_check(
    monkeypatch, walked_sets, star_blind_eight, helper, mutation
):
    """Each step of the route is needed.  Without the whole-complex step,
    ``star_blind_eight`` is accepted: its eight vertex links are all CM,
    and its whole complex fails in degree 1.  Without the vertex-link
    step, only the whole complex is checked, which accepts sets that fail
    at a larger face."""
    monkeypatch.setattr(reisner_oracle, helper, mutation(getattr(reisner_oracle, helper)))
    monkeypatch.setattr(reisner_oracle, "_verdicts", {})
    missed = is_cm_mismatches(walked_sets)
    assert missed
    if helper == "_whole_complex_passes":
        assert star_blind_eight in missed
        assert reisner_oracle._first_failure(star_blind_eight) == (frozenset(), 1, 1)


@pytest.mark.parametrize(
    "points",
    [
        [p for p in itertools.product((1, 2, 3), repeat=3) if p != (3, 3, 3)],
        [p for p in itertools.product((1, 2, 3, 4), repeat=3) if sum(p) <= 6],
    ],
    ids=["26-of-3x3x3", "20-point-staircase-of-4x4x4"],
)
def test_a_low_memo_bound_still_decides_each_sub_configuration_once(monkeypatch, points):
    """The verdict memo is replaced only when a call starts, so a call
    keeps every verdict it makes, whatever the bound: with the bound at 8
    and more verdicts than that left over, a CM set decides each of its
    sub-configurations once and reduces as many whole complexes as a run
    at the full bound."""
    X = canonicalize(points)
    decided, failures = [], []
    vertex_links, failure = reisner_oracle._vertex_links, reisner_oracle._failure

    def deciding(grid, mask):
        decided.append(mask)
        return vertex_links(grid, mask)

    def reducing(facets):
        failures.append(facets)
        return failure(facets)

    monkeypatch.setattr(reisner_oracle, "_vertex_links", deciding)
    monkeypatch.setattr(reisner_oracle, "_failure", reducing)
    monkeypatch.setattr(reisner_oracle, "_verdicts", {})
    runs = []
    for bound in (reisner_oracle.VERDICT_BOUND, 8):
        monkeypatch.setattr(reisner_oracle, "VERDICT_BOUND", bound)
        left_over = reisner_oracle._verdicts
        decided.clear()
        failures.clear()
        assert is_cm(X) is True
        assert len(decided) == len(set(decided)) > 8
        runs.append((sorted(decided), len(failures)))
    assert runs[0] == runs[1] and runs[0][1] > 8
    assert reisner_oracle._verdicts is not left_over  # replaced at the start of the second call
    assert list(reisner_oracle._verdicts) == [X.dims]
    assert sorted(reisner_oracle._verdicts[X.dims]) == sorted(decided)


def test_sparse_set_in_eighteen_directions_is_decided_in_small_memory(monkeypatch):
    """Six seeded points in 18 directions of two levels each: 2^18 cells
    and 36 vertex positions.  Reducing the whole complex would list about
    6 * 2^18 faces as a set (3.4 s and a 203 MB peak at the walk); the
    vertex links reject the set first, among subsets of its points.  No
    table of the grid's cells is built."""
    rng = random.Random(1)
    points = set()
    while len(points) < 6:
        points.add(tuple(rng.randint(1, 2) for _ in range(18)))
    X = canonicalize(points)
    assert X.dims == (2,) * 18

    def no_table(dims):
        raise AssertionError(f"cell_table({dims}) was built")

    monkeypatch.setattr(grid_model, "cell_table", no_table)
    monkeypatch.setattr(reisner_oracle, "_verdicts", {})
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = time.perf_counter()
        verdict = is_cm(X)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert verdict is False
    assert peak < 32 * 2**20, peak
    assert elapsed < 10, elapsed


def test_walk_that_finds_no_failure_after_is_cm_rejects_is_an_invariant_violation(
    monkeypatch, eleven_points
):
    """``cm_obstruction`` walks only a set that ``is_cm`` rejects, and the
    walk must then find a failing face; on a CM set it finds none."""
    assert first_cm_failure(eleven_points) is None
    monkeypatch.setattr(reisner_oracle, "is_cm", lambda X: False)
    with pytest.raises(InternalInvariantViolation):
        first_cm_failure(eleven_points)
