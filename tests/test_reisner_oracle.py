import hashlib
import itertools

import pytest
from hypothesis import given, settings

from acmpts import PointSet, canonicalize, is_acm, relabel, reisner_oracle
from acmpts.errors import EmptyConfiguration, FaceNotInComplex, InternalInvariantViolation
from acmpts.linalg import rank_int
from acmpts.reisner_oracle import (
    GridVariable,
    SimplicialComplex,
    cm_obstruction,
    first_cm_failure,
    homology,
    is_cm,
    link,
    sr_complex,
)
from conftest import grid_configurations
from ideal_reference import configuration_ideal


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
    face, the empty face included, kept independent of the coreductions
    under test."""
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


def subset_configurations(*grids):
    for dims in grids:
        cells = sorted(itertools.product(*[range(1, r + 1) for r in dims]))
        for mask in range(1, 1 << len(cells)):
            yield canonicalize([c for b, c in enumerate(cells) if mask >> b & 1])


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


def test_rank_larger_than_possible_is_an_invariant_violation(monkeypatch):
    """The reduction of two disjoint edges keeps one edge and its two
    vertices, so a rank is taken; one more than the matrix has rows makes
    a Betti number negative, which homology must not return."""
    X = canonicalize([(1, 1), (2, 2)])
    calls = []

    def too_large(matrix):
        calls.append(matrix)
        return len(matrix) + 1

    monkeypatch.setattr(reisner_oracle, "rank_int", too_large)
    with pytest.raises(InternalInvariantViolation):
        homology(sr_complex(X))
    with pytest.raises(InternalInvariantViolation):
        is_cm(X)
    assert calls


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


def test_cone_invariance(six_points):
    for X in (six_points, canonicalize([(1, 1), (1, 2), (2, 1)])):
        delta = sr_complex(X)
        apex = var(1, 99)
        coned = SimplicialComplex.from_facets(
            delta.vertices + (apex,), [f | {apex} for f in delta.facets]
        )
        assert (cm_obstruction(delta) is None) == (cm_obstruction(coned) is None)


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
