import itertools

import pytest
from hypothesis import given, settings

from acmpts import canonicalize, evaluation_rank, is_acm
from acmpts.errors import EmptyConfiguration
from acmpts.reisner_oracle import GridVariable, grid_variables
from conftest import grid_configurations
from ideal_reference import (
    Monomial,
    MonomialIdeal,
    configuration_ideal,
    contains,
    intersect,
    multidegree,
    point_prime,
    squarefree_monomials,
)


def var(i, j):
    return GridVariable(i, j)


def mono(*vs):
    return Monomial(vs)


def test_point_prime():
    assert point_prime((1, 2, 1)).generators == {
        mono(var(1, 1)), mono(var(2, 2)), mono(var(3, 1)),
    }
    assert point_prime((5,)).generators == {mono(var(1, 5))}
    assert point_prime((2, 2)).generators == {mono(var(1, 2)), mono(var(2, 2))}


def test_minimal_generators_drop_multiples():
    a, ab = mono(var(1, 1)), mono(var(1, 1), var(2, 1))
    assert MonomialIdeal([a, ab]).generators == {a}


def test_intersect_diagonal_points():
    I = intersect(point_prime((1, 1, 1)), point_prime((2, 2, 2)))
    assert len(I.generators) == 9
    assert all(len(g) == 2 for g in I.generators)
    assert mono(var(1, 1), var(1, 2)) in I.generators


def test_intersect_idempotent():
    I = configuration_ideal(canonicalize([(1, 1, 2), (2, 1, 1)]))
    assert intersect(I, I) == I


def test_intersect_collinear_points():
    I = intersect(point_prime((1, 1)), point_prime((2, 1)))
    assert I.generators == {mono(var(2, 1)), mono(var(1, 1), var(1, 2))}


def test_configuration_ideal_basics():
    single = canonicalize([(1, 2, 1)])
    assert configuration_ideal(single) == point_prime((1, 1, 1))
    full = canonicalize([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert configuration_ideal(full).generators == {
        mono(var(1, 1), var(1, 2)), mono(var(2, 1), var(2, 2)),
    }
    from acmpts.grid_model import PointSet

    with pytest.raises(EmptyConfiguration):
        configuration_ideal(PointSet.empty(2))


def minimal_hitting_sets(X):
    """Independent construction of the configuration ideal: minimal sets
    of grid variables meeting every point's variable triple."""
    needed = [
        {var(i + 1, c) for i, c in enumerate(p)} for p in X.sorted_points()
    ]
    universe = grid_variables(X.dims)
    found = []
    for k in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            s = set(combo)
            if all(s & req for req in needed) and not any(h <= s for h in found):
                found.append(s)
    return {Monomial(s) for s in found}


def test_six_point_ideal_matches_hitting_sets(six_points):
    J = configuration_ideal(six_points)
    assert set(J.generators) == minimal_hitting_sets(six_points)
    assert max(len(g) for g in J.generators) == 3


@given(grid_configurations(max_n=2, max_levels=3, max_size=6))
@settings(max_examples=30, deadline=None)
def test_ideal_equals_hitting_sets(X):
    assert set(configuration_ideal(X).generators) == minimal_hitting_sets(X)


def test_contains():
    I = MonomialIdeal([mono(var(1, 1))])
    assert contains(I, mono(var(1, 1), var(2, 1)))
    J = MonomialIdeal([mono(var(1, 1), var(1, 2))])
    assert not contains(J, mono(var(1, 1)))


def test_contains_transversal_monomial(six_points):
    # a[1,1]*a[2,1]*a[3,1] hits every configuration point in some
    # coordinate (each lies in every point prime), so it is in the ideal
    J = configuration_ideal(six_points)
    assert contains(J, mono(var(1, 1), var(2, 1), var(3, 1)))
    assert contains(J, mono(var(1, 2), var(2, 2), var(3, 2)))


@given(grid_configurations(max_n=3, max_levels=2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_membership_characterization(X):
    J = configuration_ideal(X)
    needed = [
        {var(i + 1, c) for i, c in enumerate(p)} for p in X.sorted_points()
    ]
    for m in squarefree_monomials(X.dims, 3):
        expected = all(m & req for req in needed)
        assert contains(J, m) == expected


def test_acm_generator_degrees_cut_hilbert_function():
    """For an ACM configuration each generator multidegree of the
    monomial model supports an actual element of the vanishing ideal:
    the full degree-t space is strictly larger than h_X(t)."""
    cells = sorted(itertools.product((1, 2), (1, 2), (1, 2)))
    for mask in range(1, 1 << 8, 7):  # a spread of subsets
        X = canonicalize([cells[b] for b in range(8) if mask >> b & 1])
        if not is_acm(X):
            continue
        for g in configuration_ideal(X).sorted_generators():
            t = multidegree(g, X.n)
            full_dim = 1
            for ti in t:
                full_dim *= ti + 1
            assert full_dim - evaluation_rank(X.points, t) >= 1
