import itertools

import pytest

from acmpts import canonicalize, constructions, delta_table, is_acm, project
from acmpts.constructions import (
    DirectionForm,
    LiaisonInput,
    add_layer,
    liaison_addition,
    verify_hf_additivity,
    verify_layer_hf,
)
from acmpts.errors import (
    BadDirection,
    DimensionMismatch,
    EmptyConfiguration,
    InputError,
    OverlappingSummands,
    ReducednessGuardViolated,
    VanishingConditionViolated,
)
from acmpts.grid_model import PointSet
from acmpts.hilbert_function import box_degrees, evaluation_rank


def eleven_input():
    return LiaisonInput(
        summands=(
            frozenset({(1, 1, 1)}),
            frozenset({(2, 2, 2)}),
            frozenset({(3, 3, 3)}),
        ),
        forms=(
            DirectionForm(1, frozenset({2, 3})),
            DirectionForm(2, frozenset({1, 3})),
            DirectionForm(3, frozenset({1, 2})),
        ),
    )


def pair_input():
    return LiaisonInput(
        summands=(frozenset({(1, 1)}), frozenset({(2, 2)})),
        forms=(DirectionForm(1, frozenset({2})), DirectionForm(2, frozenset({1}))),
    )


def gapped_input():
    """Three singleton summands on raw levels with gaps in every direction."""
    return LiaisonInput(
        summands=(
            frozenset({(1, 1, 1)}),
            frozenset({(4, 5, 2)}),
            frozenset({(6, 6, 9)}),
        ),
        forms=(
            DirectionForm(1, frozenset({4, 6})),
            DirectionForm(2, frozenset({1, 6})),
            DirectionForm(3, frozenset({1, 2})),
        ),
    )


def test_direction_form_validation():
    with pytest.raises(InputError):
        DirectionForm(1, frozenset())
    with pytest.raises(InputError):
        DirectionForm(1, frozenset({0, 2}))
    assert DirectionForm(2, frozenset({4, 7})).degree == 2


def test_liaison_eleven_points(eleven_points):
    result = liaison_addition(eleven_input())
    assert result.point_set == eleven_points
    labels = sorted(result.provenance.values())
    assert labels.count("box") == 8
    assert {v for v in labels if v.startswith("V")} == {"V1", "V2", "V3"}
    assert result.point_set.size == 11


def test_liaison_pair_example():
    inp = pair_input()
    result = liaison_addition(inp)
    assert result.point_set.points == {(1, 1), (2, 2), (2, 1)}
    assert inp.box_points() == {(2, 1)}


def test_liaison_hypothesis_violations():
    base = eleven_input()
    with pytest.raises(VanishingConditionViolated):
        LiaisonInput(
            summands=base.summands,
            forms=(DirectionForm(1, frozenset({1})),) + base.forms[1:],
        )
    with pytest.raises(ReducednessGuardViolated):
        LiaisonInput(
            summands=base.summands,
            forms=(DirectionForm(1, frozenset({1, 2, 3})),) + base.forms[1:],
        )
    with pytest.raises(OverlappingSummands):
        LiaisonInput(
            summands=(
                frozenset({(1, 1), (3, 2)}),
                frozenset({(2, 2), (3, 2)}),
            ),
            forms=(
                DirectionForm(1, frozenset({2, 3})),
                DirectionForm(2, frozenset({1, 2})),
            ),
        )
    with pytest.raises(EmptyConfiguration):
        LiaisonInput(
            summands=(frozenset(), frozenset({(2, 2)})),
            forms=pair_input().forms,
        )


@pytest.mark.parametrize("bad", [True, 1.0, 1.5])
def test_liaison_summand_coordinates_must_be_ints(bad):
    """A bool or integral float would pass every hypothesis check and make
    ``verify_hf_additivity`` return True; 1.5 would end in a bare TypeError."""
    with pytest.raises(InputError, match="not a tuple of integers"):
        LiaisonInput(
            summands=(frozenset({(bad, 5)}), frozenset({(2, 2)})),
            forms=(DirectionForm(1, frozenset({2})), DirectionForm(2, frozenset({1, 5}))),
        )


@pytest.mark.parametrize(
    "summands, forms, error, message",
    [
        ([{(1, 1)}], [(1, {2})], InputError, "at least two summands"),
        ([{(1, 1)}, {(2, 2)}], [(1, {2})], InputError, "one form per summand"),
        ([{(1, 1)}, {(2, 2)}], [(2, {1}), (1, {2})], InputError, "direction order"),
        ([{(1, 1)}, {(2, 2, 1)}], [(1, {2}), (2, {1})], DimensionMismatch, "expected 2"),
    ],
)
def test_liaison_input_shape_is_checked(summands, forms, error, message):
    with pytest.raises(error, match=message):
        LiaisonInput(
            summands=tuple(map(frozenset, summands)),
            forms=tuple(DirectionForm(i, frozenset(sup)) for i, sup in forms),
        )


def test_hf_additivity_fails_when_z_has_more_levels_than_the_union():
    assert verify_hf_additivity(pair_input(), canonicalize([(1, 1), (2, 2), (3, 3)])) is False


def test_hf_additivity_on_eleven_points():
    inp = eleven_input()
    Z = liaison_addition(inp).point_set
    assert verify_hf_additivity(inp, Z, (3, 3, 3)) is True


def test_hf_additivity_pair_and_perturbation():
    inp = pair_input()
    Z = liaison_addition(inp).point_set
    assert verify_hf_additivity(inp, Z, (2, 2)) is True
    damaged = canonicalize([(1, 1), (2, 2)])  # box point removed
    assert verify_hf_additivity(inp, damaged, (2, 2)) is False


def test_delta_additivity_on_eleven_points(eleven_points):
    """First differences of both sides of the addition formula agree."""
    inp = eleven_input()
    T = (3, 3, 3)
    shifts = inp.degree_shifts()

    def rhs_value(t):
        total = evaluation_rank(inp.box_points(), t)
        for part, d in zip(inp.summands, shifts):
            shifted = tuple(a - b for a, b in zip(t, d))
            if min(shifted) >= 0:
                total += evaluation_rank(part, shifted)
        return total

    rhs_table = {t: rhs_value(t) for t in box_degrees(T)}

    def delta_of(table, t):
        total = 0
        for mask in range(8):
            shifted = tuple(t[i] - (mask >> i & 1) for i in range(3))
            if min(shifted) < 0:
                continue
            total += (-1) ** bin(mask).count("1") * table[shifted]
        return total

    dt = delta_table(eleven_points, T)
    for t in box_degrees(T):
        assert dt[t] == delta_of(rhs_table, t)


def test_liaison_acm_transfer():
    # singleton summands are ACM, so the sum is ACM
    assert is_acm(liaison_addition(eleven_input()).point_set)
    assert is_acm(liaison_addition(pair_input()).point_set)
    # a non-ACM summand poisons the sum
    bad = LiaisonInput(
        summands=(frozenset({(1, 1), (2, 2)}), frozenset({(3, 3)})),
        forms=(
            DirectionForm(1, frozenset({3})),
            DirectionForm(2, frozenset({1, 2})),
        ),
    )
    Z = liaison_addition(bad).point_set
    assert Z.size == 5
    assert is_acm(Z) is False
    # the Hilbert identity is unconditional, ACM or not
    assert verify_hf_additivity(bad, Z, (2, 2)) is True


def test_add_layer_examples(six_points):
    assert add_layer(canonicalize([(1, 1)]), 1).points == {(1, 1), (2, 1)}
    grown = add_layer(canonicalize([(1, 1), (2, 2), (2, 1)]), 1)
    assert grown.points == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)}
    assert add_layer(six_points, 1).size == 10  # shadow has four points


def test_add_layer_prepend_variant():
    X = canonicalize([(1, 1), (2, 2), (2, 1)])
    appended = add_layer(X, 1, fresh=True)
    prepended = add_layer(X, 1, fresh=False)
    assert appended.size == prepended.size
    assert is_acm(appended) == is_acm(prepended)
    # the new full shadow sits at the top level or at level one
    shadow = {p[1:] for p in X.points}
    assert {p[1:] for p in appended.points if p[0] == appended.dims[0]} == shadow
    assert {p[1:] for p in prepended.points if p[0] == 1} == shadow


@pytest.mark.parametrize(
    "direction, support",
    [(1, {1.5}), (1, {True}), (1, {2, 3.0}), (1.0, {2}), (True, {2}), (0, {2})],
)
def test_direction_form_rejects_non_integers(direction, support):
    with pytest.raises(InputError):
        DirectionForm(direction, frozenset(support))


@pytest.mark.parametrize("i", [1.0, True])
def test_layer_direction_must_be_an_int(i):
    X = canonicalize([(1, 1), (2, 2), (1, 2)])
    with pytest.raises(BadDirection):
        add_layer(X, i)
    with pytest.raises(BadDirection):
        verify_layer_hf(X, i, (1, 1))


@pytest.mark.parametrize("fresh", ["no", 0, 1, None])
def test_layer_fresh_must_be_a_bool(fresh):
    X = canonicalize([(1, 1), (2, 2), (1, 2)])
    with pytest.raises(InputError, match="is not a bool"):
        add_layer(X, 1, fresh=fresh)
    with pytest.raises(InputError, match="is not a bool"):
        verify_layer_hf(X, 1, (1, 1), fresh=fresh)


def test_add_layer_errors():
    with pytest.raises(BadDirection):
        add_layer(canonicalize([(1, 1)]), 3)
    with pytest.raises(BadDirection):
        add_layer(canonicalize([(1,), (2,)]), 1)
    with pytest.raises(EmptyConfiguration):
        add_layer(PointSet.empty(2), 1)


def test_layer_preserves_acm_exhaustively_for_two_directions():
    """Adding a layer never changes the verdict in two directions."""
    cells = sorted(itertools.product((1, 2, 3), (1, 2, 3)))
    for mask in range(1, 1 << 9):
        X = canonicalize([cells[b] for b in range(9) if mask >> b & 1])
        verdict = is_acm(X)
        for i in (1, 2):
            assert is_acm(add_layer(X, i)) == verdict


def test_layer_monotone_on_small_cubes():
    """An ACM configuration with ACM shadow stays ACM after layering."""
    cells = sorted(itertools.product((1, 2), (1, 2), (1, 2)))
    for mask in range(1, 1 << 8):
        X = canonicalize([cells[b] for b in range(8) if mask >> b & 1])
        if not is_acm(X):
            continue
        for i in (1, 2, 3):
            if is_acm(project(X, i)):
                assert is_acm(add_layer(X, i))


def test_layer_hilbert_relation(six_points):
    assert verify_layer_hf(canonicalize([(1, 1), (2, 2), (2, 1)]), 1, (2, 2))
    assert verify_layer_hf(canonicalize([(1, 1), (2, 2), (2, 1)]), 2, (2, 2))
    assert verify_layer_hf(six_points, 1, (1, 1, 1))
    assert verify_layer_hf(six_points, 3, (1, 1, 1), fresh=False)


def unclamped_identity(whole, terms, T):
    """The identity check with one evaluation_rank per degree and term."""
    for t in box_degrees(T):
        rhs = 0
        for points, shift in terms:
            shifted = tuple(ti - di for ti, di in zip(t, shift))
            if min(shifted) >= 0:
                rhs += evaluation_rank(points, shifted)
        if evaluation_rank(whole, t) != rhs:
            return False
    return True


def test_shifted_sum_identity_matches_unclamped_loop(monkeypatch, six_points, eleven_points):
    """The identity compared on the box clamped to where every term has
    saturated gives the verdict of one evaluation_rank per degree of the
    whole box: on the liaison inputs (the bundled example among them, at
    its default box, its bundled box (3,3,3) and (4,4,4)) with their own
    Z, and with a wrong Z, which must fail, and on layers, the bundled
    example at its default box included."""
    original = constructions.shifted_sum_identity
    verdicts = []

    def compared(whole, terms, T):
        whole, terms = list(whole), [(list(points), shift) for points, shift in terms]
        got = original(whole, terms, T)
        assert got == unclamped_identity(whole, terms, T)
        verdicts.append(got)
        return got

    monkeypatch.setattr(constructions, "shifted_sum_identity", compared)
    for inp in (eleven_input(), pair_input(), gapped_input()):
        Z = liaison_addition(inp).point_set
        for W in (Z, canonicalize(sorted(Z.points)[1:])):
            for T in (None, (3,) * inp.n, (4,) * inp.n):
                assert verify_hf_additivity(inp, W, T) is (W is Z)
    cells = sorted(itertools.product((1, 2), repeat=3))
    configs = [six_points, eleven_points, canonicalize([(1, 1), (3, 2), (3, 1)])]
    configs += [canonicalize(cells[start::3]) for start in range(3)]
    for X in configs:
        for i in range(1, X.n + 1):
            assert verify_layer_hf(X, i, (3,) * X.n, fresh=False)
    assert verify_layer_hf(canonicalize([(1, 1)]), 1, (2, 2))
    assert True in verdicts and False in verdicts
