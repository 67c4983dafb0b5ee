"""Point-set constructors with Hilbert-function verification.

Liaison addition combines summand configurations V_1, ..., V_n placed in
a common grid with one form per direction, each form a product of
hyperplanes of its family.  Every form must vanish on all the other
summands, and (reducedness guard) on no point of its own summand, so the
output is the reduced union of the summands and the complete-intersection
box spanned by the supports.  Hilbert functions then add up exactly after
shifting each summand by its form's degree vector.

The layer construction adjoins a full copy of the shadow of X at a fresh
hyperplane level of one direction.  An ACM X whose shadow
``project(X, i)`` is also ACM stays ACM; nothing is claimed when the
shadow is not ACM.  The layer satisfies the one-step Hilbert relation
h_Z(t) = h_layer(t) + h_X(t - e_i).

Summands are kept as raw coordinate tuples rather than canonical
configurations: the vanishing conditions and the Hilbert identities live
on the shared uncompressed grid embedding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    BadDirection,
    DimensionMismatch,
    EmptyConfiguration,
    InputError,
    OverlappingSummands,
    ReducednessGuardViolated,
    VanishingConditionViolated,
)
from .grid_model import GridPoint, PointSet, canonicalize, check_direction, is_int, is_point
from .hilbert_function import shifted_sum_identity


@dataclass(frozen=True)
class DirectionForm:
    """A product of hyperplanes of one family, named by its level support set."""

    direction: int
    support: frozenset[int]

    def __post_init__(self) -> None:
        if not is_int(self.direction) or self.direction < 1:
            raise InputError(f"form direction {self.direction!r} is not a positive integer")
        if not self.support:
            raise InputError("form support must be nonempty")
        if not all(is_int(j) and j >= 1 for j in self.support):
            raise InputError("support levels must be positive integers")

    @property
    def degree(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class LiaisonInput:
    """Summands plus one direction form per coordinate direction.

    Validated on construction: the i-th form vanishes on every other
    summand (its support contains their i-th coordinates) and on no point
    of its own summand, and the summands are pairwise disjoint.
    """

    summands: tuple[frozenset[GridPoint], ...]
    forms: tuple[DirectionForm, ...]

    def __post_init__(self) -> None:
        if len(self.summands) < 2:
            raise InputError("liaison addition needs at least two summands")
        if not all(self.summands):
            raise EmptyConfiguration("summands must be nonempty")
        n = len(self.summands)
        if len(self.forms) != n:
            raise InputError("need exactly one form per summand")
        for k, form in enumerate(self.forms, start=1):
            if form.direction != k:
                raise InputError("forms must be listed in direction order 1..n")
        for part in self.summands:
            for p in part:
                if not is_point(p):
                    raise InputError(f"summand point {p!r} is not a tuple of integers")
                if len(p) != n:
                    raise DimensionMismatch(
                        f"point {p} has length {len(p)}, expected {n}"
                    )
        # Structural disjointness first: a shared point would contradict
        # the vanishing condition and the guard simultaneously, so it must
        # be reported as what it is.
        for a in range(len(self.summands)):
            for b in range(a + 1, len(self.summands)):
                common = self.summands[a] & self.summands[b]
                if common:
                    raise OverlappingSummands(
                        f"summands {a + 1} and {b + 1} share {sorted(common)}"
                    )
        # The construction's vanishing hypothesis comes next; the reducedness
        # guard is this artifact's extra restriction to reduced unions.
        for i, form in enumerate(self.forms, start=1):
            for j, part in enumerate(self.summands, start=1):
                if j == i:
                    continue
                for p in part:
                    if p[i - 1] not in form.support:
                        raise VanishingConditionViolated(
                            f"form {i} does not vanish on summand {j} point {p}"
                        )
        for i, form in enumerate(self.forms, start=1):
            for p in self.summands[i - 1]:
                if p[i - 1] in form.support:
                    raise ReducednessGuardViolated(
                        f"form {i} vanishes on its own summand point {p}"
                    )

    @property
    def n(self) -> int:
        return len(self.summands)

    def box_points(self) -> frozenset[GridPoint]:
        """The complete-intersection box spanned by the form supports."""
        return frozenset(
            itertools.product(*[sorted(f.support) for f in self.forms])
        )

    def union_points(self) -> frozenset[GridPoint]:
        out: set[GridPoint] = set(self.box_points())
        for part in self.summands:
            out |= part
        return frozenset(out)

    def degree_shifts(self) -> list[tuple[int, ...]]:
        """Degree vector of each form: its degree in its own direction."""
        n = self.n
        return [
            tuple(f.degree if k == f.direction - 1 else 0 for k in range(n))
            for f in self.forms
        ]


@dataclass(frozen=True)
class LiaisonResult:
    """Canonicalized output with provenance per canonical point."""

    point_set: PointSet
    provenance: Mapping[GridPoint, str]


def liaison_addition(input: LiaisonInput) -> LiaisonResult:
    """The union of the summands and the box, canonicalized, with labels.

    The reducedness guard makes summands disjoint from the box, so each
    canonical point carries exactly one label: "V1".."Vn" or "box".
    Canonical relabeling increases in every coordinate, so it keeps
    lexicographic order and pairs the sorted raw and canonical points.
    """
    raw = sorted(input.union_points())
    Z = canonicalize(raw)
    to_canonical = dict(zip(raw, Z.sorted_points()))
    provenance = {to_canonical[p]: "box" for p in input.box_points()}
    for k, part in enumerate(input.summands, start=1):
        provenance.update((to_canonical[p], f"V{k}") for p in part)
    return LiaisonResult(point_set=Z, provenance=provenance)


def verify_hf_additivity(
    input: LiaisonInput, Z: PointSet, T: Sequence[int] | None = None
) -> bool:
    """Check h_Z(t) = h_box(t) + sum_i h_{V_i}(t - d_i) for all 0 <= t <= T.

    All Hilbert values are evaluation ranks on the common uncompressed
    grid embedding; Z's canonical levels map back to the k-th smallest
    raw level of the union.  Shifted terms at negative degrees count 0.
    The default box corner is (sum_i D_i) in every coordinate, beyond
    which both sides are stable.
    """
    if T is None:
        total = sum(f.degree for f in input.forms)
        T = (total,) * input.n
    raw = input.union_points()
    raw_levels = [sorted({p[i] for p in raw}) for i in range(input.n)]
    if any(Z.dims[i] > len(raw_levels[i]) for i in range(input.n)):
        return False
    z_raw = [
        tuple(raw_levels[i][p[i] - 1] for i in range(input.n)) for p in Z.points
    ]
    terms = [(input.box_points(), (0,) * input.n), *zip(input.summands, input.degree_shifts())]
    return shifted_sum_identity(z_raw, terms, T)


def _layer_pieces(
    X: PointSet, i: int, fresh: bool
) -> tuple[set[GridPoint], set[GridPoint]]:
    """Raw (base, layer) point sets in the output's common embedding,
    after the layer construction's checks on X and i."""
    if X.size == 0:
        raise EmptyConfiguration("layer construction needs a nonempty configuration")
    if X.n < 2:
        raise BadDirection("layer construction needs at least two directions")
    check_direction(i, X.n)
    if not isinstance(fresh, bool):
        raise InputError(f"fresh {fresh!r} is not a bool")
    shadow = sorted({p[: i - 1] + p[i:] for p in X.points})
    if fresh:
        c = X.dims[i - 1] + 1
        base = set(X.points)
    else:
        c = 1
        base = {p[: i - 1] + (p[i - 1] + 1,) + p[i:] for p in X.points}
    layer = {q[: i - 1] + (c,) + q[i - 1 :] for q in shadow}
    return base, layer


def verify_layer_hf(X: PointSet, i: int, T: Sequence[int], fresh: bool = True) -> bool:
    """Check h_Z(t) = h_layer(t) + h_X(t - e_i) for all 0 <= t <= T,
    with both sides evaluated on the layered configuration's embedding."""
    base, layer = _layer_pieces(X, i, fresh)
    e_i = tuple(int(k == i - 1) for k in range(X.n))
    return shifted_sum_identity(base | layer, [(layer, (0,) * X.n), (base, e_i)], T)


def add_layer(X: PointSet, i: int, fresh: bool = True) -> PointSet:
    """Adjoin a full copy of the shadow of X at a new level of direction i.

    The new hyperplane contains no point of X; with ``fresh`` it is
    appended after the existing levels (index r_i + 1), otherwise it is
    inserted before them (index 1, existing levels shifted up).  Both
    placements are the same configuration up to relabeling.  The result
    is ACM when X and its shadow ``project(X, i)`` are both ACM.
    """
    base, layer = _layer_pieces(X, i, fresh)
    return canonicalize(sorted(base | layer))
