"""Monomial ideals in the grid variables a[i,j].

Replacing the hyperplane through level j of direction i by a fresh
variable a[i,j] turns a configuration into the intersection of the point
primes (a[1,p_1], ..., a[n,p_n]).  Every monomial that arises is
squarefree, so a monomial is stored as the frozenset of its variables,
the same object as a face of the Stanley-Reisner complex: lcm is union,
division is inclusion and degree is size.  This module keeps just
enough ideal arithmetic for that reduction: point primes, pairwise
intersections, minimal generating sets, and membership.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterable, NamedTuple

from .errors import DimensionMismatch, EmptyConfiguration
from .grid_model import GridPoint, PointSet


class GridVariable(NamedTuple):
    direction: int
    level: int

    def __str__(self) -> str:
        return f"a[{self.direction},{self.level}]"


Monomial = frozenset


def multidegree(m: Monomial, n: int) -> tuple[int, ...]:
    """Number of variables per direction, as a length-n degree vector."""
    degs = [0] * n
    for v in m:
        degs[v.direction - 1] += 1
    return tuple(degs)


class MonomialIdeal:
    """A squarefree monomial ideal stored by its minimal generating set."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[Monomial]):
        gens = set(generators)
        self.generators = frozenset(m for m in gens if not any(o < m for o in gens))

    def sorted_generators(self) -> list[Monomial]:
        return sorted(self.generators, key=lambda m: (len(m), sorted(m)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonomialIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        gens = ("*".join(map(str, sorted(m))) or "1" for m in self.sorted_generators())
        return "(" + ", ".join(gens) + ")"


def point_prime(p: GridPoint) -> MonomialIdeal:
    """The prime (a[1,p_1], ..., a[n,p_n]) of a single grid point."""
    return MonomialIdeal(Monomial({GridVariable(i + 1, c)}) for i, c in enumerate(p))


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Minimal generators of the intersection, via pairwise lcms."""
    return MonomialIdeal(g | h for g in I.generators for h in J.generators)


def configuration_ideal(X: PointSet) -> MonomialIdeal:
    """Intersection of the point primes of X."""
    if X.size == 0:
        raise EmptyConfiguration("configuration ideal needs a nonempty configuration")
    return reduce(intersect, (point_prime(p) for p in X.sorted_points()))


def contains(I: MonomialIdeal, m: Monomial) -> bool:
    """Membership: some minimal generator divides m."""
    return any(g <= m for g in I.generators)


def ci_generators(P: GridPoint, Q: GridPoint) -> list[Monomial]:
    """Generators of the smallest combinatorial complete intersection
    through P and Q: one per direction, of degree two exactly where the
    coordinates differ."""
    if len(P) != len(Q):
        raise DimensionMismatch(f"points {P} and {Q} have different lengths")
    return [
        Monomial({GridVariable(i, a), GridVariable(i, b)})
        for i, (a, b) in enumerate(zip(P, Q), start=1)
    ]


def grid_variables(dims: Iterable[int]) -> list[GridVariable]:
    """All variables of the grid ring, direction-major order."""
    return [
        GridVariable(i, j)
        for i, r in enumerate(dims, start=1)
        for j in range(1, r + 1)
    ]


def squarefree_monomials(dims: Iterable[int], max_degree: int) -> Iterable[Monomial]:
    """Every squarefree monomial up to the given degree (testing aid)."""
    variables = grid_variables(dims)
    for k in range(max_degree + 1):
        for combo in itertools.combinations(variables, k):
            yield Monomial(combo)
