"""Reference arithmetic for squarefree monomial ideals in the grid
variables a[i,j], against which the oracle's complex is tested.

Replacing the hyperplane through level j of direction i by a[i,j] turns a
configuration into the intersection of the point primes
(a[1,p_1], ..., a[n,p_n]).  Every monomial that arises is squarefree, so
a monomial is the frozenset of its variables, the same object as a face
of the Stanley-Reisner complex: lcm is union, division is inclusion and
degree is size.
"""

import itertools
from functools import reduce

from acmpts.errors import EmptyConfiguration
from acmpts.reisner_oracle import GridVariable, grid_variables

Monomial = frozenset


def multidegree(m, n):
    """Number of variables per direction, as a length-n degree vector."""
    degs = [0] * n
    for v in m:
        degs[v.direction - 1] += 1
    return tuple(degs)


class MonomialIdeal:
    """A squarefree monomial ideal stored by its minimal generating set."""

    def __init__(self, generators):
        gens = set(generators)
        self.generators = frozenset(m for m in gens if not any(o < m for o in gens))

    def sorted_generators(self):
        return sorted(self.generators, key=lambda m: (len(m), sorted(m)))

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and self.generators == other.generators


def point_prime(p):
    """The prime (a[1,p_1], ..., a[n,p_n]) of a single grid point."""
    return MonomialIdeal(Monomial({GridVariable(i + 1, c)}) for i, c in enumerate(p))


def intersect(I, J):
    """Minimal generators of the intersection, via pairwise lcms."""
    return MonomialIdeal(g | h for g in I.generators for h in J.generators)


def configuration_ideal(X):
    """Intersection of the point primes of X."""
    if X.size == 0:
        raise EmptyConfiguration("configuration ideal needs a nonempty configuration")
    return reduce(intersect, (point_prime(p) for p in X.sorted_points()))


def contains(I, m):
    """Membership: some minimal generator divides m."""
    return any(g <= m for g in I.generators)


def squarefree_monomials(dims, max_degree):
    """Every squarefree monomial up to the given degree."""
    variables = grid_variables(dims)
    for k in range(max_degree + 1):
        for combo in itertools.combinations(variables, k):
            yield Monomial(combo)
