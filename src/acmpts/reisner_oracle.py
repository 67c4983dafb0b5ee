"""Independent ACM oracle via Stanley-Reisner complexes and Reisner's criterion.

Replacing the hyperplane through level j of direction i by a fresh
variable a[i,j] (a ``GridVariable``) turns a configuration into the
intersection of the point primes (a[1,p_1], ..., a[n,p_n]).  That
squarefree monomial model is the Stanley-Reisner ideal of the complex
whose facet for a point p is the set of all grid variables except
a[1,p_1], ..., a[n,p_n].  Cohen-Macaulayness of the model over the
rationals is decided by Reisner's criterion: every link, the empty face
included, must have vanishing reduced homology below its dimension.

Inside the oracle a face is an integer bitmask over vertex positions
(bit n - 1 - k for ``vertices[k]`` of n, so that sorting masks of one
size downwards is vertex-index order).  A general complex's faces are
the submasks of its facet masks, and the link of a face sigma has the
facet masks ``F & ~sigma`` of the facets F through sigma, so no complex
is built per link.

A configuration's complex needs no face enumeration.  Its faces are the
sets of levels outside a grid box B = A_1 x ... x A_n (A_i a nonempty
set of levels of direction i): the facet of a point p contains sigma
exactly when p is in B, so sigma is a face exactly when X meets B, and
its link is the complex of X n B on the variables of B.  That link has
dimension |A_1| + ... + |A_n| - n - 1; below dimension 1 there is no
condition to check.  It is a cone, hence acyclic, exactly when X n B
misses a level of B, whose variable is then in every facet of the
link.  When X n B is all of B, the link is the complex of a full grid:
the join of the boundaries of the simplices on A_1, ..., A_n.  The
boundary on a_i vertices is the (a_i - 2)-sphere (for a_i = 1 the
complex whose only face is empty, the (-1)-sphere and the unit of the
join), and the join of a p- and a q-sphere is the (p + q + 1)-sphere,
so the link is the sphere of dimension sum(a_i) - n - 1, its own
dimension: its reduced homology sits in the top degree and it passes
unreduced.

So a full grid is answered from its point counts: its complex and every
link in it are spheres, and nothing is reduced.

``is_cm`` decides by vertex links (Bruns and Herzog, *Cohen-Macaulay
Rings*, ch. 5): a complex is Cohen-Macaulay exactly when every vertex
link is and the whole complex, the link of the empty face, passes.  The
link of a[i,j] is the complex of X without its level j in direction i,
coned over the variables of the levels that removal empties, and a cone
is Cohen-Macaulay exactly when its base is.  So the recursion runs on
sub-configurations Y of X, each a mask over the cells of X's grid (bit k
for cell k of ``grid_model.cell_table``).  Y is Cohen-Macaulay when it
fills its smallest box, or that box has fewer than n + 2 levels.
Otherwise every Y without one level, in each direction where Y has two
or more, must be Cohen-Macaulay, and then Y's whole complex must pass:
its facets are its cells' facets on its box's variables, reduced as a
link class (below).  Vertex links come first, so a link already known
not to be Cohen-Macaulay answers with no facets, no renumbering and no
reduction.  The level masks are built per grid shape by doubling each
level's periodic pattern, X's mask comes from the strides of the cell
numbering, and a cell's facet is computed only when a whole complex
needs it (``_grid``), so nothing is built per cell of the grid.  Every
verdict goes into one process-wide memo, by grid shape and then by mask
(``_verdicts``).  The subsets of one grid share their sub-configurations,
so a configuration reuses what earlier ones decided.  A call that starts
with more than ``VERDICT_BOUND`` (2^15) verdicts replaces the dict; a
call already running keeps the dict it started with, so no call decides
a sub-configuration twice, which a bounded recursion cache could not
promise (the 56-point 6x6x6 staircase has 48908 sub-configurations).
The recursion runs on an explicit stack of generators (``_decide``), so
its depth is not Python's.  On the seed-42 3x3x3 benchmark sample,
``is_cm`` decides 3235 sub-configurations in all, 550 of them from their
point counts; 931 are rejected at a vertex link, and 1754 whole
complexes fall into 370 link classes, all reduced without a Morse
matrix.

``cm_obstruction`` (``first_cm_failure``, ``acmpts oracle``) takes the
verdict from ``is_cm`` and walks only a set that is not Cohen-Macaulay,
to name its first failing face (``_first_failure``); a walk that then
finds none is an ``InternalInvariantViolation``.  The walk reduces the
empty face first, whose link is the whole complex (232 of the 405
seed-42 sets fail there; ``empty_face_failure`` is this step alone), and
then walks only the boxes that are neither cones nor spheres, generated
from X (``_links_to_reduce``).  A box B that is not a cone is the
smallest box around Y = X n B, so Y determines it: the walk holds one
box per such Y, never more boxes than the complex has faces, and every
test on a box is bit operations on masks of X's points.
Removing the points at one level of B leaves the Y of a smaller box,
later in scan order.  Starting from X, such removals reach every Y:
X n B is X with the points at each level outside B removed in turn.
The walk goes on from no full grid, since removing levels from a full
grid leaves full grids, so a Y that is not a full grid is reached along
a chain of Ys that are not either; a full grid is never pushed.  Nor
does it go on below n + 2 levels, where links have dimension at most 0.
Most full grids are not even sized: removing a level from a box B
leaves the box B' of B's other levels, whose cell count follows from
B's, and B' holds no hole (a cell missing from X) exactly when X has
that many points in it.  A heap yields the boxes in the scan order of
their faces, so the scan stops at its first failure.

Every link left is reduced once per class.  Its key is its facet masks
with the vertices they use renumbered 0..m-1 in bit order.  That
renumbering is an order-preserving relabeling, so it keeps face counts,
boundary signs and Betti numbers, and the key itself is what gets
reduced.  Such a link is the complex of the configuration X n B with
its levels renumbered, so boxes that cut out the same configuration
share one reduction, within one configuration and across
configurations: one memo (``_class_betti``, the 4096 most recent
classes) serves every ``is_cm`` and ``cm_obstruction`` call in the
process.  After ``is_cm`` has decided the seed-42 sample, the walks of
``first_cm_failure`` on its 349 non-CM sets size 2412 boxes and key 745
links (349 whole complexes and 396 others), which add 674 classes.  The
element matchings (below) leave critical cells of one size in all but 23
of those classes; the 23 leave two sizes, and their Morse differentials
are 23 matrices of at most 3 rows and 2 columns (19 of 31 entries
nonzero), the same as when every set was walked.  The README and ``linalg`` refer here for these
counts.  Points on a line are a full grid (the complex is a simplex
boundary), as is the full 3x3x3 grid: no reduction at all.  The scan
order and the reported face do not depend on either memo.

Reduced homology comes from discrete Morse theory.  The chain complex
has every face as a cell, the empty face included as the single cell of
degree -1.  The element matching on a vertex v pairs each cell sigma
without v with sigma + v when both are cells (Jonsson, *Simplicial
Complexes of Graphs*, LNM 1928, 2008, section 4).  It runs for every
vertex in increasing order, each time on the cells left unpaired, once
per class.  On m <= ``MATCHING_BOUND`` (22) vertex positions it runs on
the face bitset, one int of 2^m bits with bit s set when the vertex set
s is a face (the facets' bits, down-closed by one shift-and-or per
vertex), three big-int operations per vertex.  Above the bound it runs
on the set of face masks, the only form that fits there.  A sequence of
element matchings is acyclic and face incidences are +-1, so the
augmented chain complex is chain-equivalent over the integers to a
Morse complex on the critical cells, those left unpaired (Forman,
*Morse theory for cell complexes*, Adv. Math. 134, 1998; Skoldberg,
*Morse theory from an algebraic viewpoint*, Trans. AMS 358, 2006).  A
matching pairs cells of adjacent sizes, so the faces and the critical
cells must have one Euler characteristic, which both routes check; the
bitset route counts with one mask of the odd-size vertex sets, and the
masks for each m are built on first use and kept (``_subset_masks``).

Either route hands one Morse step the critical cells and a lookup from
a pair's lower cell to its upper cell.  The differential from a critical
cell sigma is the signed sum over gradient paths, computed by flowing
the boundary of sigma: a critical face is kept; a face that is the upper
cell of a pair is dropped, since no gradient path leads on from it to a
critical cell one size down; a face tau that is the lower cell of a pair
tau' = tau + v is replaced, the chain becoming chain - (coeff(tau) /
[tau' : tau]) * boundary(tau'), which cancels tau.  The matching is
acyclic, so the flow ends, and every incidence is +-1, so coefficients
stay integers.  Every term of a flowed boundary is one size below
sigma, so a row has columns only for the critical cells one size down,
and the differential from size k is flowed and ranked only when there
are critical cells of sizes k and k - 1.  So when every critical cell
has one size k, the Morse complex sits in degree k - 1 with no
differential: the reduced Betti number there is their count, every
other one is 0, and the step builds no lookup and takes no rank.  The
bitset route's lookup reads each matching's pairs as bytes, one byte
test per vertex, and is built only when a differential is flowed.  The
differentials, a few rows each, are ranked exactly (``rank_int``), and a
negative Betti number would mean a rank exceeded its matrix's.  The
tests hold both routes to a reference that excises a vertex star and
coreduces (``tests/reduction_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import chain, islice
from operator import or_, xor
from typing import Callable, Generator, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EmptyConfiguration,
    FaceNotInComplex,
    InternalInvariantViolation,
    MalformedComplex,
)
from .grid_model import GridPoint, PointSet, cell_strides
from .linalg import rank_int

Face = frozenset

class GridVariable(NamedTuple):
    """The variable a[i,j] of the hyperplane at level j of direction i."""

    direction: int
    level: int

    def __str__(self) -> str:
        return f"a[{self.direction},{self.level}]"


def grid_variables(dims: Iterable[int]) -> list[GridVariable]:
    """All variables of the grid ring, direction-major order."""
    return [
        GridVariable(i, j)
        for i, r in enumerate(dims, start=1)
        for j in range(1, r + 1)
    ]


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex list plus facet list; faces are the subsets of facets.

    The vertex tuple fixes the orientation order used for boundary signs
    and is preserved by links (minus the linked face), so that the link
    of the empty face is the complex itself.
    """

    vertices: tuple[Hashable, ...]
    facets: tuple[Face, ...]

    @classmethod
    def from_facets(
        cls, vertices: Iterable[Hashable], facets: Iterable[Iterable[Hashable]]
    ) -> "SimplicialComplex":
        """The complex with these vertices whose facets are the maximal sets
        among ``facets``, in face order (``_in_face_order``)."""
        verts = tuple(vertices)
        masks = set(_facet_masks(cls(verts, tuple({frozenset(f) for f in facets}))))
        minimal = [f for f in masks if not any(f & g == f != g for g in masks)]
        return cls(verts, tuple(_vertex_set(verts, f) for f in _in_face_order(minimal)))

    @property
    def dim(self) -> int:
        return max(f.bit_count() for f in _facet_masks(self)) - 1

    def faces(self) -> list[Face]:
        """All faces, sorted by size then vertex order (empty face first)."""
        faces = _face_masks(_facet_masks(self))
        return [_vertex_set(self.vertices, m) for m in _in_face_order(faces)]


def _facet_masks(delta: SimplicialComplex) -> list[int]:
    """The facets as bitmasks.  Vertex k of n is bit n - 1 - k, so of two
    faces of one size the one earlier in vertex-index order has the larger
    mask: the first vertex where they differ is its, and sets the higher bit.

    Every entry point, ``from_facets`` included, reads the facets through
    here once per call, so a complex built directly with a repeated
    vertex, no facets or a facet on unknown vertices is rejected here, not
    per link."""
    bit = _vertex_bits(delta.vertices)
    if len(bit) != len(delta.vertices):
        raise MalformedComplex("repeated vertex")
    if not delta.facets:
        raise MalformedComplex("no facets (the complex whose only face is empty has facets [[]])")
    for f in delta.facets:
        if any(v not in bit for v in f):
            raise MalformedComplex(f"facet {set(f)} uses unknown vertices")
    return [sum(bit[v] for v in f) for f in delta.facets]


def _vertex_bits(vertices: Sequence[Hashable]) -> dict[Hashable, int]:
    """The bit of each vertex in a face mask: vertex k of n is bit n - 1 - k."""
    top = len(vertices) - 1
    return {v: 1 << (top - k) for k, v in enumerate(vertices)}


def _renumbered(facets: Sequence[int]) -> tuple[int, ...]:
    """The facet masks with the vertices they use renumbered 0..m-1 in bit
    order, sorted: one key for every complex that differs from this one by
    an order-preserving relabeling, which keeps face counts and boundary
    signs and hence the Betti numbers.  Each unused position below the
    highest used one is squeezed out of every mask, highest first."""
    used = reduce(or_, facets, 0)
    gaps = ~used & ((1 << used.bit_length()) - 1)
    masks = list(facets)
    while gaps:
        gap = 1 << (gaps.bit_length() - 1)
        gaps ^= gap
        below = gap - 1
        masks = [f >> 1 & ~below | f & below for f in masks]
    return tuple(sorted(masks))


def _vertex_set(vertices: Sequence[Hashable], mask: int) -> Face:
    """The vertices of a face mask made by ``_facet_masks``."""
    top = len(vertices) - 1
    return frozenset(vertices[top - k] for k in range(mask.bit_length()) if mask >> k & 1)


def _face_masks(facets: Iterable[int]) -> set[int]:
    """Every face of the complex with these facet masks, 0 (empty) included."""
    faces = {0}
    add = faces.add
    for f in facets:
        sub = f
        while sub:
            add(sub)
            sub = (sub - 1) & f
    return faces


def _in_face_order(faces: Iterable[int]) -> list[int]:
    """Face masks by size, then by increasing vertex-index tuple, which is
    decreasing mask order (``_facet_masks``) kept by the stable size sort."""
    return sorted(sorted(faces, reverse=True), key=int.bit_count)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers over the rationals, from degree -1 up to dim."""

    ranks: tuple[int, ...]

    def rank(self, i: int) -> int:
        k = i + 1
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0


def sr_complex(X: PointSet) -> SimplicialComplex:
    """The Stanley-Reisner complex of the configuration's monomial model.

    One facet per point: the complement of the point's variable set.  All
    facets have size (sum r_i) - n, so the complex is pure by construction,
    and distinct points give distinct facets, so they form an antichain
    and need no ``from_facets`` pass.  Built from the oracle's facet masks
    (``_grid_facets``): facets of one size in decreasing mask order are in
    ``from_facets`` order (``_facet_masks``).
    """
    verts = tuple(grid_variables(X.dims))
    masks = sorted(_grid_facets(X)[2], reverse=True)
    return SimplicialComplex(verts, tuple(_vertex_set(verts, f) for f in masks))


def link(delta: SimplicialComplex, sigma: Iterable[Hashable]) -> SimplicialComplex:
    """The link of a face: faces disjoint from sigma whose union with
    sigma is a face.  Its facets are the facets through sigma minus sigma,
    already an antichain (F - sigma < G - sigma gives F < G) and in
    ``from_facets`` order (dropping a shared sigma keeps size and vertex order)."""
    sigma = frozenset(sigma)
    if not any(sigma <= f for f in delta.facets):
        raise FaceNotInComplex(f"{set(sigma)} is not a face")
    return SimplicialComplex(
        vertices=tuple(v for v in delta.vertices if v not in sigma),
        facets=tuple(f - sigma for f in delta.facets if sigma <= f),
    )


MATCHING_BOUND = 22  # most vertices for the face bitset, 2^m bits (512 KB at m = 22)


@lru_cache(maxsize=23)  # m = 0 .. MATCHING_BOUND
def _subset_masks(m: int) -> tuple[tuple[int, ...], int]:
    """Masks over the 2^m vertex sets of m vertices, bit s for the set s:
    for each vertex j the sets through j, and the sets of odd size.  The
    pattern for j, 2^j sets without j then 2^j with it, is doubled up to
    2^m bits; a set's size is odd when an odd number of its bits are set."""
    has = []
    for j in range(m):
        mask, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while width < 1 << m:
            mask |= mask << width
            width <<= 1
        has.append(mask)
    return tuple(has), reduce(xor, has, 0)


def _euler(cells: set[int]) -> int:
    """The reduced Euler characteristic of a set of cells, a cell of size
    k in degree k - 1."""
    return 2 * sum(c.bit_count() & 1 for c in cells) - len(cells)


def _check_euler(faces: int, cells: int) -> None:
    """A matching pairs cells of adjacent sizes, so the faces and the
    critical cells have one Euler characteristic; a step that drops a
    cell without its partner breaks that."""
    if faces != cells:
        raise InternalInvariantViolation(
            f"Euler characteristic mismatch: faces give {faces}, critical cells give {cells}"
        )


Partner = Callable[[int], int | None]  # a pair's lower cell -> its upper cell, else None
Pairs = Callable[[], Partner]  # builds the lookup, called only when a differential is flowed


def _bitset_matchings(facets: Sequence[int], full: int) -> tuple[Iterable[int], Pairs]:
    """The element matchings run on the face bitset, one int with bit s
    for each face s (module docstring): the critical cells, and a builder
    of the lookup from a pair's lower cell to its upper cell
    (``_bitset_partners``).  A matching pairs cells of adjacent sizes, so
    the reduced Euler characteristic of the faces must equal that of the
    critical cells, which fails if a step drops a cell without its
    partner."""
    m = full.bit_length()
    has, odd = _subset_masks(m)
    faces = 0
    for f in facets:
        faces |= 1 << f
    for j in _bits(full):  # down-closure: drop vertex j from every face through it
        faces |= (faces & has[j]) >> (1 << j)
    critical, matched = faces, []
    for j in _bits(full):  # the element matching on j, lowest vertex first
        v = 1 << j  # vertex j's bit, and the shift from a set without j to it with j
        paired = critical & ~has[j] & critical >> v
        critical &= ~(paired | paired << v)
        matched.append(paired)

    def euler(cells: int) -> int:  # cells of size k are in degree k - 1
        return 2 * (cells & odd).bit_count() - cells.bit_count()

    _check_euler(euler(faces), euler(critical))
    return _bits(critical), lambda: _bitset_partners(full, matched)


def _bitset_partners(full: int, matched: Sequence[int]) -> Partner:
    """The lookup from a cell tau to tau ^ v, where v is the vertex of
    ``full`` whose matching's bitset in ``matched`` (one per vertex, lowest
    first) holds tau, or None.  Each bitset is read as bytes, so a test
    is one byte, not a shift of 2^m bits."""
    size = (1 << full.bit_length()) + 7 >> 3  # bytes of a 2^m-bit bitset
    tables = [(1 << j, paired.to_bytes(size, "little")) for j, paired in zip(_bits(full), matched)]
    return lambda tau: next((tau ^ v for v, t in tables if t[tau >> 3] >> (tau & 7) & 1), None)


def _set_matchings(facets: Sequence[int], full: int) -> tuple[set[int], Pairs]:
    """The element matchings run on the set of face masks, the route above
    ``MATCHING_BOUND`` vertex positions, with the same result and the same
    Euler characteristic check as ``_bitset_matchings``."""
    cells = _face_masks(facets)
    euler_faces = _euler(cells)
    up = _element_matchings(cells, full)
    _check_euler(euler_faces, _euler(cells))
    return cells, lambda: up.get


def _reduced_betti(facets: Sequence[int]) -> tuple[int, ...]:
    """Reduced rational Betti numbers, degree -1 up to the dimension, of
    the complex with these facet masks, from the Morse complex of the
    element matchings, run once: on the face bitset up to
    ``MATCHING_BOUND`` vertex positions, on the set of faces above it
    (module docstring).

    The differential from the critical cells of size k is flowed and
    ranked only when there are critical cells of sizes k and k - 1, so a
    class whose critical cells have one size takes no rank and builds no
    pair lookup.  A negative Betti number means a rank exceeded its
    matrix's."""
    full = reduce(or_, facets, 0)
    matchings = _bitset_matchings if full.bit_length() <= MATCHING_BOUND else _set_matchings
    critical, partners = matchings(facets, full)
    cells: dict[int, list[int]] = {}  # the critical cells by size
    for c in critical:
        cells.setdefault(c.bit_count(), []).append(c)
    betti = [0] * (max(map(int.bit_count, facets)) + 1)  # a cell of size k is in degree k - 1
    partner = None
    for k, same in cells.items():
        betti[k] += len(same)
        if k - 1 in cells:  # the differential from size k, its rank taken from both degrees
            partner = partner or partners()
            rank = rank_int(_morse_rows(same, cells[k - 1], partner))
            betti[k] -= rank
            betti[k - 1] -= rank
    if min(betti) < 0:
        raise InternalInvariantViolation(f"negative Betti number in {tuple(betti)}")
    return tuple(betti)


def _boundary(cell: int) -> dict[int, int]:
    """The boundary of a cell oriented by increasing bit: each face
    cell - u with its incidence, -1 when an odd number of the cell's bits
    lie below u."""
    return {
        cell ^ u: -1 if (cell & (u - 1)).bit_count() & 1 else 1
        for u in (1 << j for j in _bits(cell))
    }


def _element_matchings(cells: set[int], full: int) -> dict[int, int]:
    """The element matching on each vertex of ``full`` in turn, lowest
    first, run on a set of face masks: the matching on v pairs each cell
    c without v left in ``cells`` with c + v when that is left too.  Both
    cells of every pair leave ``cells``, so the critical cells stay;
    returns each pair's lower cell mapped to its upper cell."""
    up: dict[int, int] = {}
    for j in _bits(full):
        v = 1 << j
        pairs = {c: c | v for c in cells if not c & v and c | v in cells}
        cells.difference_update(pairs, pairs.values())
        up.update(pairs)
    return up


def _morse_rows(upper: Sequence[int], lower: Sequence[int], partner: Partner) -> list[list[int]]:
    """The Morse differential from the critical cells ``upper`` of one size
    to ``lower``, the critical cells one size down: each row a cell's
    boundary flowed along the matching (module docstring).  Every term of
    a flowed boundary is one size down, so the columns are ``lower``."""
    column = {c: k for k, c in enumerate(lower)}
    rows = []
    for sigma in upper:
        row = [0] * len(column)
        chain = _boundary(sigma)
        while chain:
            tau, coeff = chain.popitem()
            if tau in column:
                row[column[tau]] += coeff
            elif coeff and (cell := partner(tau)) is not None:
                flow = _boundary(cell)
                coeff *= flow.pop(tau)  # dividing by the incidence [tau' : tau] = +-1
                for face, sign in flow.items():
                    chain[face] = chain.get(face, 0) - coeff * sign
        rows.append(row)
    return rows


def homology(delta: SimplicialComplex) -> HomologyProfile:
    """Reduced rational Betti numbers, from the Morse complex of the
    element matchings: the critical cells of each size, less the exact
    ranks of the Morse differentials between sizes that both have
    critical cells (module docstring).

    Includes the empty face as the single cell in degree -1, so the
    profile of the complex whose only face is empty is (1,).
    """
    return HomologyProfile(ranks=_reduced_betti(_facet_masks(delta)))


@lru_cache(maxsize=4096)
def _class_betti(key: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced Betti numbers of one link class (a ``_renumbered`` key),
    from one run of the element matchings and one Morse step
    (``_reduced_betti``), cached for the 4096 most recent classes, so a
    class is matched once however many links share it.  ``_reduced_betti`` is looked
    up as a module global at each miss, so a wrapper installed on the
    module sees every reduction; an exception is not cached."""
    return _reduced_betti(key)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low_degree(betti: Sequence[int]) -> tuple[int, int] | None:
    """The lowest degree below the top with a nonzero reduced Betti
    number, and that number; None when homology sits in the top degree."""
    for i, r in enumerate(betti[:-1], start=-1):
        if r:
            return i, r
    return None


LevelBits = tuple[tuple[int, ...], ...]  # the bit of a[i,j] as bits[i - 1][j - 1]


def _smallest_box(inside: int, bits: LevelBits, slab: dict[int, int]) -> tuple[int, int]:
    """The smallest box around the points ``inside``, given the points at
    each level bit (``slab``): (the mask of its levels, its number of
    cells)."""
    kept, volume = 0, 1
    for levels in bits:
        a = 0
        for b in levels:
            if inside & slab[b]:
                kept |= b
                a += 1
        volume *= a
    return kept, volume


def _links_to_reduce(bits: LevelBits, points: Sequence[GridPoint]) -> Iterator[tuple[int, int]]:
    """The boxes B whose link is neither a cone nor a sphere and has
    dimension at least 1, the whole grid left out, in the scan order of
    their faces, as (the mask of B's levels, X n B as a mask with bit k
    for ``points[k]``), where a[i,j] is bit ``bits[i - 1][j - 1]``.

    The walk from X, its heap and where it stops are in the module
    docstring; it holds at most one box per set X n B, and never a full
    grid.  Removing level b from a box B of volume V with a levels in
    b's direction leaves the box B - b of V (a - 1) / a cells, which
    holds no hole (a cell missing from X) exactly when X has that many
    points in it; such a full grid is not sized."""
    n, total = len(bits), sum(map(len, bits))
    slab = dict.fromkeys(chain.from_iterable(bits), 0)  # level bit -> its points
    for k, p in enumerate(points):
        for b, c in zip(bits, p):
            slab[b[c - 1]] |= 1 << k
    direction = {b: sum(levels) for levels in bits for b in levels}  # level bit -> its direction

    everything = (1 << len(points)) - 1
    kept, volume = _smallest_box(everything, bits, slab)
    # a full grid is never pushed: it is a sphere, and so is every box inside it
    heap = [(-kept.bit_count(), kept, everything, volume)] if volume != len(points) else []
    seen = {everything}
    while heap:
        negsize, kept, inside, volume = heappop(heap)
        if n + 2 <= -negsize < total:
            yield kept, inside
        if -negsize <= n + 2:
            continue  # the boxes inside have links of dimension <= 0
        rest = kept
        while rest:
            b = rest & -rest
            rest ^= b
            smaller = inside & ~slab[b]
            a = (kept & direction[b]).bit_count()
            if smaller.bit_count() * a == volume * (a - 1) or smaller in seen:
                continue  # B - b is a full grid (empty when a = 1), or Y was reached
            seen.add(smaller)
            kept_b, volume_b = _smallest_box(smaller, bits, slab)
            if smaller.bit_count() != volume_b:
                heappush(heap, (-kept_b.bit_count(), kept_b, smaller, volume_b))


def _grid_facets(X: PointSet) -> tuple[LevelBits, list[GridPoint], list[int]]:
    """The configuration's complex as masks: the bit of a[i,j] as
    ``bits[i - 1][j - 1]``, the points in sorted order, and each point's
    facet mask, in that order."""
    if not X.points:
        raise EmptyConfiguration("Reisner oracle needs a nonempty configuration")
    total = sum(X.dims)
    bit = iter(_vertex_bits(range(total)).values())  # a[i,j] in grid_variables order
    bits = tuple(tuple(islice(bit, r)) for r in X.dims)
    full = (1 << total) - 1
    points = X.sorted_points()
    return bits, points, [full ^ sum(b[c - 1] for b, c in zip(bits, p)) for p in points]


def _failure(facets: Sequence[int]) -> tuple[int, int] | None:
    """The lowest degree below the top where the complex with these facet
    masks has reduced homology, and its rank, from its class's memo."""
    return _low_degree(_class_betti(_renumbered(facets)))


def _passes_on_counts(X: PointSet) -> bool:
    """Whether the point counts alone show that the complex satisfies
    Reisner's criterion: its facets have at most one vertex, so every link
    has dimension <= 0, or X is the full grid, whose complex and every link
    in it are spheres (module docstring)."""
    return sum(X.dims) - X.n < 2 or X.size == math.prod(X.dims)


def empty_face_failure(X: PointSet) -> tuple[int, int] | None:
    """Reisner's condition on the empty face alone: the lowest degree below
    the top where the whole complex has reduced homology, and its rank,
    or None.  It is the first face the walk of ``cm_obstruction`` scans.

    The link of a face through a vertex v is a link in the link of v, so
    by Reisner's criterion the complex is Cohen-Macaulay exactly when
    this is None and every vertex link is Cohen-Macaulay (Bruns and
    Herzog, *Cohen-Macaulay Rings*, ch. 5).  The link of a[i,j] is the
    complex of X without its level j in direction i, coned over the
    variables of the levels that removal empties, and a cone is
    Cohen-Macaulay exactly when its base is.  So ``is_cm`` and
    ``acmpts enumerate`` decide a set from those sub-configurations and
    this one step."""
    facets = _grid_facets(X)[2]
    return None if _passes_on_counts(X) else _failure(facets)


def cm_obstruction(X: PointSet) -> tuple[Face, int, int] | None:
    """First face of the configuration's complex whose link has
    nonvanishing homology below its dimension.

    Faces are scanned by size then vertex order, so the empty face comes
    first and the reported obstruction is deterministic.  Returns
    (face, homology degree, rank) or None when the complex satisfies
    Reisner's criterion.  The verdict comes from ``is_cm``; only a set
    that is not Cohen-Macaulay is walked (``_first_failure``), and a walk
    that then finds no failing face is an ``InternalInvariantViolation``.
    """
    if is_cm(X):
        return None
    failure = _first_failure(X)
    if failure is None:
        raise InternalInvariantViolation(f"is_cm rejects {X!r}, but the walk finds no failing link")
    return failure


def _first_failure(X: PointSet) -> tuple[Face, int, int] | None:
    """The walk: the empty face, then the boxes of ``_links_to_reduce`` in
    the scan order of their faces, up to the first failing link, as
    (face, homology degree, rank), or None when every link passes.  A
    full grid, or a configuration whose facets have at most one vertex, is
    answered from its point counts with no reduction."""
    bits, points, facets = _grid_facets(X)
    if _passes_on_counts(X):
        return None
    failure = _failure(facets)
    if failure:
        return (frozenset(), *failure)
    for kept, inside in _links_to_reduce(bits, points):
        failure = _failure([facets[k] & kept for k in _bits(inside)])
        if failure:
            full = (1 << sum(X.dims)) - 1
            return (_vertex_set(grid_variables(X.dims), full ^ kept), *failure)
    return None


class _Grid(NamedTuple):
    """What ``is_cm`` reads of a grid shape: per direction, each level as
    (its cell mask, with bit k for cell k of ``grid_model.cell_table``;
    the bit of its variable a[i,j]); each direction's index stride; the
    mask of every vertex position; and the facet masks of the cells that
    a reduction has needed so far, filled on demand."""

    dims: tuple[int, ...]
    levels: tuple[tuple[tuple[int, int], ...], ...]
    strides: tuple[int, ...]
    full: int
    facets: dict[int, int]


@lru_cache(maxsize=32)
def _grid(dims: tuple[int, ...]) -> _Grid:
    """The ``_Grid`` of a shape, for 32 shapes.  Level l of a direction
    with stride s and r levels holds the cells whose index k has
    k // s % r == l - 1: a block of s cells repeated every r * s cells,
    so its mask is that block doubled up to the grid's cell count, as in
    ``_subset_masks``."""
    cells, strides, total = math.prod(dims), cell_strides(dims), sum(dims)
    bit = iter(_vertex_bits(range(total)).values())  # a[i,j] in grid_variables order
    levels = []
    for r, s in zip(dims, strides):
        direction = []
        for j in range(r):
            mask, width = ((1 << s) - 1) << j * s, r * s
            while width < cells:
                mask |= mask << width
                width <<= 1
            direction.append((mask & (1 << cells) - 1, next(bit)))
        levels.append(tuple(direction))
    return _Grid(dims, tuple(levels), strides, (1 << total) - 1, {})


def _cell_facet(grid: _Grid, k: int) -> int:
    """The facet mask of cell k, every variable but those of its levels,
    kept in ``grid.facets``."""
    own = sum(ls[k // s % len(ls)][1] for ls, s in zip(grid.levels, grid.strides))
    grid.facets[k] = facet = grid.full ^ own
    return facet


def _vertex_links(grid: _Grid, mask: int) -> tuple[int, list[int]] | None:
    """The sub-configuration Y with cell mask ``mask``: None when Y fills
    its smallest box or that box has fewer than n + 2 levels, so that Y is
    Cohen-Macaulay (module docstring); otherwise the bits of its box's
    variables and its vertex links, each Y without one of its levels, in
    each direction where Y has two or more."""
    used = [[level for level in levels if mask & level[0]] for levels in grid.levels]
    sizes = list(map(len, used))
    if sum(sizes) < len(sizes) + 2 or mask.bit_count() == math.prod(sizes):
        return None
    kept = sum(b for levels in used for _, b in levels)
    return kept, [mask & ~slab for levels in used if len(levels) > 1 for slab, _ in levels]


def _whole_complex_passes(grid: _Grid, mask: int, kept: int) -> bool:
    """Reisner's condition on the empty face of Y's complex: its facets
    are those of Y's cells on the variables of its box ``kept`` (a facet
    is never 0: a grid with as many variables as directions passes on
    counts)."""
    known = grid.facets.get
    return _failure([(known(k) or _cell_facet(grid, k)) & kept for k in _bits(mask)]) is None


VERDICT_BOUND = 1 << 15  # most verdicts kept from earlier is_cm calls
Verdicts = dict[int, bool]  # cell mask -> Cohen-Macaulay, for one grid shape
_verdicts: dict[tuple[int, ...], Verdicts] = {}  # dims -> the verdicts on that shape


def _steps(grid: _Grid, mask: int, verdicts: Verdicts) -> Generator[int, bool, bool]:
    """Decide the sub-configuration with this cell mask: yield each vertex
    link that ``verdicts`` lacks and receive its verdict, stop at the
    first that is not Cohen-Macaulay, then check the whole complex, and
    store the verdict, which is also the generator's return value.  A
    link already known not to be Cohen-Macaulay answers at once."""
    verdict = True
    split = _vertex_links(grid, mask)
    if split:
        kept, links = split
        if False in map(verdicts.get, links):
            verdict = False
        else:
            for y in links:  # a link in the memo is known to be Cohen-Macaulay
                if y not in verdicts and not (yield y):
                    verdict = False
                    break
            else:
                verdict = _whole_complex_passes(grid, mask, kept)
    verdicts[mask] = verdict
    return verdict


def _decide(grid: _Grid, mask: int, verdicts: Verdicts) -> bool:
    """Whether the sub-configuration with this cell mask is Cohen-Macaulay,
    depth first over the vertex links it needs, each decided once: a
    stack of ``_steps`` generators stands for the recursion, so its depth
    is not bounded by Python's."""
    verdict = verdicts.get(mask)
    stack = [] if verdict is not None else [_steps(grid, mask, verdicts)]
    while stack:
        try:
            link = stack[-1].send(verdict)
        except StopIteration as done:
            stack.pop()
            verdict = done.value
        else:
            verdict = verdicts.get(link)
            if verdict is None:
                stack.append(_steps(grid, link, verdicts))
    return verdict


def is_cm(X: PointSet) -> bool:
    """Cohen-Macaulayness of the configuration's Stanley-Reisner model:
    every vertex link is Cohen-Macaulay and the whole complex passes, each
    vertex link being the configuration without one level (module
    docstring), decided on cell masks with the verdicts of every
    sub-configuration kept (``_verdicts``).

    Purity, a necessary condition, holds by construction: every facet
    of the complex (``sr_complex``) has sum(r_i) - n vertices.
    """
    global _verdicts
    if not X.points:
        raise EmptyConfiguration("Reisner oracle needs a nonempty configuration")
    if _passes_on_counts(X):
        return True
    if sum(map(len, _verdicts.values())) > VERDICT_BOUND:
        _verdicts = {}  # a call already running keeps the dict it started with
    return _decide(_grid(X.dims), X.cell_mask, _verdicts.setdefault(X.dims, {}))


def first_cm_failure(X: PointSet) -> tuple[Face, int, int] | None:
    """The first failing link of the configuration's complex, if any."""
    return cm_obstruction(X)
