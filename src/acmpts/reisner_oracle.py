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

So ``cm_obstruction`` first reduces the empty face, whose link is the
whole complex (on the seed-42 3x3x3 benchmark sample, 232 of the 405
sets fail there; ``empty_face_failure`` is this step alone), and then
walks only the boxes that are neither cones nor spheres, generated from
X (``_links_to_reduce``).  A box B that is not a cone is the smallest
box around Y = X n B, so Y determines it: the walk holds one box per
such Y, never more boxes than the complex has faces, and every test on
a box is bit operations on masks of X's points.
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
classes) serves every ``cm_obstruction`` call in the process.  On the
seed-42 sample the walks size 3666 boxes (5517 without that count
test), 319 of them full grids, and pop 1634, and the scans reduce 1881
links (387 whole complexes and 1494 others), which
fall into 908 classes across the whole sample.  The element matchings
(below) alone answer 885 of those classes; the other 23 take the exact
route, which ranks 22 boundary matrices of at most 16x16 (1455 entries,
24% nonzero); that route would rank 469 matrices for all 908.
The README and ``linalg`` refer here for these counts.  For k >= 3
points on a line (a simplex boundary) every link but the whole complex
is a sphere, one reduction in all from an empty memo, as for the full
3x3x3 grid.  The scan order and the reported face do not depend on the
memo.

Reduced homology comes first from discrete Morse theory.  The chain
complex has every face as a cell, the empty face included as the single
cell of degree -1.  On m <= ``MATCHING_BOUND`` (22) vertex positions the
face set is one int of 2^m bits, bit s set when the vertex set s is a
face: the facets' bits, down-closed by one shift-and-or per vertex.  The
element matching on a vertex v pairs each cell sigma without v with
sigma + v when both are cells (Jonsson, *Simplicial Complexes of
Graphs*, LNM 1928, 2008, section 4).  On the lowest vertex it is the
excision below; then it runs on the cells left unpaired for every
further vertex in increasing order, three big-int operations each.  A
sequence of element matchings is acyclic and face incidences are +-1,
so the augmented chain complex is chain-equivalent over the integers to
a Morse complex on the critical cells, those left unpaired (Forman,
*Morse theory for cell complexes*, Adv. Math. 134, 1998; Skoldberg,
*Morse theory from an algebraic viewpoint*, Trans. AMS 358, 2006).  When
every critical cell has one size k, that complex sits in degree k - 1
with no differential: the reduced Betti number there is their count and
every other one is 0, and no rank is taken.  A matching pairs cells of
adjacent sizes, so the faces and the critical cells must have one Euler
characteristic, which one mask of the odd-size vertex sets checks.  The
masks for each m are built on first use and kept (``_subset_masks``).

When the critical cells span two sizes, or there are more than 22
vertex positions, the exact route reduces the complex.  It first excises
the lowest vertex v: the closed star of v (the faces sigma with sigma +
v a face) is a cone with apex v, so its reduced homology vanishes, and
the exact sequence of the pair followed by excision gives H~_i(Delta) =
H_i(Delta, st v) = H_i(del v, lk v) (Munkres, *Elements of Algebraic
Topology*, sections 9 and 70).  The cells left are the faces sigma
without v for which sigma + v is not a face, with the boundary
restricted to them.  The star's cells come in pairs sigma, sigma + v of
adjacent degrees, so the excision keeps the Euler characteristic, and
the route's check still compares the original face counts with the
Betti numbers it returns.  The complex whose only face is empty has no
vertex to excise, and its one cell, the empty face, stays.  Then
coreductions (Mrozek and Batko, *Coreduction homology algorithm*, DCG
41, 2009) start from every cell whose boundary within the remaining
cells is a single cell, and remove it together with that cell.  The
pair is joined by a coefficient of +-1, a unit, so the removal preserves
homology over the integers, and the surviving cells with the boundary
restricted to them still form a chain complex with the same homology.
Only the survivors' boundary matrices reach the exact integer rank.
This route is the reference the tests hold the matchings to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import accumulate, chain, islice
from operator import or_, xor
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EmptyConfiguration,
    FaceNotInComplex,
    InternalInvariantViolation,
    MalformedComplex,
)
from .grid_model import GridPoint, PointSet
from .linalg import rank_int

Face = frozenset

NO_FACETS = "no facets (the complex whose only face is empty has facets [[]])"


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
        verts = tuple(vertices)
        index = {v: k for k, v in enumerate(verts)}
        if len(index) != len(verts):
            raise MalformedComplex("repeated vertex")
        fs = {frozenset(f) for f in facets}
        if not fs:
            raise MalformedComplex(NO_FACETS)
        for f in fs:
            if not f <= index.keys():
                raise MalformedComplex(f"facet {set(f)} uses unknown vertices")
        minimal = [f for f in fs if not any(f < g for g in fs)]
        minimal.sort(key=lambda f: (len(f), sorted(index[v] for v in f)))
        return cls(vertices=verts, facets=tuple(minimal))

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

    Every entry point reads the facets through here once per call, so a
    complex built directly with no facets is rejected here, not per link."""
    if not delta.facets:
        raise MalformedComplex(NO_FACETS)
    bit = _vertex_bits(delta.vertices)
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
    and need no ``from_facets`` pass.  Listing the points in decreasing
    lexicographic order lists the facets in ``from_facets`` order: at the
    first direction where p > q differ, p's facet keeps the lower level
    q_i that q's facet drops, so it comes first in vertex-index order.
    """
    if not X.points:
        raise EmptyConfiguration("Reisner oracle needs a nonempty configuration")
    verts = tuple(grid_variables(X.dims))
    vert_set = frozenset(verts)
    start = list(accumulate(X.dims, initial=-1))  # verts[start[i] + c] is a[i+1,c]
    facets = tuple(
        vert_set.difference([verts[first + c] for first, c in zip(start, p)])
        for p in sorted(X.points, reverse=True)
    )
    return SimplicialComplex(verts, facets)


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


def _matched_betti(facets: Sequence[int]) -> tuple[int, ...] | None:
    """Reduced rational Betti numbers, degree -1 up to the dimension, of
    the complex with these facet masks from element matchings alone, or
    None when its critical cells span two sizes or it has more than
    ``MATCHING_BOUND`` vertex positions (module docstring).

    The face set is one int with bit s set for each face s; a matching
    pairs cells of adjacent sizes, so the reduced Euler characteristic of
    the faces must equal that of the critical cells, which fails if a
    step drops a cell without its partner.
    """
    full = reduce(or_, facets, 0)
    m = full.bit_length()
    if m > MATCHING_BOUND:
        return None
    has, odd = _subset_masks(m)
    faces = 0
    for f in facets:
        faces |= 1 << f
    for j in _bits(full):  # down-closure: drop vertex j from every face through it
        faces |= (faces & has[j]) >> (1 << j)
    critical = faces
    for j in _bits(full):  # the element matching on j, lowest vertex first
        shift = 1 << j
        paired = critical & ~has[j] & critical >> shift
        critical &= ~(paired | paired << shift)

    def euler(cells: int) -> int:  # cells of size k are in degree k - 1
        return 2 * (cells & odd).bit_count() - cells.bit_count()

    euler_faces, euler_cells = euler(faces), euler(critical)
    if euler_faces != euler_cells:
        raise InternalInvariantViolation(
            f"Euler characteristic mismatch: faces give {euler_faces}, "
            f"critical cells give {euler_cells}"
        )
    sizes = {s.bit_count() for s in _bits(critical)}
    if len(sizes) > 1:
        return None
    betti = [0] * (max(f.bit_count() for f in facets) + 1)
    if sizes:
        betti[sizes.pop()] = critical.bit_count()
    return tuple(betti)


def _reduced_betti(facets: Sequence[int]) -> tuple[int, ...]:
    """Reduced rational Betti numbers, degree -1 up to the dimension, of
    the complex with these facet masks: from the element matchings when
    they decide it, else by ``_coreduced_betti``."""
    betti = _matched_betti(facets)
    return _coreduced_betti(facets) if betti is None else betti


def _coreduced_betti(facets: Sequence[int]) -> tuple[int, ...]:
    """Reduced rational Betti numbers, degree -1 up to the dimension, of
    the complex with these facet masks: the lowest vertex's closed star
    is excised, the remaining cells are coreduced and the survivors'
    boundary matrices ranked (module docstring).

    The reduced Euler characteristic of the original face counts must
    equal the alternating sum of the Betti numbers of the surviving
    cells, which fails if the excision or a reduction drops a cell
    without its partner; a negative Betti number means a rank exceeded
    its matrix's.
    """
    faces = _face_masks(facets)
    top = max(f.bit_count() for f in facets)  # faces have sizes 0 .. top
    counts = [0] * (top + 1)
    for c in faces:
        counts[c.bit_count()] += 1
    full = reduce(or_, facets, 0)
    v = full & -full  # the excised vertex; 0 when the only face is empty
    others = full ^ v
    # each cell, a face outside the closed star of v (so without v, as
    # c | v = c for a face through v), mapped to the number of its
    # boundary faces that are cells and still present
    cells = dict.fromkeys((c for c in faces if c | v not in faces), 0) if v else {0: 0}
    for c in cells:
        n, rest = 0, c
        while rest:
            u = rest & -rest
            rest ^= u
            n += c ^ u in cells
        cells[c] = n

    queue = deque(c for c, n in cells.items() if n == 1)
    while queue:
        b = queue.popleft()
        if cells.get(b) != 1:
            continue
        rest = b
        u = rest & -rest
        while b ^ u not in cells:
            rest ^= u
            u = rest & -rest
        a = b ^ u
        del cells[a], cells[b]
        for c in (a, b):
            rest = others & ~c
            while rest:
                u = rest & -rest
                rest ^= u
                up = c | u
                if up in cells:
                    cells[up] -= 1
                    if cells[up] == 1:
                        queue.append(up)

    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for c in sorted(cells):
        by_size[c.bit_count()].append(c)
    # rank[k]: rank of the restricted boundary from cells of size k to size k - 1
    rank = [0] * (top + 2)
    for k in range(1, top + 1):
        lower, upper = by_size[k - 1], by_size[k]
        if not (lower and upper):
            continue
        row = {c: r for r, c in enumerate(lower)}
        matrix = [[0] * len(upper) for _ in lower]
        for col, b in enumerate(upper):
            rest = b
            while rest:
                u = rest & -rest
                rest ^= u
                r = row.get(b ^ u)
                if r is not None:  # cells oriented by increasing bit
                    matrix[r][col] = -1 if (b & (u - 1)).bit_count() & 1 else 1
        rank[k] = rank_int(matrix)

    betti = tuple(len(by_size[k]) - rank[k] - rank[k + 1] for k in range(top + 1))
    if min(betti) < 0:
        raise InternalInvariantViolation(f"negative Betti number in {betti}")
    def euler(by_cell_size: Sequence[int]) -> int:  # cells of size k are in degree k - 1
        return sum(n if k % 2 else -n for k, n in enumerate(by_cell_size))

    euler_faces, euler_betti = euler(counts), euler(betti)
    if euler_faces != euler_betti:
        raise InternalInvariantViolation(
            f"Euler characteristic mismatch: faces give {euler_faces}, "
            f"Betti numbers give {euler_betti}"
        )
    return betti


def homology(delta: SimplicialComplex) -> HomologyProfile:
    """Reduced rational Betti numbers, from element matchings or exact
    boundary-matrix ranks (module docstring).

    Includes the empty face as the single cell in degree -1, so the
    profile of the complex whose only face is empty is (1,).
    """
    return HomologyProfile(ranks=_reduced_betti(_facet_masks(delta)))


@lru_cache(maxsize=4096)
def _class_betti(key: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced Betti numbers of one link class (a ``_renumbered`` key),
    cached for the 4096 most recent classes.  ``_reduced_betti`` is looked
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


def _smallest_box(
    inside: int, bits: tuple[tuple[int, ...], ...], slab: dict[int, int]
) -> tuple[int, int]:
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


def _links_to_reduce(
    bits: tuple[tuple[int, ...], ...], points: Sequence[GridPoint]
) -> Iterator[tuple[int, int]]:
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


def _grid_facets(
    X: PointSet,
) -> tuple[tuple[tuple[int, ...], ...], list[GridPoint], list[int]]:
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


def empty_face_failure(X: PointSet) -> tuple[int, int] | None:
    """Reisner's condition on the empty face alone: the lowest degree below
    the top where the whole complex has reduced homology, and its rank,
    or None.  It is the first face ``cm_obstruction`` scans.

    The link of a face through a vertex v is a link in the link of v, so
    by Reisner's criterion the complex is Cohen-Macaulay exactly when
    this is None and every vertex link is Cohen-Macaulay (Bruns and
    Herzog, *Cohen-Macaulay Rings*, ch. 5).  The link of a[i,j] is the
    complex of X without its level j in direction i, coned over the
    variables of the levels that removal empties, and a cone is
    Cohen-Macaulay exactly when its base is.  So ``acmpts enumerate``
    decides a set from those sub-configurations and this one call."""
    return _failure(_grid_facets(X)[2])


def cm_obstruction(X: PointSet) -> tuple[Face, int, int] | None:
    """First face of the configuration's complex whose link has
    nonvanishing homology below its dimension.

    Faces are scanned by size then vertex order, so the empty face comes
    first and the reported obstruction is deterministic.  Returns
    (face, homology degree, rank) or None when the complex satisfies
    Reisner's criterion.
    """
    bits, points, facets = _grid_facets(X)
    if sum(X.dims) - X.n < 2:
        return None  # facets of at most one vertex: every link has dimension <= 0
    failure = _failure(facets)
    if failure:
        return (frozenset(), *failure)
    for kept, inside in _links_to_reduce(bits, points):
        failure = _failure([facets[k] & kept for k in _bits(inside)])
        if failure:
            full = (1 << sum(X.dims)) - 1
            return (_vertex_set(grid_variables(X.dims), full ^ kept), *failure)
    return None


def is_cm(X: PointSet) -> bool:
    """Cohen-Macaulayness of the configuration's Stanley-Reisner model.

    Purity, a necessary condition, holds by construction: every facet
    of the complex (``sr_complex``) has sum(r_i) - n vertices.
    """
    return cm_obstruction(X) is None


def first_cm_failure(X: PointSet) -> tuple[Face, int, int] | None:
    """The first failing link of the configuration's complex, if any."""
    return cm_obstruction(X)
