"""Reference reduction of simplicial homology by excision and
coreductions, against which the oracle's Morse route is tested.

It first excises the lowest vertex v: the closed star of v (the faces
sigma with sigma + v a face) is a cone with apex v, so its reduced
homology vanishes, and the exact sequence of the pair followed by
excision gives H~_i(Delta) = H_i(Delta, st v) = H_i(del v, lk v)
(Munkres, *Elements of Algebraic Topology*, sections 9 and 70).  The
cells left are the faces sigma without v for which sigma + v is not a
face, with the boundary restricted to them.  The star's cells come in
pairs sigma, sigma + v of adjacent degrees, so the excision keeps the
Euler characteristic, and the check still compares the original face
counts with the Betti numbers returned.  The complex whose only face is
empty has no vertex to excise, and its one cell, the empty face, stays.
Then coreductions (Mrozek and Batko, *Coreduction homology algorithm*,
DCG 41, 2009) start from every cell whose boundary within the remaining
cells is a single cell, and remove it together with that cell.  The
pair is joined by a coefficient of +-1, a unit, so the removal preserves
homology over the integers, and the surviving cells with the boundary
restricted to them still form a chain complex with the same homology.
Only the survivors' boundary matrices reach the exact integer rank.
"""

from collections import deque
from functools import reduce
from operator import or_
from typing import Sequence

from acmpts.errors import InternalInvariantViolation
from acmpts.linalg import rank_int
from acmpts.reisner_oracle import _face_masks


def coreduced_betti(facets: Sequence[int]) -> tuple[int, ...]:
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
