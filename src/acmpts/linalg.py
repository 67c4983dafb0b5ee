"""Exact rank of integer matrices by integer elimination.

Column by column, each row with a nonzero entry below the pivot becomes
``row*(piv//g) - top*(factor//g)`` with ``g = gcd(piv, factor)``; rows
whose entry is already zero are left alone, and only the columns right
of the pivot are written, since later pivots are searched there.  Every
entry stays an integer, so ranks over the rationals come out exact with
no tolerance questions.  Two kinds of matrix reach this routine:
boundary matrices of Stanley-Reisner links, and the dense evaluation
matrices of ``evaluation_rank``, one per degree.  Boundary matrices are
taken between the cells that survive excision and coreductions, so they
are few and small: ``first_cm_failure`` on the seed-42 ``sample_3x3x3``
benchmark inputs needs the homology of 8473 links, reduces 1621 of them
(one per link class) and ranks 484 matrices of at most 17x17, 11581
entries in all (35% nonzero).  Hilbert tables and the construction identities do
not call this routine: they rank a whole box in one incremental echelon
walk (see ``hilbert_function``), and ``evaluation_rank`` remains as its
independent per-degree reference.  On seeded 3x3x3 samples of both
kinds, eliminated entries grew by at most one bit over the input's, so
rows are not divided by the gcd of their entries.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def rank_int(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix given as a sequence of rows."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")

    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        piv = top[col]
        for row in m[rank + 1 :]:
            factor = row[col]
            if factor:
                g = gcd(piv, factor)
                a, b = piv // g, factor // g
                for j in range(col + 1, ncols):
                    row[j] = row[j] * a - top[j] * b
        rank += 1
        if rank == nrows:
            break
    return rank
