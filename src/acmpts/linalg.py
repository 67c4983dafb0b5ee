"""Exact integer elimination: one fraction-free echelon step.

``echelon_insert`` keeps a basis of integer vectors in a dict keyed by
pivot (a vector's first nonzero index), so no two vectors share a pivot
and the vectors are independent.  A new vector is reduced by its leading
entry only: while its first nonzero index j is the pivot of a basis
vector b, it becomes ``v*(b[j]//g) - b*(v[j]//g)`` with
``g = gcd(b[j], v[j])``.  Both are zero before j, so only the entries
after j are recomputed, and the first nonzero index moves past j.  The
vector is dependent on the basis exactly when nothing is left; otherwise
it is stored under its new pivot.  Entries stay integers, so ranks over
the rationals are exact.  No list passed in is ever written to, so
callers may share vectors between bases, and a dict keeps insertion
order, so a basis truncates back to an earlier size with ``popitem()``.

``rank_int`` inserts the rows of one matrix and counts what stays: the
boundary matrices of Stanley-Reisner links and the per-degree monomial
matrices of ``evaluation_rank``.  The Hilbert walk in
``hilbert_function`` inserts Newton columns into one basis per walk.
On the seed-42 benchmark inputs, the 22 boundary matrices that
``first_cm_failure`` ranks over the ``sample_3x3x3`` sets (counted in
the ``reisner_oracle`` docstring) keep basis entries of +-1; the
``hilbert_tables`` ops make 930 walks, which insert 54364 columns of at
most 5-bit entries with 70067 reduction steps and keep basis entries of
at most 10 bits.
Growth that small does not pay for dividing vectors by their content.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

# pivot -> vector; each vector is zero before its pivot and nonzero there.
Basis = dict[int, Sequence[int]]


def echelon_insert(basis: Basis, v: Sequence[int]) -> bool:
    """Reduce v's leading entry against the basis; store what is left.

    Returns whether v was independent of the basis.  Neither v nor the
    basis vectors are modified; an unreduced v is stored as it is.
    """
    n = len(v)
    j = 0
    while True:
        while j < n and not v[j]:
            j += 1
        if j == n:
            return False
        b = basis.get(j)
        if b is None:
            basis[j] = v
            return True
        g = gcd(b[j], v[j])
        x, y = b[j] // g, v[j] // g
        j += 1
        v = [0] * j + [vk * x - bk * y for vk, bk in zip(v[j:], b[j:])]


def rank_int(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix given as a sequence of rows."""
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("ragged matrix")
    basis: Basis = {}
    return sum(echelon_insert(basis, row) for row in matrix)
