"""Exact integer elimination: one fraction-free echelon step.

``echelon_insert`` keeps a basis of integer vectors, each with its pivot
(first nonzero index) and zero at the pivots of the vectors before it.
A new vector is reduced against the basis in order: where it is nonzero
at a pivot it becomes ``v*(b[pivot]//g) - b*(v[pivot]//g)`` with
``g = gcd(b[pivot], v[pivot])``.  What is left is zero at every pivot,
so it is independent of the basis exactly when it is nonzero, and then
it is appended.  Entries stay integers, so ranks over the rationals are
exact.  No list passed in is ever written to, so callers may share
vectors between bases and truncate a basis back to an earlier size.

``rank_int`` inserts the rows of one matrix and counts what stays: the
boundary matrices of Stanley-Reisner links and the per-degree monomial
matrices of ``evaluation_rank``.  The Hilbert walk in
``hilbert_function`` inserts Newton columns into one basis per box.
On the seed-42 benchmark inputs, ``first_cm_failure`` over the
``sample_3x3x3`` sets reduces 920 link classes (its memo is shared
across the sets) and ranks 469 boundary matrices of at most 17x17
(11551 entries, 35% nonzero), whose basis entries stay +-1; the
``hilbert_tables`` walk inserts 73811 columns of at most 5-bit entries
and keeps basis entries of at most 10 bits.
Growth that small does not pay for dividing vectors by their content.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

# (pivot, vector) pairs; each vector is zero at the pivots before it.
Basis = list[tuple[int, Sequence[int]]]


def echelon_insert(basis: Basis, v: Sequence[int]) -> bool:
    """Reduce v against the basis; append what is left, if anything.

    Returns whether v was independent of the basis.  Neither v nor the
    basis vectors are modified; an unreduced v is appended as it is.
    """
    for pivot, b in basis:
        f = v[pivot]
        if f:
            g = gcd(b[pivot], f)
            x, y = b[pivot] // g, f // g
            v = [vj * x - bj * y for vj, bj in zip(v, b)]
    for j, vj in enumerate(v):
        if vj:
            basis.append((j, v))
            return True
    return False


def rank_int(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix given as a sequence of rows."""
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("ragged matrix")
    basis: Basis = []
    return sum(echelon_insert(basis, row) for row in matrix)
