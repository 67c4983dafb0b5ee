"""Exact integer elimination on packed vectors: one fraction-free echelon step.

A vector v_0, ..., v_{n-1} of integers is packed into one Python int,
sum_j v_j * 2^(W*j), with n signed fields of W bits (Kronecker
substitution), so a whole-vector step is one integer operation.  The
packing is one-to-one while every field has magnitude below 2^(W-1), and
when the fields below j are zero, field j is the balanced residue of
``x >> (W*j)`` modulo 2^W.  A packed vector is the pair (x, M) with M an
upper bound on its field magnitudes.

``echelon_insert`` keeps a basis of packed vectors in a ``Basis`` keyed
by pivot (a vector's first nonzero field), so no two vectors share a
pivot and the vectors are independent.  A vector whose first nonzero
field is j is kept shifted down by j fields, so its pivot field is its
lowest one.  A new vector is reduced by its leading field only.  The
number of zero fields below it is ``(x & -x).bit_length() // W``, since
the lowest set bit of a field under 2^(W-1) in magnitude sits below its
top bit.  While its pivot j is the pivot of a basis vector b, x becomes
``x*(b_j//g) - b*(x_j//g)`` with ``g = gcd(b_j, x_j)``: field j cancels
and the first nonzero field moves past j.  The vector is dependent on
the basis exactly when nothing is left; otherwise it is stored under its
new pivot, with its bound and its pivot field.  Ranks over the rationals
are exact at every width, with no floats and no modular arithmetic.  A
dict keeps insertion order, so a basis truncates back to an earlier size
with ``popitem()``.

Each step bounds the new fields by |b_j//g|*M_x + |x_j//g|*M_b, and
every field stays below 2^(W-1).  When the bound reaches 2^(W-1), the
step is taken field by field instead and the result divided by the gcd
of its fields, whose largest field is its new, exact bound; the vector
stays a nonzero multiple of the plain step's, so pivots and ranks are
the same.  Only when that primitive vector has a field of 2^(W/2) or
more does a private signal, carrying the width that would hold it, make
``eliminate`` repack every input at that width or more and start
again.  So a field never overflows into its neighbour, and an overflow
can never yield a wrong rank.

``eliminate`` packs its vectors at the first width WIDTH * 2^k that
holds every entry and hands them to a caller's reduction.  Each input is
bounded by the largest entry magnitude of all the vectors packed with
it.  ``rank_int`` inserts the rows of one matrix and counts what stays:
the Morse differentials of Stanley-Reisner links and the per-degree
monomial matrices of ``evaluation_rank``.  The Hilbert walk in
``hilbert_function`` inserts Newton columns into one basis per walk.
"""

from __future__ import annotations

import itertools
import struct
from math import gcd
from typing import Callable, Sequence, TypeVar

# A packed vector x and the bound M on its field magnitudes.
Packed = tuple[int, int]

# The first field width tried, in bits.
WIDTH = 32

R = TypeVar("R")


class _Overflow(Exception):
    """A vector does not fit its field width: repack at a width of at
    least the one given."""


class Basis(dict):
    """pivot -> (x, M, x_j): a packed vector shifted down to its pivot, so
    that its lowest field x_j is the pivot field and is nonzero, and the
    bound M on its field magnitudes.  ``width`` is the field width W of
    every vector in it."""

    __slots__ = ("width", "half", "mask")

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width
        self.half = 1 << (width - 1)
        self.mask = (1 << width) - 1


def pack(vectors: Sequence[Sequence[int]], width: int) -> list[Packed]:
    """Each of the equally long vectors packed at the given field width,
    with the largest entry magnitude M of them all as its bound; raises
    the private ``_Overflow`` unless M is below 2^(W-1)."""
    entries = list(itertools.chain.from_iterable(vectors))
    lo, hi = min(entries, default=0), max(entries, default=0)
    bound = max(hi, -lo)
    if bound >> (width - 1):
        raise _Overflow(bound.bit_length() + 1)
    n = len(vectors[0]) if vectors else 0
    if not n:
        return [(0, 0)] * len(vectors)
    if width == 32:  # the width nearly every matrix and walk is packed at
        data = struct.pack(f"<{len(entries)}i", *entries)
    else:
        data = b"".join(e.to_bytes(width // 8, "little", signed=True) for e in entries)
    size = width // 8 * n
    xs = [int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size)]
    if lo < 0:
        # The bytes hold each field modulo 2^W, so a negative field was
        # read as 2^W too much: take 2^W back at each set top bit.
        tops = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")
        xs = [x - ((x & tops) << 1) for x in xs]
    return [(x, bound) for x in xs]


def echelon_insert(basis: Basis, v: Packed) -> bool:
    """Reduce v's leading field against the basis; store what is left.

    Returns whether v was independent of the basis.  Raises the private
    ``_Overflow`` when v outgrows the basis width (see the module
    docstring); the basis may then hold a partial state and must be
    dropped.
    """
    width, half, mask = basis.width, basis.half, basis.mask
    x, bound = v
    j = 0
    while x:
        k = (x & -x).bit_length() // width
        x >>= width * k
        j += k
        xj = (x + half & mask) - half
        b = basis.get(j)
        if b is None:
            basis[j] = (x, bound, xj)
            return True
        y, bbound, bj = b
        g = gcd(bj, xj)
        p, q = bj // g, xj // g
        bound = abs(p) * bound + abs(q) * bbound
        if bound < half:
            x = x * p - y * q
        else:
            x, bound = _primitive(x, y, p, q, width)
    return False


def _unpack(x: int, width: int, n: int) -> list[int]:
    """The lowest n fields of a packed vector.  Adding 2^(W-1) to every
    field turns each into a plain unsigned W-bit chunk of the bytes."""
    size, half = width // 8, 1 << (width - 1)
    x += int.from_bytes(half.to_bytes(size, "little") * n, "little")
    data = x.to_bytes(size * n, "little")
    return [int.from_bytes(data[k : k + size], "little") - half for k in range(0, size * n, size)]


def _primitive(x: int, y: int, p: int, q: int, width: int) -> Packed:
    """``x*p - y*q`` divided by the gcd of its fields, with the largest
    field magnitude as its exact bound.  Raises the private ``_Overflow``
    unless every field is below 2^(W/2), so that half of each field is
    left for the growth of the steps to come."""
    n = max(x.bit_length(), y.bit_length()) // width + 1
    z = [a * p - b * q for a, b in zip(_unpack(x, width, n), _unpack(y, width, n))]
    c = gcd(*z) or 1  # z is zero when x is a multiple of y
    z = [e // c for e in z]
    top = max(map(abs, z))
    if top >> (width // 2):
        raise _Overflow(2 * top.bit_length())
    return pack([z], width)[0]


def eliminate(vectors: Sequence[Sequence[int]], reduce: Callable[[Basis, list[Packed]], R]) -> R:
    """``reduce(basis, packed)`` on an empty basis and the vectors packed at
    a width WIDTH * 2^k that holds every entry and that the reduction
    never outgrows.  A restart goes straight to the first such width
    that holds what the overflowing vector asked for, which is always
    more than the width it overflowed."""
    width = WIDTH
    while True:
        try:
            return reduce(Basis(width), pack(vectors, width))
        except _Overflow as overflow:
            while width < overflow.args[0]:
                width *= 2


def rank_int(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix given as a sequence of rows."""
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("ragged matrix")
    return eliminate(matrix, lambda basis, rows: sum(echelon_insert(basis, row) for row in rows))
