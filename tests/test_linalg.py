import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmpts import canonicalize, hilbert_function, linalg, reisner_oracle
from acmpts.linalg import echelon_insert, rank_int


def reference_rank(matrix):
    """Plain Gaussian elimination over Fractions, kept independent of the
    integer routine under test."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def test_simple_ranks():
    assert rank_int([[1, 0], [0, 1]]) == 2
    assert rank_int([[0, 0], [0, 0]]) == 0
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[2, 4, 6]]) == 1
    assert rank_int([]) == 0
    assert rank_int([[], []]) == 0


def test_ragged_matrix_is_rejected():
    with pytest.raises(ValueError, match="ragged matrix"):
        rank_int([[1], [1, 2]])


def test_singular_four_by_four():
    m = [
        [1, 1, 1, 1],
        [1, 2, 2, 4],
        [1, 3, 3, 9],
        [1, 4, 4, 16],
    ]
    assert rank_int(m) == 3  # two equal middle columns


def test_zero_factor_rows_keep_exactness():
    # rows with a zero in the pivot column are skipped, not rescaled; the
    # last row only becomes zero through the first row's pivot
    m = [
        [2, 3, 5],
        [0, 7, 11],
        [0, 0, 13],
        [4, 6, 10],
    ]
    assert rank_int(m) == 3


matrices = st.integers(0, 6).flatmap(
    lambda rows: st.integers(0, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(matrices)
def test_matches_fraction_elimination(m):
    assert rank_int(m) == reference_rank(m)


def fields(x, width, n):
    """The n balanced W-bit fields of a packed vector, lowest first: each
    is the balanced residue of what is left once the fields below it are
    taken off."""
    half, out = 1 << (width - 1), []
    for _ in range(n):
        out.append((x + half) % (1 << width) - half)
        x = (x - out[-1]) >> width
    assert x == 0
    return out


def test_echelon_insert_keeps_its_contract():
    # Each insert leaves its argument and the earlier basis untouched,
    # appends at most one vector, pivoted at its first nonzero field and
    # at an index that is no earlier vector's pivot, stored shifted down
    # to that pivot with its pivot field and a bound on its field
    # magnitudes, and the basis size is the rank so far.
    rng = random.Random(1601)
    for _ in range(300):
        cols = rng.randint(0, 6)
        basis, rows = linalg.Basis(linalg.WIDTH), []

        def stored():
            return [(p, [0] * p + fields(b[0], basis.width, cols - p)) for p, b in basis.items()]

        for _ in range(rng.randint(1, 8)):
            v = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)]
            if rows and rng.random() < 0.3:  # a combination of earlier rows
                u, w = rng.choice(rows), rng.choice(rows)
                v = [2 * a - 3 * b for a, b in zip(u, w)]
            rows.append(v)
            before = stored()
            [packed] = linalg.pack([v], basis.width)
            assert fields(packed[0], basis.width, cols) == v
            assert packed[1] == max(map(abs, v), default=0)
            added = echelon_insert(basis, packed)
            assert fields(packed[0], basis.width, cols) == v
            assert stored()[: len(before)] == before
            assert len(basis) == len(before) + added == reference_rank(rows)
            if added:
                pivot, b = stored()[-1]
                _, bound, xj = basis[pivot]
                assert pivot == next(j for j, e in enumerate(b) if e)
                assert all(pivot != p for p, _ in before)
                assert xj == b[pivot] and max(map(abs, b)) <= bound < 1 << (basis.width - 1)


def packed_widths(monkeypatch):
    """The field width of each start of ``linalg.eliminate``, one list per
    call, so that a list of two or more is a restart; and the width of
    each step taken field by field that did not restart."""
    calls, slow = [], []
    eliminate, primitive = linalg.eliminate, linalg._primitive

    def recording_eliminate(vectors, reduce):
        widths = []
        calls.append(widths)

        def recording_reduce(basis, packed):
            widths.append(basis.width)
            return reduce(basis, packed)

        return eliminate(vectors, recording_reduce)

    def recording_primitive(x, y, p, q, width):
        packed = primitive(x, y, p, q, width)
        slow.append(width)
        return packed

    monkeypatch.setattr(linalg, "eliminate", recording_eliminate)
    monkeypatch.setattr(linalg, "_primitive", recording_primitive)
    return calls, slow


def random_matrix(rng, entries, size=8):
    rows, cols = rng.randint(1, size), rng.randint(1, size)
    return [[rng.choice((0, entries())) for _ in range(cols)] for _ in range(rows)]


def test_packed_kernel_matches_fraction_elimination_across_widths(monkeypatch):
    rng = random.Random(1701)
    calls, slow = packed_widths(monkeypatch)
    # Signed +-1 rows, as in boundary matrices, stay at the first width.
    for _ in range(150):
        m = random_matrix(rng, lambda: rng.choice((-1, 1)), 12)
        assert rank_int(m) == reference_rank(m)
    assert {width for widths in calls for width in widths} == {linalg.WIDTH}
    assert slow == []
    # Entries up to 2^40 in magnitude are packed wider from the start.
    calls.clear()
    for _ in range(150):
        m = random_matrix(rng, lambda: rng.randint(-(1 << 40), 1 << 40), 6)
        m[0][0] = 1 << 40
        assert rank_int(m) == reference_rank(m)
    assert all(widths[0] >= 64 for widths in calls)
    # From a deliberately narrow first width, growth in the reduction
    # overflows bounds: some steps are taken field by field and go on at
    # the same width, and some vectors outgrow it and force a restart.
    monkeypatch.setattr(linalg, "WIDTH", 8)
    calls.clear()
    slow.clear()
    for _ in range(300):
        m = random_matrix(rng, lambda: rng.randint(-9, 9))
        assert rank_int(m) == reference_rank(m), m
    assert all(widths[0] == 8 for widths in calls)
    assert any(len(widths) > 1 for widths in calls)
    assert 8 in slow and 16 in slow



def test_a_restart_skips_to_the_width_the_vector_asked_for(monkeypatch):
    # Entries of 101 bits overflow the first width; the next attempt is
    # at 128-bit fields, the first width WIDTH * 2^k that holds them.
    # There the first step leaves (0, -2^200 - 3, 5 * 2^100), whose
    # fields have no common factor: 201 bits ask for fields of 402 bits
    # or more, so the elimination restarts at 512 and not at 256.
    widths = []
    pack = linalg.pack

    def recording(vectors, width):
        widths.append(width)
        return pack(vectors, width)

    monkeypatch.setattr(linalg, "pack", recording)
    m = [[1 << 100, 1, 0], [3, -(1 << 100), 5], [1, 1, 1]]
    assert rank_int(m) == reference_rank(m) == 3
    assert widths == [linalg.WIDTH, 128, 512]

def captured_matrices(monkeypatch, module, compute):
    """The matrices ``module`` hands to rank_int while ``compute`` runs."""
    seen = []

    def capture(matrix):
        seen.append(matrix)
        return rank_int(matrix)

    monkeypatch.setattr(module, "rank_int", capture)
    compute()
    return seen


def boundary_matrices(delta):
    """The unreduced boundary matrices of a complex between nonempty faces,
    rows and columns in ``faces()`` order; dropping the vertex at position
    j of a face's vertex-index order has sign (-1)**j."""
    index = {v: k for k, v in enumerate(delta.vertices)}
    by_size = {}
    for face in delta.faces():
        by_size.setdefault(len(face), []).append(tuple(sorted(index[v] for v in face)))
    matrices = []
    for size in range(2, delta.dim + 2):
        row = {face: r for r, face in enumerate(by_size[size - 1])}
        matrix = [[0] * len(by_size[size]) for _ in row]
        for c, face in enumerate(by_size[size]):
            for j in range(size):
                matrix[row[face[:j] + face[j + 1 :]]][c] = (-1) ** j
        matrices.append(matrix)
    return matrices


def test_matches_fraction_elimination_on_boundary_matrices():
    full = canonicalize(itertools.product((1, 2, 3), repeat=3))
    seen = boundary_matrices(reisner_oracle.sr_complex(full))
    assert [(len(m), len(m[0])) for m in seen] == [(9, 36), (36, 81), (81, 108), (108, 81), (81, 27)]
    for m in seen:
        assert rank_int(m) == reference_rank(m)


def test_matches_fraction_elimination_on_evaluation_matrices(monkeypatch, eleven_points):
    degrees = [(1, 1, 1), (2, 1, 0), (2, 2, 2), (3, 3, 3)]
    seen = captured_matrices(
        monkeypatch,
        hilbert_function,
        lambda: [hilbert_function.evaluation_rank(eleven_points.points, t) for t in degrees],
    )
    assert [(len(m), len(m[0])) for m in seen] == [(11, 8), (11, 6), (11, 27), (11, 64)]
    for m in seen:
        assert rank_int(m) == reference_rank(m)
