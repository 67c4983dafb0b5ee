"""The cross-validation harness behind ``acmpts enumerate``.

The harness evaluates one subset per orbit of the grid's symmetry group
(level permutations in every direction times permutations of directions
of equal length) and copies the verdicts to the other members.  This is
exact: a symmetry maps a subset to a subset whose canonical form is a
``relabel`` of the original's, and the star verdict and the Reisner
verdict are invariant under ``relabel``, while the inclusion verdict
moves with its direction.  The cross-checks are invariant in the same
way, so either no member of an orbit fails one or every member does;
members of a failing orbit are evaluated one by one, since FAIL lines
name member-specific ids, level masks and directions.  The report is
therefore the one a per-subset loop would write.  The group is built
only when it has no more elements than there are subsets to visit, and
is the identity otherwise.

An exhaustive run visits the masks in increasing order, so every proper
submask of the mask at hand is decided, and keeps one byte per mask: the
number of its row among the distinct verdicts (``_Sweep``).  The
cross-checks of an ACM mask, that each proper union of its levels and
each interface set is ACM, read submasks built from per-direction level
masks (``grid_model.level_masks``, which ``reisner_oracle`` and the star
criterion read too) and per-cell line masks.  Its Reisner verdict reads
its vertex links first, each the mask without one of its levels: if one
is not Cohen-Macaulay, neither is the mask, and otherwise only the whole
complex is reduced (``reisner_oracle.empty_face_failure``).  This is
the recursion of ``reisner_oracle.is_cm``, read from the run's own table
in mask order.  Star and inclusion verdicts of a representative still
come from ``is_acm`` and ``inclusion_property``.  A ``--random`` run
keeps a dict instead, and decides what its sample never visited on
demand, by ``is_acm`` and ``is_cm``; ``is_cm`` keeps the verdicts of the
sub-configurations it decides in its own process-wide memo, so later
draws reuse them.

``cli.cmd_enumerate`` imports this module when the command runs, so the
other commands, and every import of ``acmpts.cli``, do without it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from functools import reduce
from operator import or_
from typing import NamedTuple, Sequence, TextIO

from .grid_model import PointSet, canonicalize, cell_table, level_masks
from .level_structure import inclusion_property
from .reisner_oracle import empty_face_failure, is_cm
from .star_property import is_acm

_TEXT = {True: "true", False: "false"}


class _Verdicts(NamedTuple):
    """What one CSV row reports about a configuration, besides size and agreement."""

    star_acm: bool
    reisner_cm: bool
    inclusion: tuple[bool, ...]

    def permuted(self, dperm: tuple[int, ...]) -> "_Verdicts":
        """The verdicts of the image under a symmetry whose new direction
        ``k`` is old direction ``dperm[k]`` (0-based).  One direction has
        no inclusion verdict to move."""
        if not self.inclusion:
            return self
        return self._replace(inclusion=tuple(self.inclusion[d] for d in dperm))


class _Sweep:
    """The verdict table of one run, and the grid's masks that turn its
    cross-checks into lookups (module docstring).

    ``table[mask]`` numbers the mask's row in ``rows``, the distinct
    verdicts seen, or is 0 while the mask is undecided; ``tails`` holds
    each row's CSV columns after ``size``, formatted once, and ``hits``
    its visits.  An exhaustive table has one byte per mask: at most four
    directions of two or more levels fit the 27-cell cap, and in any
    other direction inclusion is the star verdict, so there are at most
    4 * 2^4 rows (a 256th would raise ValueError).  A ``--random`` table
    is a dict that reads 0 for a mask it does not hold.
    """

    def __init__(self, dims: tuple[int, ...], exhaustive: bool) -> None:
        self.cells, index, _ = cell_table(dims)
        # slabs[i][l - 1]: the cells at level l of direction i; lines[i][b]:
        # the cells that differ from cell b at most in direction i
        self.slabs = level_masks(dims)
        self.lines = [[sum(1 << index[c[:i] + (l,) + c[i + 1:]] for l in range(1, r + 1))
                       for c in self.cells] for i, r in enumerate(dims)]
        self.table = bytearray(1 << len(self.cells)) if exhaustive else defaultdict(int)
        self.rows = [_Verdicts(False, False, ())]  # row 0, undecided, is never visited
        self.tails, self.hits, self.numbers = [""], [0], {}

    def number(self, verdicts: _Verdicts) -> int:
        """The row number of these verdicts, adding the row if it is new."""
        k = self.numbers.setdefault(verdicts, len(self.rows))
        if k == len(self.rows):
            star, cm, incl = verdicts
            text = [_TEXT[star], _TEXT[cm], ";".join(map(_TEXT.get, incl)), _TEXT[star == cm]]
            self.tails.append(",".join(text) + "\r\n")
            self.rows.append(verdicts)
            self.hits.append(0)
        return k

    def point_set(self, mask: int) -> PointSet:
        return canonicalize([c for b, c in enumerate(self.cells) if mask >> b & 1])

    def star(self, mask: int) -> bool:
        """A submask's star verdict; --random decides one it never visited."""
        k = self.table[mask]
        return self.rows[k].star_acm if k else is_acm(self.point_set(mask))

    def evaluate(self, mask: int) -> tuple[_Verdicts, list[str]]:
        """Every verdict and cross-check of ``enumerate`` for one mask."""
        X = self.point_set(mask)
        star = is_acm(X)
        parts = [[mask & s for s in slabs if mask & s] for slabs in self.slabs]
        # The vertex links: the mask without one of its levels, in each
        # direction where it has two or more.
        children = [self.table[mask & ~p] for ps in parts if len(ps) > 1 for p in ps]
        if all(children):
            cm = all(self.rows[k].reisner_cm for k in children) and not empty_face_failure(X)
        else:  # --random: a child the sample never visited
            cm = is_cm(X)
        incl = tuple(inclusion_property(X, i) for i in range(1, X.n + 1)) if X.n >= 2 else ()
        problems = [f"star={star} but reisner={cm}"] if star != cm else []
        if star and X.n >= 2:  # one direction: every union and interface is ACM
            for i, (ps, lines) in enumerate(zip(parts, self.lines), start=1):
                unions = [0]  # unions[u]: the union of the parts k with bit k of u set
                for p in ps:
                    unions += [u | p for u in unions]
                problems += [f"union of levels mask={u} direction={i} not ACM"
                             for u in range(1, len(unions) - 1) if not self.star(unions[u])]
                for j, p in enumerate(ps, start=1):  # a single level has no interface
                    shadow = reduce(or_, [line for b, line in enumerate(lines) if p >> b & 1])
                    iface = shadow & mask & ~p
                    if iface and not self.star(iface):
                        problems.append(f"interface of level {j} direction {i} not ACM")
        if not star and any(incl):
            problems.append("inclusion holds but configuration is not ACM")
        return _Verdicts(star, cm, incl), problems


def _grid_symmetries(
    dims: tuple[int, ...], limit: int
) -> list[tuple[tuple[int, ...], list[int]]]:
    """The grid's symmetry group as (direction permutation, cell permutation)
    pairs, or only the identity when the group has more than ``limit``
    elements.

    The group permutes the levels of every direction and the directions of
    equal length.  In a pair, new direction ``k`` is old direction
    ``dperm[k]`` (0-based, as in ``relabel``), and cell ``b`` of
    ``grid_cells(dims)`` goes to cell ``perm[b]``.
    """
    n = len(dims)
    order = math.prod(math.factorial(r) for r in dims) * math.prod(
        math.factorial(c) for c in Counter(dims).values()
    )
    if order > limit:
        return [(tuple(range(n)), list(range(math.prod(dims))))]
    cells, index, _ = cell_table(dims)
    return [
        (dperm, [index[tuple(lperms[d][cell[d] - 1] for d in dperm)] for cell in cells])
        for dperm in itertools.permutations(range(n))
        if all(dims[d] == r for d, r in zip(dperm, dims))
        for lperms in itertools.product(*[itertools.permutations(range(1, r + 1)) for r in dims])
    ]


def _orbit_images(mask: int, bit_images: list[list[int]]) -> list[int]:
    """``g(mask)`` for every group element ``g``, in group order, where
    ``bit_images[b][g]`` is ``g`` applied to cell ``b``, as a bit."""
    images = [0] * len(bit_images[0])
    while mask:
        low = mask & -mask
        images = list(map(or_, images, bit_images[low.bit_length() - 1]))
        mask ^= low
    return images


def write_report(
    dims: tuple[int, ...], masks: Sequence[int], exhaustive: bool, fh: TextIO
) -> tuple[int, int, list[str]]:
    """Write the CSV report of the subsets ``masks`` of the ``dims`` grid,
    every nonempty one in increasing order when ``exhaustive``, and return
    the number of ACM rows, the number of agreeing rows and the messages
    of the failed cross-checks, in visiting order."""
    grid_txt = "x".join(map(str, dims))
    sweep = _Sweep(dims, exhaustive)
    # Images that are never visited are not recorded, so a --random table
    # stays within the sample's size.
    targets = masks if exhaustive else set(masks)
    symmetries = _grid_symmetries(dims, len(masks))
    dperms = [dperm for dperm, _ in symmetries]
    distinct_dperms = set(dperms)
    bit_images = [[1 << perm[b] for _, perm in symmetries] for b in range(len(sweep.cells))]
    failures: list[str] = []
    fh.write("grid,id,size,star_acm,reisner_cm,inclusion,agree\r\n")
    for mask in masks:
        k = sweep.table[mask]
        if not k:
            verdicts, problems = sweep.evaluate(mask)
            k = sweep.number(verdicts)
            failures.extend(f"id={mask}: {problem}" for problem in problems)
            if not problems:
                moved = {dperm: sweep.number(verdicts.permuted(dperm)) for dperm in distinct_dperms}
                for image, dperm in zip(_orbit_images(mask, bit_images), dperms):
                    if image in targets:
                        sweep.table[image] = moved[dperm]
            elif exhaustive:  # later supersets read it; a --random redraw fails again
                sweep.table[mask] = k
        sweep.hits[k] += 1
        fh.write(f"{grid_txt},{mask},{mask.bit_count()},{sweep.tails[k]}")
    rows = list(zip(sweep.hits, sweep.rows))
    acm = sum(h for h, v in rows if v.star_acm)
    agree = sum(h for h, v in rows if v.star_acm == v.reisner_cm)
    return acm, agree, failures
