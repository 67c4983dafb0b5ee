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

Every verdict is decided on the cell mask of a subset of the run's grid,
with no PointSet and no canonical form: the star verdict by
``star_property.acm_on_grid``, the Reisner verdict by
``reisner_oracle.cm_on_grid`` with ``is_cm``'s process-wide verdict memo,
and inclusion by ``level_structure.inclusion_on_grid``.  A subset that
does not use every level of the grid has the verdicts of its canonical
form there (the ``star_property`` and ``reisner_oracle`` docstrings).

An exhaustive run visits the masks in increasing order, so every proper
submask of the mask at hand is decided, and keeps one byte per mask: the
number of its row among the distinct verdicts (``_Sweep``).  The
cross-checks of an ACM mask, that each proper union of its levels and
each interface set is ACM, look the star verdicts of those submasks up:
a union is built from per-direction level masks
(``grid_model.level_masks``), and an interface is
``level_structure.interface_on_grid``.  A ``--random`` run keeps a dict
instead, and decides a submask its sample never visited on demand.

``cli.cmd_enumerate`` imports this module when the command runs, so the
other commands, and every import of ``acmpts.cli``, do without it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from operator import or_
from typing import NamedTuple, Sequence, TextIO

from .grid_model import cell_table, level_masks, mask_bits
from .level_structure import inclusion_on_grid, interface_on_grid
from .reisner_oracle import cm_on_grid
from .star_property import acm_on_grid

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
        self.dims = dims
        self.slabs = level_masks(dims)  # slabs[i][l - 1]: the cells at level l of direction i + 1
        self.table = bytearray(1 << math.prod(dims)) if exhaustive else defaultdict(int)
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

    def star(self, mask: int) -> bool:
        """A submask's star verdict; --random decides one it never visited."""
        k = self.table[mask]
        return self.rows[k].star_acm if k else acm_on_grid(self.dims, mask)

    def evaluate(self, mask: int) -> tuple[_Verdicts, list[str]]:
        """Every verdict and cross-check of ``enumerate`` for one mask."""
        dims, n = self.dims, len(self.dims)
        star, cm = acm_on_grid(dims, mask), cm_on_grid(dims, mask)
        incl = tuple(inclusion_on_grid(dims, mask, i) for i in range(1, n + 1)) if n >= 2 else ()
        problems = [f"star={star} but reisner={cm}"] if star != cm else []
        if star and n >= 2:  # one direction: every union and interface is ACM
            for i, slabs in enumerate(self.slabs, start=1):
                levels = [l for l, slab in enumerate(slabs, start=1) if mask & slab]
                unions = [0]  # unions[u]: the union of the levels k with bit k of u set
                for l in levels:
                    unions += [u | mask & slabs[l - 1] for u in unions]
                problems += [f"union of levels mask={u} direction={i} not ACM"
                             for u in range(1, len(unions) - 1) if not self.star(unions[u])]
                for j, l in enumerate(levels, start=1):  # a single level has no interface
                    iface = interface_on_grid(dims, mask, i, l)
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
    for b in mask_bits(mask):
        images = list(map(or_, images, bit_images[b]))
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
    bit_images = [[1 << perm[b] for _, perm in symmetries] for b in range(math.prod(dims))]
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
