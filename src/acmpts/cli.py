"""Command-line front end and the enumeration cross-validation harness.

Configuration files are minimal JSON: ``{"n": 3, "points": [[1,1,1], ...]}``
with 1-based integer levels and an optional parallel ``"labels"`` list.
Exit codes: 0 success, 1 harness assertion failure, 2 input error; a
negative verdict never changes the exit code.

``enumerate`` evaluates one subset per orbit of the grid's symmetry group
(level permutations in every direction times permutations of directions
of equal length) and copies the verdicts to the other members.  This is
exact: a symmetry maps a subset to a subset whose canonical form is a
``relabel`` of the original's, and size, the star verdict and the
Reisner verdict are invariant under ``relabel``, while the inclusion
verdict moves with its direction.  The cross-checks are invariant in the
same way, so either no member of an orbit fails one or every member
does; members of a failing orbit are evaluated one by one, since FAIL
lines name member-specific ids, level masks and directions.  The report
is therefore the one a per-subset loop would write.  The group is built
only when it has no more elements than there are subsets to visit, and
is the identity otherwise.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from operator import or_
from pathlib import Path
from typing import NamedTuple, TextIO

from .constructions import (
    DirectionForm,
    LiaisonInput,
    add_layer,
    liaison_addition,
    verify_hf_additivity,
    verify_layer_hf,
)
from .errors import InputError
from .grid_model import GridPoint, PointSet, canonicalize
from .hilbert_function import HilbertTable, delta_table, hilbert_table
from .level_structure import inclusion_property, interface_set, level_sets
from .reisner_oracle import first_cm_failure, is_cm
from .star_property import check_star, find_path, is_acm


@dataclass(frozen=True)
class ConfigurationFile:
    """Parsed configuration: raw points plus optional display labels."""

    points: tuple[GridPoint, ...]
    labels: tuple[str, ...] | None = None

    def point_set(self) -> PointSet:
        return canonicalize(self.points)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_tuple(value: object, what: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, rejecting bools, floats and strings."""
    if (
        not isinstance(value, list)
        or (length is not None and len(value) != length)
        or not all(map(_is_int, value))
    ):
        count = "" if length is None else f"{length} "
        raise InputError(f"bad {what} {value!r}; expected a list of {count}integers")
    return tuple(value)


def _read_json_object(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nested too deep
        raise InputError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return data


def load_configuration(path: str | Path) -> ConfigurationFile:
    data = _read_json_object(path)
    n = data.get("n")
    pts = data.get("points")
    if not _is_int(n) or n < 1:
        raise InputError(f"{path}: 'n' must be a positive integer")
    if not isinstance(pts, list) or not pts:
        raise InputError(f"{path}: 'points' must be a nonempty list")
    points = [_int_tuple(p, f"{path}: point", n) for p in pts]
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(points) or not all(
            isinstance(s, str) for s in labels
        ):
            raise InputError(f"{path}: 'labels' must be strings parallel to 'points'")
        labels = tuple(labels)
    return ConfigurationFile(points=tuple(points), labels=labels)


def _write_configuration(X: PointSet, fh: TextIO) -> None:
    json.dump({"n": X.n, "points": [list(p) for p in X.sorted_points()]}, fh)
    fh.write("\n")


def save_configuration(X: PointSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_configuration(X, fh)


def _open_output(path: str, newline: str | None = None) -> TextIO:
    """Open an output file before any work, so a bad path is an input error."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from e


def _fmt_point(p: GridPoint) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as e:
        raise InputError(f"bad {what} {text!r}: expected comma-separated integers") from e


def cmd_check(args: argparse.Namespace) -> int:
    cfg = load_configuration(args.file)
    X = cfg.point_set()
    top = args.star_level if args.star_level is not None else X.n
    if args.star_level is not None and X.n < 2:
        raise InputError("star levels are undefined for a single direction")
    if X.n >= 2 and not 2 <= top <= X.n:
        raise InputError(f"star level {top} outside 2..{X.n}")
    dims = "x".join(map(str, X.dims))
    print(f"configuration: {X.size} points on grid {dims}")
    if cfg.labels:
        pairs = ", ".join(f"{lab}={_fmt_point(p)}" for lab, p in zip(cfg.labels, cfg.points))
        print(f"labels: {pairs}")
    if X.n >= 2:
        for s in range(2, top + 1):
            verdict, wits = check_star(X, s)
            if verdict:
                print(f"star_{s}: satisfied")
            else:
                w = wits[0]
                print(f"star_{s}: VIOLATED ({w.kind} P={_fmt_point(w.P)} Q={_fmt_point(w.Q)})")
    print(f"ACM: {_fmt_bool(is_acm(X))}")
    for i in range(1, X.n + 1):
        sizes = level_sets(X, i).sizes()
        if X.n >= 2:
            incl = _fmt_bool(inclusion_property(X, i))
            print(f"direction {i}: level sizes {sizes}; inclusion: {incl}")
        else:
            print(f"direction {i}: level sizes {sizes}")
    return 0


def _render_table(table: HilbertTable, name: str) -> None:
    T = table.box
    n = len(T)
    if n == 1:
        row = " ".join(str(table.values[(t,)]) for t in range(T[0] + 1))
        print(f"{name}(t), t = 0..{T[0]}: {row}")
        return
    prefixes = itertools.product(*[range(Ti + 1) for Ti in T[:-2]])
    for prefix in prefixes:
        if n > 2:
            head = ",".join(map(str, prefix))
            print(f"{name}({head},j,k), rows j = 0..{T[-2]}, columns k = 0..{T[-1]}:")
        else:
            print(f"{name}(j,k), rows j = 0..{T[-2]}, columns k = 0..{T[-1]}:")
        for j in range(T[-2] + 1):
            cells = [str(table.values[prefix + (j, k)]) for k in range(T[-1] + 1)]
            print("  " + " ".join(cells))


def cmd_hilbert(args: argparse.Namespace) -> int:
    cfg = load_configuration(args.file)
    X = cfg.point_set()
    box = _parse_int_list(args.box, "box")
    if args.delta:
        _render_table(delta_table(X, box), "delta_h")
    else:
        _render_table(hilbert_table(X, box), "h")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_configuration(args.file)
    X = cfg.point_set()
    failure = first_cm_failure(X)
    if failure is None:
        print("CM: true")
    else:
        face, degree, rank = failure
        face_str = "{" + ",".join(sorted(map(str, face))) + "}" if face else "empty"
        print(f"CM: false; link={face_str}, reduced homology degree {degree} rank {rank}")
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    cfg = load_configuration(args.file)
    X = cfg.point_set()
    P = _parse_int_list(getattr(args, "from"), "--from point")
    Q = _parse_int_list(args.to, "--to point")
    if len(P) != X.n or len(Q) != X.n:
        raise InputError(f"endpoints must have {X.n} coordinates")
    path = find_path(X, P, Q, X.n)
    print(" -> ".join(_fmt_point(p) for p in path))
    return 0


def _construct_liaison(data: dict) -> tuple[PointSet, bool]:
    summands = data.get("summands")
    supports = data.get("supports")
    if not isinstance(summands, list) or not isinstance(supports, list):
        raise InputError("liaison config needs 'summands' and 'supports' lists")
    if not all(isinstance(part, list) for part in summands):
        raise InputError("each liaison summand must be a list of points")
    parts = tuple(frozenset(_int_tuple(p, "summand point") for p in part) for part in summands)
    levels = [_int_tuple(sup, "support") for sup in supports]
    for sup in levels:
        if len(set(sup)) != len(sup):
            raise InputError(f"support {list(sup)} repeats a level")
    forms = tuple(
        DirectionForm(direction=i, support=frozenset(sup))
        for i, sup in enumerate(levels, start=1)
    )
    inp = LiaisonInput(summands=parts, forms=forms)
    box = _int_tuple(data["box"], "box", inp.n) if "box" in data else None
    result = liaison_addition(inp)
    Z = result.point_set
    ok = verify_hf_additivity(inp, Z, box)
    counts: dict[str, int] = {}
    for label in result.provenance.values():
        counts[label] = counts.get(label, 0) + 1
    parts_txt = ", ".join(f"{k}: {counts[k]} point(s)" for k in sorted(counts))
    print(f"liaison addition: {Z.size} points ({parts_txt})")
    box_txt = ",".join(map(str, box)) if box else "default"
    print(f"hf additivity: {'verified' if ok else 'FAILED'} on box ({box_txt})")
    return Z, ok


def _construct_layer(data: dict) -> tuple[PointSet, bool]:
    pts = data.get("points")
    direction = data.get("direction")
    fresh = data.get("fresh", True)
    if not isinstance(pts, list) or not _is_int(direction) or not isinstance(fresh, bool):
        raise InputError("layer config needs 'points', integer 'direction', boolean 'fresh'")
    X = canonicalize([_int_tuple(p, "layer point") for p in pts])
    box = _int_tuple(data["box"], "box", X.n) if "box" in data else (2,) * X.n
    Z = add_layer(X, direction, fresh)
    ok = verify_layer_hf(X, direction, box, fresh)
    print(f"layer construction: {X.size} points + {Z.size - X.size} layer points = {Z.size}")
    print(f"hf additivity: {'verified' if ok else 'FAILED'} on box ({','.join(map(str, box))})")
    return Z, ok


def cmd_construct(args: argparse.Namespace) -> int:
    data = _read_json_object(args.config)
    build = {"liaison": _construct_liaison, "layer": _construct_layer}.get(data.get("mode"))
    if build is None:
        raise InputError(f"{args.config}: 'mode' must be 'liaison' or 'layer'")
    if args.out is None:
        _, ok = build(data)
    else:
        with _open_output(args.out) as out:
            Z, ok = build(data)
            _write_configuration(Z, out)
            print(f"wrote {out.name}")
    return 0 if ok else 1


def _structure_failures(X: PointSet) -> list[str]:
    """Consequence checks for an ACM configuration: proper unions of its
    levels and interface sets must all be ACM.  Single levels and level
    complements are such unions, so each of them is checked once."""
    problems = []
    for i in range(1, X.n + 1):
        parts = [sorted(part) for _, part in level_sets(X, i).levels]
        t = len(parts)
        for mask in range(1, (1 << t) - 1):
            union = [p for k in range(t) if mask >> k & 1 for p in parts[k]]
            if not is_acm(canonicalize(union)):
                problems.append(f"union of levels mask={mask} direction={i} not ACM")
        if t >= 2:
            for j in range(1, t + 1):
                iface = interface_set(X, i, j)
                if iface.size and not is_acm(iface):
                    problems.append(f"interface of level {j} direction {i} not ACM")
    return problems


class _Verdicts(NamedTuple):
    """What one CSV row reports about a configuration, agreement aside."""

    size: int
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


def _evaluate(X: PointSet) -> tuple[_Verdicts, list[str]]:
    """Every verdict and cross-check of ``enumerate`` for one configuration."""
    star = is_acm(X)
    cm = is_cm(X)
    incl = tuple(inclusion_property(X, i) for i in range(1, X.n + 1)) if X.n >= 2 else ()
    problems = []
    if star != cm:
        problems.append(f"star={star} but reisner={cm}")
    if star:
        problems.extend(_structure_failures(X))
    elif any(incl):
        problems.append("inclusion holds but configuration is not ACM")
    return _Verdicts(X.size, star, cm, incl), problems


def _grid_symmetries(
    dims: tuple[int, ...], limit: int
) -> list[tuple[tuple[int, ...], list[int]]]:
    """The grid's symmetry group as (direction permutation, cell permutation)
    pairs, or only the identity when the group has more than ``limit``
    elements.

    The group permutes the levels of every direction and the directions of
    equal length.  In a pair, new direction ``k`` is old direction
    ``dperm[k]`` (0-based, as in ``relabel``), and cell ``b`` of the
    lexicographically sorted cell list goes to cell ``perm[b]``.
    """
    n = len(dims)
    order = math.prod(math.factorial(r) for r in dims) * math.prod(
        math.factorial(c) for c in Counter(dims).values()
    )
    if order > limit:
        return [(tuple(range(n)), list(range(math.prod(dims))))]
    cells = list(itertools.product(*[range(r) for r in dims]))
    index = {cell: b for b, cell in enumerate(cells)}
    return [
        (dperm, [index[tuple(lperms[d][cell[d]] for d in dperm)] for cell in cells])
        for dperm in itertools.permutations(range(n))
        if all(dims[d] == r for d, r in zip(dperm, dims))
        for lperms in itertools.product(*[itertools.permutations(range(r)) for r in dims])
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


def cmd_enumerate(args: argparse.Namespace) -> int:
    dims = _parse_int_list(args.grid, "grid")
    if any(r < 1 for r in dims):
        raise InputError("grid entries must be positive")
    cells = sorted(itertools.product(*[range(1, r + 1) for r in dims]))
    ncells = len(cells)
    if args.random is None:
        if args.seed is not None:
            raise InputError("--seed needs --random")
        if ncells > 27:
            raise InputError(f"exhaustive run over {ncells} cells exceeds the 27-cell cap")
        masks = targets = range(1, 1 << ncells)
    else:
        if args.random < 1:
            raise InputError(f"--random {args.random}: need at least one configuration")
        if args.seed is None:
            raise InputError("--random requires --seed")
        rng = random.Random(args.seed)
        masks = [
            sum(1 << b for b in rng.sample(range(ncells), rng.randint(1, ncells)))
            for _ in range(args.random)
        ]
        # Images that are never visited are not recorded, so the table
        # stays within the sample's size.
        targets = set(masks)

    grid_txt = "x".join(map(str, dims))
    failures: list[str] = []
    acm_count = agree_count = 0
    with _open_output(args.out, newline="") as fh:
        symmetries = _grid_symmetries(dims, len(masks))
        dperms = [dperm for dperm, _ in symmetries]
        distinct_dperms = set(dperms)
        bit_images = [[1 << perm[b] for _, perm in symmetries] for b in range(ncells)]
        # Verdicts of masks still to visit whose orbit is decided.
        known: dict[int, _Verdicts] = {}
        writer = csv.writer(fh)
        writer.writerow(["grid", "id", "size", "star_acm", "reisner_cm", "inclusion", "agree"])
        for mask in masks:
            verdicts = known.pop(mask, None)
            if verdicts is None:
                X = canonicalize([cells[b] for b in range(ncells) if mask >> b & 1])
                verdicts, problems = _evaluate(X)
                failures.extend(f"id={mask}: {problem}" for problem in problems)
                if not problems:
                    moved = {dperm: verdicts.permuted(dperm) for dperm in distinct_dperms}
                    for image, dperm in zip(_orbit_images(mask, bit_images), dperms):
                        if image != mask and image in targets:
                            known[image] = moved[dperm]
            agree = verdicts.star_acm == verdicts.reisner_cm
            agree_count += agree
            acm_count += verdicts.star_acm
            writer.writerow([
                grid_txt, mask, verdicts.size, _fmt_bool(verdicts.star_acm),
                _fmt_bool(verdicts.reisner_cm), ";".join(map(_fmt_bool, verdicts.inclusion)),
                _fmt_bool(agree),
            ])

    print(
        f"grid {grid_txt}: {len(masks)} configurations, {acm_count} ACM, "
        f"star/reisner agreement {agree_count}/{len(masks)}"
    )
    for message in failures:
        print(f"FAIL {message}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acmpts",
        description="Decide and explore the ACM property of grid point configurations in (P^1)^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="star levels, ACM verdict, level sizes, inclusion")
    p.add_argument("file")
    p.add_argument("--star-level", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hilbert", help="Hilbert function or first-difference table")
    p.add_argument("file")
    p.add_argument("--box", required=True, help="comma-separated box corner, e.g. 3,3,3")
    p.add_argument("--delta", action="store_true")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("oracle", help="Reisner-criterion Cohen-Macaulay verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("path", help="unit-step chain between two configuration points")
    p.add_argument("file")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("construct", help="liaison addition or layer construction")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="exhaustive or random cross-validation harness")
    p.add_argument("--grid", required=True, help="comma-separated level counts, e.g. 2,2,2")
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV report path")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
