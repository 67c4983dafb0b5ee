"""Command-line front end.

Configuration files are minimal JSON: ``{"n": 3, "points": [[1,1,1], ...]}``
with 1-based integer levels and an optional parallel ``"labels"`` list.
Exit codes: 0 success, 1 harness assertion failure, 2 input error, 141
when stdout is closed before the output is written (128 + SIGPIPE); a
negative verdict never changes the exit code.

``enumerate`` is the cross-validation harness of ``acmpts.enumeration``:
this module parses its options, draws ``--random`` samples, and prints
the summary and the FAIL lines.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .constructions import (
    DirectionForm,
    LiaisonInput,
    add_layer,
    liaison_addition,
    verify_hf_additivity,
    verify_layer_hf,
)
from .errors import InputError
from .grid_model import GridPoint, PointSet, canonicalize, grid_cells, is_int
from .hilbert_function import HilbertTable, delta_table, hilbert_table
from .level_structure import inclusion_property, level_sets
# perfbench's tests patch ``cli.is_cm``; ``enumerate`` decides sets through
# its verdict table, so the patch no longer reaches the sweep.
from .reisner_oracle import first_cm_failure, is_cm  # noqa: F401
from .star_property import check_star, find_path, is_acm


@dataclass(frozen=True)
class ConfigurationFile:
    """Parsed configuration: raw points plus optional display labels."""

    points: tuple[GridPoint, ...]
    labels: tuple[str, ...] | None = None

    def point_set(self) -> PointSet:
        return canonicalize(self.points)


def _int_tuple(value: object, what: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, rejecting bools, floats and strings."""
    if (
        not isinstance(value, list)
        or (length is not None and len(value) != length)
        or not all(map(is_int, value))
    ):
        count = "" if length is None else f"{length} "
        raise InputError(f"bad {what} {value!r}; expected a list of {count}integers")
    return tuple(value)


def _object_of_pairs(pairs: list[tuple[str, object]], path: str | Path) -> dict:
    """A JSON object as a dict; a repeated key would otherwise keep its
    last value unnoticed."""
    repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise InputError(f"{path}: repeated key {repeated[0]!r}")
    return dict(pairs)


def _read_json_object(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=lambda pairs: _object_of_pairs(pairs, path))
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nested too deep
        raise InputError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return data


def _reject_unknown_keys(data: dict, allowed: tuple[str, ...], where: str) -> None:
    """A misspelled key would otherwise fall back to a default unnoticed."""
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise InputError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


def load_configuration(path: str | Path) -> ConfigurationFile:
    data = _read_json_object(path)
    _reject_unknown_keys(data, ("n", "points", "labels"), str(path))
    n = data.get("n")
    pts = data.get("points")
    if not is_int(n) or n < 1:
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


# An optional minus sign and ASCII digits, nothing else: bare ``int``
# would also take ``1_0``, spaces, ``+`` and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _parse_int(text: str | None, what: str) -> int | None:
    """An integer option's value, or None when the option is absent."""
    if text is None:
        return None
    if not _INTEGER.fullmatch(text):
        raise InputError(f"bad {what} {text!r}: expected an integer")
    return int(text)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(map(_INTEGER.fullmatch, parts)):
        raise InputError(f"bad {what} {text!r}: expected comma-separated integers")
    return tuple(map(int, parts))


def cmd_check(args: argparse.Namespace) -> int:
    cfg = load_configuration(args.file)
    X = cfg.point_set()
    star_level = _parse_int(args.star_level, "--star-level")
    top = star_level if star_level is not None else X.n
    if star_level is not None and X.n < 2:
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
    if len(T) == 1:
        row = " ".join(str(table.values[(t,)]) for t in range(T[0] + 1))
        print(f"{name}(t), t = 0..{T[0]}: {row}")
        return
    for prefix in itertools.product(*[range(Ti + 1) for Ti in T[:-2]]):
        head = "".join(f"{c}," for c in prefix)
        print(f"{name}({head}j,k), rows j = 0..{T[-2]}, columns k = 0..{T[-1]}:")
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
    # Canonical relabeling increases in every coordinate, so it keeps
    # lexicographic order and pairs the sorted file and canonical points.
    pairs = list(zip(sorted(set(cfg.points)), X.sorted_points()))
    to_canonical = dict(pairs)
    for u in (P, Q):
        if u not in to_canonical:
            raise InputError(f"endpoint {_fmt_point(u)} is not a point of {args.file}")
    to_file = {c: u for u, c in pairs}
    path = find_path(X, to_canonical[P], to_canonical[Q], X.n)
    print(" -> ".join(_fmt_point(to_file[p]) for p in path))
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
    if not isinstance(pts, list) or not is_int(direction) or not isinstance(fresh, bool):
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
    builders = {
        "liaison": (_construct_liaison, ("mode", "summands", "supports", "box")),
        "layer": (_construct_layer, ("mode", "points", "direction", "fresh", "box")),
    }
    mode = data.get("mode")
    if not isinstance(mode, str) or mode not in builders:
        raise InputError(f"{args.config}: 'mode' must be 'liaison' or 'layer'")
    build, keys = builders[mode]
    _reject_unknown_keys(data, keys, str(args.config))
    if args.out is None:
        _, ok = build(data)
    else:
        with _open_output(args.out) as out:
            Z, ok = build(data)
            _write_configuration(Z, out)
            print(f"wrote {out.name}")
    return 0 if ok else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    # Only this command needs the harness: importing it here keeps it out
    # of every other command, and of every import of this module.
    from .enumeration import write_report

    dims = _parse_int_list(args.grid, "grid")
    if any(r < 1 for r in dims):
        raise InputError("grid entries must be positive")
    cells = grid_cells(dims)
    ncells = len(cells)
    count = _parse_int(args.random, "--random")
    seed = _parse_int(args.seed, "--seed")
    if count is None:
        if seed is not None:
            raise InputError("--seed needs --random")
        if ncells > 27:
            raise InputError(f"exhaustive run over {ncells} cells exceeds the 27-cell cap")
        masks = range(1, 1 << ncells)
    else:
        if count < 1:
            raise InputError(f"--random {count}: need at least one configuration")
        if seed is None:
            raise InputError("--random requires --seed")
        rng = random.Random(seed)
        masks = [
            sum(1 << b for b in rng.sample(range(ncells), rng.randint(1, ncells)))
            for _ in range(count)
        ]

    with _open_output(args.out, newline="") as fh:
        acm_count, agree_count, failures = write_report(dims, masks, count is None, fh)
    grid_txt = "x".join(map(str, dims))
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
    p.add_argument("--star-level", default=None)
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
    p.add_argument("--random", default=None, metavar="N")
    p.add_argument("--seed", default=None)
    p.add_argument("--out", required=True, help="CSV report path")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: let the interpreter's final flush go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
