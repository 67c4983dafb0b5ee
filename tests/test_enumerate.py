"""``acmpts enumerate`` against a reference loop, and the symmetry premise.

The harness decides each orbit of the grid's symmetry group once and
copies the verdicts to the other members.  The reference loop here makes
one direct ``is_acm`` / ``is_cm`` / ``inclusion_property`` call per
subset, so any slip in the orbit bookkeeping (a wrong image, a direction
permutation applied the wrong way round) shows as a differing row.
"""

import csv
import functools
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import acmpts
from acmpts import enumeration, relabel
from acmpts.cli import main
from acmpts.grid_model import canonicalize
from acmpts.level_structure import inclusion_property
from acmpts.reisner_oracle import is_cm
from acmpts.star_property import is_acm
from conftest import STAR_BLIND_EIGHT
from structure_reference import cross_check_failures


def grid_cells(dims):
    return sorted(itertools.product(*[range(1, r + 1) for r in dims]))


def subset(cells, mask):
    return [c for b, c in enumerate(cells) if mask >> b & 1]


def bitmask(cells, points):
    return sum(1 << b for b, c in enumerate(cells) if c in points)


def random_masks(dims, count, seed):
    """The masks ``enumerate --random count --seed seed`` draws."""
    cells = grid_cells(dims)
    rng = random.Random(seed)
    masks = []
    for _ in range(count):
        k = rng.randint(1, len(cells))
        masks.append(bitmask(cells, set(rng.sample(cells, k))))
    return masks


@functools.cache
def verdicts_of(X):
    """(size, is_acm, is_cm, inclusion per direction) of one configuration."""
    incl = tuple(inclusion_property(X, i) for i in range(1, X.n + 1)) if X.n >= 2 else ()
    return X.size, is_acm(X), is_cm(X), incl


def direct_verdicts(dims, mask):
    return verdicts_of(canonicalize(subset(grid_cells(dims), mask)))


def reference_report(dims, masks):
    """CSV rows and summary line of ``enumerate``, one evaluation per subset."""
    fmt = {True: "true", False: "false"}.get
    grid = "x".join(map(str, dims))
    rows = []
    acm = agree = 0
    for mask in masks:
        size, star, cm, incl = direct_verdicts(dims, mask)
        acm += star
        agree += star == cm
        rows.append([grid, str(mask), str(size), fmt(star), fmt(cm),
                     ";".join(map(fmt, incl)), fmt(star == cm)])
    summary = (f"grid {grid}: {len(masks)} configurations, {acm} ACM, "
               f"star/reisner agreement {agree}/{len(masks)}")
    return rows, summary


def run_enumerate(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    code = main(["enumerate", *argv, "--out", str(out)])
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["grid", "id", "size", "star_acm", "reisner_cm", "inclusion", "agree"]
    return code, rows[1:], capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "dims, argv, masks",
    [
        ((2, 2, 3), ["--grid", "2,2,3"], range(1, 1 << 12)),
        # 3-cycles of directions: a forward/inverse mix-up of the
        # inclusion permutation shows here, not on 2x2x3.
        ((2, 2, 2), ["--grid", "2,2,2"], range(1, 1 << 8)),
        # 500 draws >= 384 group elements, so the group is used.
        ((2, 2, 2, 2), ["--grid", "2,2,2,2", "--random", "500", "--seed", "3"],
         random_masks((2, 2, 2, 2), 500, 3)),
    ],
    ids=["2x2x3", "2x2x2", "random-2x2x2x2"],
)
def test_enumerate_matches_reference_loop(tmp_path, capsys, dims, argv, masks):
    code, rows, stdout = run_enumerate(tmp_path, capsys, argv)
    expected_rows, summary = reference_report(dims, masks)
    assert code == 0
    assert rows == expected_rows
    assert stdout == [summary]


# sha256 of the CSV bytes and of stdout of nine fast reports: any change
# to a report's bytes, the masks ``--random`` draws included, shows here.
REPORT_DIGESTS = {
    "6": ("0188b0bb8c1ac206f602d6c4d78e6c19bb0fbc3843948ce08da8cebabb6a306f",
          "39bb82b3fbd443eeda0d5ae8eea0cc700f0f32b1f03b010f91bb341a7a9a675b"),
    "2,2": ("949a61d2c545fdfba9d283e01d3851f9d9f2f7e57cb397684fb8e69c760a1602",
            "8f02516e4713f4ead9f8d7d4126fd487966cb1b209aba2ee94fae2a926ad6083"),
    "2,3": ("9ae15d7f5f051f385996a42090326b974c2d252e0c7418bc092c6a569872a7a3",
            "c1d31f7830a14b0dd8cc82c6338e6a1024744c92c83dd0c2e39a265e873df2c8"),
    "3,3": ("7a9f641b87ab32ee239e49f3b9950984c545511d2e7fefa259da6f6e15a62219",
            "846489b7eea42bea500f5e23d401a265f6045ef3ae4806705e8e81b75cfd66bf"),
    "2,2,2": ("fc18f6d5c9edddd922b64445d4a47a29eec0f50a05cfa478db3bbd9b1a93aca4",
              "bc3c7836802acf5944ea4556b98c20022bf0a9978a9bc9a338aaf3dca4a1f9e5"),
    "2,2,3": ("7858c11c31f8d0cee67788696c3188f54704347ea6ce43762505467081220564",
              "02184393242d891a3132c7a10440e35a77ff58c9117cd1ceaf2af60c05944bca"),
    "1,3,2": ("b9ef6ad7c5de0d096a9cf2c2d67d1e5f8f277e54b76cf7e1868be19252c2fc6d",
              "146d8e9fb8232f909624c6a5c3daf6ae87504a84686f5a8f7131cc6cf972c600"),
    "3,2,2": ("0c39fa395ac84bac3f22cdcc0ddbcacc1c3c9846b43151f2340ab684a3c2b3c0",
              "0a0ca9444de07bf17fa7ce3b3ece27c89bce56609252e1b56a42eb1b515cd336"),
    "2,2,2 --random 200 --seed 5": (
        "a82be37b33dc9ddba08a81aaa335643e18b459ca27a0efb416906c065c7044e3",
        "fb77c3a055910e28f1b497094b789f4dc6e8172d6cbad9ab378cd069404c7b0e"),
}


@pytest.mark.parametrize("grid", list(REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, capsys, grid):
    out = tmp_path / "report.csv"
    assert main(["enumerate", "--grid", *grid.split(), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    digests = hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(stdout).hexdigest()
    assert digests == REPORT_DIGESTS[grid]


def level_transpositions(dims):
    """Adjacent level transpositions, one direction at a time: with them
    every level permutation of every direction is generated."""
    for i, r in enumerate(dims):
        for j in range(1, r):
            perms = [list(range(1, s + 1)) for s in dims]
            perms[i][j - 1], perms[i][j] = j + 1, j
            yield perms


@pytest.mark.parametrize(
    "dims, direction_perms",
    [((2, 2, 2), [(2, 1, 3), (2, 3, 1)]), ((2, 2, 3), [(2, 1, 3)])],
    ids=["2x2x2", "2x2x3"],
)
def test_verdicts_invariant_under_relabel(dims, direction_perms):
    """The premise of orbit reduction: star and Reisner verdicts are
    invariant under the grid's symmetries, and inclusion moves with the
    direction it is taken in.  A generating set of the group suffices:
    level transpositions in every direction, a direction transposition
    and, on 2x2x2, a 3-cycle of directions."""
    cells = grid_cells(dims)
    verdicts = {}
    for mask in range(1, 1 << len(cells)):
        verdicts[canonicalize(subset(cells, mask))] = direct_verdicts(dims, mask)
    for X, (size, star, cm, incl) in verdicts.items():
        for dperm in direction_perms:
            Y = relabel(X, direction_perm=dperm)
            assert verdicts[Y] == (size, star, cm, tuple(incl[d - 1] for d in dperm))
        for lperms in level_transpositions(X.dims):
            Y = relabel(X, level_perms=lperms)
            assert verdicts[Y] == (size, star, cm, incl)


def blind_orbit():
    """The masks on 2x2x2x2 of the 24 relabelings of the star-blind eight points."""
    cells = grid_cells((2, 2, 2, 2))
    X = canonicalize(STAR_BLIND_EIGHT)
    return {
        bitmask(cells, relabel(X, dperm, lperms).points)
        for dperm in itertools.permutations(range(1, 5))
        for lperms in itertools.product([(1, 2), (2, 1)], repeat=4)
    }


def test_exhaustive_2x2x2x2_disagrees_on_star_blind_orbit(tmp_path, capsys):
    """Every subset of 2x2x2x2.  The star criterion still accepts the 24
    relabelings of the star-blind eight points, which are not
    Cohen-Macaulay; every other subset agrees."""
    orbit = blind_orbit()
    assert len(orbit) == 24
    code, rows, stdout = run_enumerate(tmp_path, capsys, ["--grid", "2,2,2,2"])
    assert code == 1
    assert stdout[0].startswith("grid 2x2x2x2: 65535 configurations, ")
    assert stdout[0].endswith(" ACM, star/reisner agreement 65511/65535")
    assert [int(row[1]) for row in rows] == list(range(1, 1 << 16))
    assert {int(row[1]) for row in rows if row[6] != "true"} == orbit
    failing = {int(line.split()[1].removeprefix("id=").rstrip(":")) for line in stdout[1:]}
    assert failing == orbit
    assert all(line.startswith("FAIL id=") for line in stdout[1:])


def test_exhaustive_2x2x2x2_report_is_pinned(tmp_path, capsys):
    """The one tier-1 report where the structure checks fire: every FAIL
    line in order, 24 star/Reisner mismatches and 192 interface
    failures, all on the star-blind orbit, and the CSV bytes."""
    out = tmp_path / "report.csv"
    assert main(["enumerate", "--grid", "2,2,2,2", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out.splitlines()
    interfaces = [f"interface of level {j} direction {i} not ACM"
                  for i in range(1, 5) for j in (1, 2)]
    expected = [
        f"FAIL id={mask}: {problem}"
        for mask in sorted(blind_orbit())
        for problem in ["star=True but reisner=False", *interfaces]
    ]
    assert len(expected) == 216
    assert stdout == [
        "grid 2x2x2x2: 65535 configurations, 5553 ACM, star/reisner agreement 65511/65535",
        *expected,
    ]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6d54940e49785ea9a6ed4472f7124c3d2b131eb6cb0c3d019ae0182b37cf6be5")


def test_random_2x2x2x2_fail_lines_match_direct_cross_checks(tmp_path, capsys):
    """A sample that draws two star-blind members (draws 156 and 609), so
    the structure checks run on submasks the sample never visits.  The
    rows and every FAIL line, in draw order, match a per-draw loop over
    the direct cross-checks of ``structure_reference``."""
    dims, cells = (2, 2, 2, 2), grid_cells((2, 2, 2, 2))
    masks = random_masks(dims, 700, 279)
    blind = blind_orbit()
    assert [k for k, mask in enumerate(masks) if mask in blind] == [156, 609]
    code, rows, stdout = run_enumerate(
        tmp_path, capsys, ["--grid", "2,2,2,2", "--random", "700", "--seed", "279"])
    expected_rows, summary = reference_report(dims, masks)
    failures = functools.cache(cross_check_failures)
    expected = [
        f"FAIL id={mask}: {problem}"
        for mask in masks
        for problem in failures(canonicalize(subset(cells, mask)))
    ]
    assert len(expected) == 18
    assert code == 1
    assert rows == expected_rows
    assert stdout == [summary, *expected]


def test_exhaustive_3x3x2_agrees(tmp_path, capsys):
    code, rows, stdout = run_enumerate(tmp_path, capsys, ["--grid", "3,3,2"])
    assert code == 0
    assert len(rows) == 262143
    assert stdout == [stdout[0]]
    assert stdout[0].endswith("star/reisner agreement 262143/262143")
    assert all(row[6] == "true" for row in rows)


def test_exhaustive_3x3x2_table_stays_small():
    """The verdict table holds one byte per mask (256 KB on 3x3x2).  A
    fresh process reports its peak resident memory after importing the
    package and after ``enumerate --grid 3,3,2``: the run adds about
    0.7 MB on Linux, where a dict of decided masks added about 22 MB
    (38.3 MB peak).  Linux counts the peak of the image a process forked
    from in its ``ru_maxrss``, so the measured process is started from a
    small intermediate one, not from the test process."""
    script = (
        "import os, resource\n"
        "from acmpts.cli import main\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = main(['enumerate', '--grid', '3,3,2', '--out', os.devnull])\n"
        "print(code, base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    launch = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"
    env = {**os.environ, "PYTHONPATH": str(Path(acmpts.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", launch, script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("star/reisner agreement 262143/262143")
    code, base, peak = map(int, lines[-1].split())
    kib = 1024 if sys.platform == "darwin" else 1  # ru_maxrss is in bytes there
    assert code == 0
    assert (peak - base) // kib < 4 * 1024, (base, peak)


@pytest.mark.parametrize(
    "argv, masks, order",
    [
        (["--grid", "6,6,6", "--random", "3", "--seed", "1"], 3, 1),
        (["--grid", "12"], 4095, 1),  # 12! elements
        (["--grid", "4"], 15, 1),  # 4! = 24 > 15
        (["--grid", "3"], 7, 6),
        (["--grid", "2,2,3"], 4095, 48),
    ],
    ids=["6x6x6-random", "12", "4", "3", "2x2x3"],
)
def test_group_is_built_only_when_smaller_than_mask_count(tmp_path, capsys, monkeypatch,
                                                          argv, masks, order):
    built = []

    def counting(dims, limit):
        elements = grid_symmetries(dims, limit)
        built.append((limit, len(elements)))
        return elements

    grid_symmetries = enumeration._grid_symmetries
    monkeypatch.setattr(enumeration, "_grid_symmetries", counting)
    code, rows, stdout = run_enumerate(tmp_path, capsys, argv)
    assert code == 0
    assert built == [(masks, order)]
    if argv == ["--grid", "12"]:
        expected_rows, summary = reference_report((12,), range(1, 1 << 12))
        assert (rows, stdout) == (expected_rows, [summary])


def test_enumerate_decides_without_canonical_forms(tmp_path, capsys, monkeypatch):
    """``enumerate`` decides on cell masks of its run's grid and never
    canonicalizes a subset: with ``canonicalize`` raising in every
    ``acmpts`` module, an exhaustive 2x2x3 run and a seeded 2x2x2x2 sample
    still write their pinned reports."""
    masks = random_masks((2, 2, 2, 2), 500, 3)
    expected_rows, summary = reference_report((2, 2, 2, 2), masks)

    def refuse(raw):
        raise AssertionError("enumerate built a canonical PointSet")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "acmpts" and hasattr(module, "canonicalize"):
            monkeypatch.setattr(module, "canonicalize", refuse)
    out = tmp_path / "report.csv"
    assert main(["enumerate", "--grid", "2,2,3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    digests = hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(stdout).hexdigest()
    assert digests == REPORT_DIGESTS["2,2,3"]
    code, rows, stdout = run_enumerate(
        tmp_path, capsys, ["--grid", "2,2,2,2", "--random", "500", "--seed", "3"])
    assert (code, rows, stdout) == (0, expected_rows, [summary])


def test_random_redraw_of_a_failing_mask_fails_again():
    """A ``--random`` table stores no failing mask, so drawing one twice
    prints its FAIL lines twice, as a per-draw loop does."""
    cells = grid_cells((2, 2, 2, 2))
    mask = min(blind_orbit())
    expected = cross_check_failures(canonicalize(subset(cells, mask)))
    acm, agree, failures = enumeration.write_report((2, 2, 2, 2), [mask, mask], False, io.StringIO())
    assert (acm, agree) == (2, 0)
    assert failures == [f"id={mask}: {problem}" for problem in expected] * 2


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 3), (2, 2, 2, 2)], ids=["2x2x3", "3x3", "2x2x2x2"])
def test_structure_checks_read_every_level_union_and_interface(tmp_path, monkeypatch, dims):
    """No union check fails on these grids, so the reports cannot show a
    union or interface that is skipped or built wrong.  The submasks each
    ACM representative looks up, in order, must be its proper level
    unions and then its nonempty interface sets, direction by direction,
    here built from sets of cells and their shadows."""
    cells = grid_cells(dims)
    queried = {}
    evaluate, star = enumeration._Sweep.evaluate, enumeration._Sweep.star

    def recording_evaluate(self, mask):
        queried[mask] = []
        self.current = mask
        return evaluate(self, mask)

    def recording_star(self, mask):
        queried[self.current].append(mask)
        return star(self, mask)

    monkeypatch.setattr(enumeration._Sweep, "evaluate", recording_evaluate)
    monkeypatch.setattr(enumeration._Sweep, "star", recording_star)
    main(["enumerate", "--grid", ",".join(map(str, dims)), "--out", str(tmp_path / "r.csv")])
    checked = 0
    for mask, subs in queried.items():
        points = subset(cells, mask)
        if not is_acm(canonicalize(points)):
            assert subs == []
            continue
        expected = []
        for i in range(len(dims)):
            parts = [[p for p in points if p[i] == level]
                     for level in sorted({p[i] for p in points})]
            for u in range(1, (1 << len(parts)) - 1):
                expected.append(bitmask(cells, {p for k, part in enumerate(parts)
                                                if u >> k & 1 for p in part}))
            for part in parts:
                shadow = {p[:i] + p[i + 1:] for p in part}
                iface = {p for p in points if p not in part and p[:i] + p[i + 1:] in shadow}
                if iface:
                    expected.append(bitmask(cells, iface))
        assert subs == expected, mask
        checked += 1
    assert checked > 0
