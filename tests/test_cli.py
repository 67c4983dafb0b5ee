import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from acmpts import canonicalize, fixture_path, grid_model
from acmpts.cli import _write_configuration, load_configuration, main
from acmpts.errors import InputError
from conftest import ELEVEN_POINTS, SIX_POINTS, STAR_BLIND_EIGHT


def write_config(tmp_path, name, n, points, labels=None):
    data = {"n": n, "points": [list(p) for p in points]}
    if labels:
        data["labels"] = labels
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    config = str(fixture_path("liaison_eleven_config.json"))
    assert main(["construct", config, "--out", str(path)]) == 0
    assert load_configuration(path).point_set() == canonicalize(ELEVEN_POINTS)
    # serializing the parsed canonical file reproduces it byte for byte
    again = io.StringIO()
    _write_configuration(load_configuration(path).point_set(), again)
    assert again.getvalue().encode("utf-8") == path.read_bytes()


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(InputError):
        load_configuration(bad)
    with pytest.raises(InputError):
        load_configuration(write_config(tmp_path, "b2.json", 2, [(1, "x")]))
    with pytest.raises(InputError):
        load_configuration(write_config(tmp_path, "b3.json", 0, [(1,)]))
    with pytest.raises(InputError):
        load_configuration(tmp_path / "missing.json")


def test_check_six_points(tmp_path, capsys):
    path = write_config(tmp_path, "six.json", 3, SIX_POINTS)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "star_2: satisfied" in out
    assert "star_3: VIOLATED (type-ii P=(1,1,1) Q=(2,2,2))" in out
    assert "ACM: false" in out
    assert "inclusion: false" in out


def test_check_eleven_points_fixture(capsys):
    assert main(["check", str(fixture_path("liaison_eleven.json"))]) == 0
    out = capsys.readouterr().out
    assert "ACM: true" in out
    assert out.count("inclusion: false") == 3


def test_check_single_point(tmp_path, capsys):
    path = write_config(tmp_path, "one.json", 2, [(1, 1)])
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ACM: true" in out


def test_check_star_level_flag(tmp_path, capsys):
    path = write_config(tmp_path, "six.json", 3, SIX_POINTS)
    assert main(["check", str(path), "--star-level", "2"]) == 0
    out = capsys.readouterr().out
    assert "star_2" in out and "star_3" not in out
    assert main(["check", str(path), "--star-level", "7"]) == 2


def test_check_parse_error_exit_code(tmp_path, capsys):
    """Broken JSON, a byte that is not UTF-8 and nesting past the
    recursion limit are input errors for both commands that read JSON."""
    inputs = {
        "bad.json": b"{",
        "latin1.json": b'{"n": 1, "points": [[1]], "labels": ["\xff"]}',
        "deep.json": b'{"n": 1, "points": ' + b"[" * 200000 + b"]" * 200000 + b"}",
    }
    for name, content in inputs.items():
        bad = tmp_path / name
        bad.write_bytes(content)
        for command in ("check", "construct"):
            assert main([command, str(bad)]) == 2
            assert "InputError" in capsys.readouterr().err


def test_hilbert_delta_rendering(capsys):
    path = str(fixture_path("liaison_eleven.json"))
    assert main(["hilbert", path, "--box", "3,3,3", "--delta"]) == 0
    out = capsys.readouterr().out
    assert "delta_h(0,j,k)" in out
    assert "  1 1 1 0" in out
    assert "  1 1 0 0" in out


def test_hilbert_plain_table(tmp_path, capsys):
    path = write_config(tmp_path, "one.json", 2, [(1, 1)])
    assert main(["hilbert", str(path), "--box", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "h(j,k)" in out
    assert "  1 1 1" in out


def test_hilbert_plain_table_reaches_configuration_size(capsys):
    path = str(fixture_path("liaison_eleven.json"))
    assert main(["hilbert", path, "--box", "3,3,3"]) == 0
    out = capsys.readouterr().out
    assert "h(0,j,k)" in out
    assert out.rstrip().splitlines()[-1] == "  6 10 11 11"


def test_hilbert_bad_box(tmp_path, capsys):
    path = write_config(tmp_path, "one.json", 2, [(1, 1)])
    assert main(["hilbert", str(path), "--box", "2"]) == 2
    assert main(["hilbert", str(path), "--box", "a,b"]) == 2


def test_oracle(tmp_path, capsys):
    assert main(["oracle", str(fixture_path("liaison_eleven.json"))]) == 0
    assert "CM: true" in capsys.readouterr().out
    pair = write_config(tmp_path, "pair.json", 2, [(1, 1), (2, 2)])
    assert main(["oracle", str(pair)]) == 0
    out = capsys.readouterr().out
    assert "CM: false" in out and "degree 0 rank 1" in out
    single = write_config(tmp_path, "one.json", 3, [(1, 1, 1)])
    assert main(["oracle", str(single)]) == 0
    assert "CM: true" in capsys.readouterr().out


def test_path_command(capsys):
    path = str(fixture_path("liaison_eleven.json"))
    assert main(["path", path, "--from", "1,1,1", "--to", "2,2,2"]) == 0
    assert capsys.readouterr().out.strip() == "(1,1,1) -> (2,1,1) -> (2,1,2) -> (2,2,2)"


def test_path_endpoints_are_file_points(tmp_path, capsys):
    # Direction 2 has levels 1 and 3 in the file, 1 and 2 canonically.
    path = write_config(tmp_path, "gapped.json", 2, [(1, 1), (2, 3), (3, 3), (1, 3)])
    assert main(["path", str(path), "--from", "2,3", "--to", "3,3"]) == 0
    assert capsys.readouterr().out == "(2,3) -> (3,3)\n"


def test_path_preconditions_exit_two(tmp_path, capsys):
    pair = write_config(tmp_path, "pair.json", 2, [(1, 1), (2, 2)])
    assert main(["path", str(pair), "--from", "1,1", "--to", "2,2"]) == 2


def test_construct_liaison(tmp_path, capsys):
    out_file = tmp_path / "z.json"
    config = str(fixture_path("liaison_eleven_config.json"))
    assert main(["construct", config, "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert "11 points" in printed
    assert "hf additivity: verified on box (3,3,3)" in printed
    assert load_configuration(out_file).point_set() == canonicalize(ELEVEN_POINTS)


def test_construct_liaison_rejects_bad_support(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps(
            {
                "mode": "liaison",
                "summands": [[[1, 1, 1]], [[2, 2, 2]], [[3, 3, 3]]],
                "supports": [[1], [1, 3], [1, 2]],
            }
        ),
        encoding="utf-8",
    )
    assert main(["construct", str(config)]) == 2
    assert "VanishingConditionViolated" in capsys.readouterr().err


def test_construct_layer(tmp_path, capsys):
    config = tmp_path / "layer.json"
    config.write_text(
        json.dumps({"mode": "layer", "points": [[1, 1]], "direction": 1}),
        encoding="utf-8",
    )
    out_file = tmp_path / "z.json"
    assert main(["construct", str(config), "--out", str(out_file)]) == 0
    assert load_configuration(out_file).point_set() == canonicalize([(1, 1), (2, 1)])
    printed = capsys.readouterr().out
    assert "hf additivity: verified" in printed


def test_enumerate_exhaustive(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    assert main(["enumerate", "--grid", "2,2", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "grid,id,size,star_acm,reisner_cm,inclusion,agree"
    assert len(lines) == 16  # header + 15 subsets
    assert all(line.endswith("true") for line in lines[1:])
    summary = capsys.readouterr().out
    assert "15 configurations" in summary
    assert "agreement 15/15" in summary


def test_enumerate_two_cube(tmp_path, capsys):
    out_csv = tmp_path / "cube.csv"
    assert main(["enumerate", "--grid", "2,2,2", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 256  # header + 255 subsets
    summary = capsys.readouterr().out
    assert "255 configurations" in summary
    assert "agreement 255/255" in summary


def test_enumerate_deterministic_random(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["enumerate", "--grid", "2,2,2", "--random", "25", "--seed", "7", "--out", str(a)]) == 0
    assert main(["enumerate", "--grid", "2,2,2", "--random", "25", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_error_exits(tmp_path, capsys):
    assert main(["enumerate", "--grid", "4,4,2", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["enumerate", "--grid", "3,3", "--random", "5", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["enumerate", "--grid", "0,2", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["enumerate", "--grid", "2,2", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
    for count in ("0", "-3"):
        args = ["enumerate", "--grid", "2,2", "--random", count, "--seed", "1"]
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 2
    assert "agreement" not in capsys.readouterr().out


def test_exhaustive_cap_is_checked_before_any_cell_is_built(tmp_path, capsys, monkeypatch):
    """A 5000x5000 grid has 25M cells: the cap answers from the cell count,
    without listing them (which ended in a MemoryError under an 800 MB
    address-space limit)."""

    def no_cells(dims):
        raise AssertionError(f"the cells of {dims} were built")

    monkeypatch.setattr(grid_model, "cell_table", no_cells)
    monkeypatch.setattr(grid_model, "grid_cells", no_cells)
    start = time.perf_counter()
    assert main(["enumerate", "--grid", "5000,5000", "--out", str(tmp_path / "x.csv")]) == 2
    assert time.perf_counter() - start < 1
    assert "exhaustive run over 25000000 cells exceeds the 27-cell cap" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


ELEVEN_FILE = str(fixture_path("liaison_eleven.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", ELEVEN_FILE, "--box", "1_0,0,0"],
        ["hilbert", ELEVEN_FILE, "--box", "3,3,\u0663"],  # Arabic-Indic three
        ["hilbert", ELEVEN_FILE, "--box", "3, 3,3"],
        ["hilbert", ELEVEN_FILE, "--box", "+3,3,3"],
        ["hilbert", ELEVEN_FILE, "--box", "3,3,3,"],
        ["path", ELEVEN_FILE, "--from", "1,1,1", "--to", "2,2,\uff12"],  # fullwidth two
        ["check", ELEVEN_FILE, "--star-level", "\u0663"],
        ["check", ELEVEN_FILE, "--star-level", "3.0"],
        ["enumerate", "--grid", "2_2"],
        ["enumerate", "--grid", "2,2", "--random", "\u0661", "--seed", "1"],
        ["enumerate", "--grid", "2,2", "--random", "five", "--seed", "1"],
        ["enumerate", "--grid", "2,2", "--random", "5", "--seed", "1_1"],
        ["enumerate", "--grid", "2,2", "--random", "5", "--seed", " 1"],
    ],
)
def test_integer_arguments_are_ascii_digits_only(tmp_path, capsys, argv):
    """Bare ``int`` would read ``1_0`` as 10 and ``\u0663`` as 3."""
    out = tmp_path / "x.csv"
    if argv[0] == "enumerate":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InputError: bad ")
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/out", "."])
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--grid", "2,2"],
        ["construct", str(fixture_path("liaison_eleven_config.json"))],
    ],
    ids=["enumerate", "construct"],
)
def test_unwritable_out_exits_two(tmp_path, capsys, argv, target):
    """A missing directory or a directory as --out is refused before any work."""
    assert main(argv + ["--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InputError: cannot write ")


ELEVEN_LIAISON = {
    "mode": "liaison",
    "summands": [[[1, 1, 1]], [[2, 2, 2]], [[3, 3, 3]]],
    "supports": [[2, 3], [1, 3], [1, 2]],
}
LAYER = {"mode": "layer", "points": [[1, 1, 1], [2, 1, 1]], "direction": 1}


@pytest.mark.parametrize(
    "command, data",
    [
        ("construct", {**LAYER, "fresh": "false"}),
        ("construct", {**LAYER, "direction": True}),
        ("check", {"n": True, "points": [[1]]}),
        ("construct", {**ELEVEN_LIAISON, "summands": [[[1.7, 1, 1]], [[2, 2, 2]], [[3, 3, 3]]]}),
        ("construct", {**ELEVEN_LIAISON, "supports": [[2, 3.0], [1, 3], [1, 2]]}),
        ("construct", {**ELEVEN_LIAISON, "summands": [5, [[2, 2, 2]], [[3, 3, 3]]]}),
        ("construct", {**ELEVEN_LIAISON, "box": 5}),
        ("construct", {**ELEVEN_LIAISON, "box": ["x"]}),
        ("construct", {**LAYER, "box": 5}),
        ("construct", {**LAYER, "box": ["x"]}),
        ("construct", {**LAYER, "box": [2]}),
        ("construct", {**LAYER, "box": []}),
        ("construct", {**LAYER, "box": [-1, 2, 2]}),
        ("construct", {**LAYER, "points": [[1, True, 1]]}),
        ("construct", {"mode": "other"}),
        ("construct", {**ELEVEN_LIAISON, "supports": [[2, 3, 3], [1, 3], [1, 2]]}),
        ("construct", {"mode": ["layer"]}),
        # unknown keys: each of these would otherwise run with a default
        ("construct", {**LAYER, "frsh": False}),
        ("construct", {**LAYER, "bx": [3, 3, 3]}),
        ("construct", {**LAYER, "supports": [[1], [1], [1]]}),
        ("construct", {**ELEVEN_LIAISON, "bxo": [1, 1, 1]}),
        ("construct", {**ELEVEN_LIAISON, "fresh": True}),
        ("check", {"n": 1, "points": [[1], [2]], "lables": ["a", "b"]}),
        ("oracle", {"n": 1, "points": [[1]], "mode": "layer"}),
    ],
)
def test_strict_input_exits_two(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err


@pytest.mark.parametrize(
    "command, data, key",
    [
        ("construct", {**LAYER, "frsh": False}, "frsh"),
        ("construct", {**ELEVEN_LIAISON, "bxo": [1, 1, 1]}, "bxo"),
        ("check", {"n": 1, "points": [[1], [2]], "lables": ["a", "b"]}, "lables"),
    ],
)
def test_unknown_key_is_named(tmp_path, capsys, command, data, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert f"unknown key(s) {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("check", '{"n": 2, "points": [[1, 1]], "points": [[1, 1], [2, 2]]}', "points"),
        (
            "construct",
            '{"mode": "layer", "points": [[1, 1], [2, 2]], "direction": 1, "direction": 2}',
            "direction",
        ),
    ],
    ids=["configuration", "layer"],
)
def test_repeated_key_is_named(tmp_path, capsys, command, text, key):
    """JSON keeps the last of two equal keys; a file that repeats one is refused."""
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"InputError: {path}: repeated key {key!r}\n"


@pytest.mark.parametrize(
    "command, data, rest, message",
    [
        ("check", [[1, 1]], [], "top level must be an object"),
        ("check", {"n": 2, "points": []}, [], "'points' must be a nonempty list"),
        (
            "check",
            {"n": 2, "points": [[1, 1], [2, 2]], "labels": ["a"]},
            [],
            "'labels' must be strings parallel to 'points'",
        ),
        (
            "check",
            {"n": 2, "points": [[1, 1], [2, 2]], "labels": ["a", 2]},
            [],
            "'labels' must be strings parallel to 'points'",
        ),
        (
            "check",
            {"n": 1, "points": [[1], [3]]},
            ["--star-level", "2"],
            "star levels are undefined for a single direction",
        ),
        (
            "path",
            {"n": 2, "points": [[1, 1], [2, 2], [1, 2]]},
            ["--from", "1,1,1", "--to", "2,2"],
            "endpoints must have 2 coordinates",
        ),
        (
            "path",
            {"n": 2, "points": [[1, 1], [2, 3], [3, 3], [1, 3]]},
            ["--from", "2,2", "--to", "3,2"],
            "endpoint (2,2) is not a point of ",
        ),
        (
            "construct",
            {**ELEVEN_LIAISON, "summands": {"V1": [[1, 1, 1]]}},
            [],
            "liaison config needs 'summands' and 'supports' lists",
        ),
    ],
    ids=["top-level", "no-points", "short-labels", "int-label", "star-level", "endpoint",
         "endpoint-not-in-file", "summands"],
)
def test_rejected_input_is_named(tmp_path, capsys, command, data, rest, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, str(path), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# Configurations in one to four directions, written per test run;
# every other ``GOLDEN`` file name is a bundled fixture.
INLINE = {
    'line_three.json': (1, [(1,), (3,), (4,)]),
    'two_four.json': (2, [(1, 1), (1, 2), (2, 1), (3, 3)]),
    'cube_three.json': (3, [(1, 1, 1), (1, 2, 2), (2, 1, 1)]),
    'star_blind_eight.json': (4, STAR_BLIND_EIGHT),
}

GOLDEN = {
    ('check', 'chain_twelve.json'): (
        'configuration: 12 points on grid 4x3x3\n'
        'star_2: satisfied\n'
        'star_3: satisfied\n'
        'ACM: true\n'
        'direction 1: level sizes [1, 1, 4, 6]; inclusion: true\n'
        'direction 2: level sizes [6, 1, 5]; inclusion: false\n'
        'direction 3: level sizes [1, 5, 6]; inclusion: false\n'
    ),
    ('oracle', 'chain_twelve.json'): (
        'CM: true\n'
    ),
    ('check', 'cube_six.json'): (
        'configuration: 6 points on grid 2x2x2\n'
        'labels: 112=(1,1,2), 121=(1,2,1), 122=(1,2,2), 211=(2,1,1), 212=(2,1,2), 221=(2,2,1)\n'
        'star_2: satisfied\n'
        'star_3: VIOLATED (type-ii P=(1,1,1) Q=(2,2,2))\n'
        'ACM: false\n'
        'direction 1: level sizes [3, 3]; inclusion: false\n'
        'direction 2: level sizes [3, 3]; inclusion: false\n'
        'direction 3: level sizes [3, 3]; inclusion: false\n'
    ),
    ('oracle', 'cube_six.json'): (
        'CM: false; link=empty, reduced homology degree 1 rank 1\n'
    ),
    ('check', 'liaison_eleven.json'): (
        'configuration: 11 points on grid 3x3x3\n'
        'star_2: satisfied\n'
        'star_3: satisfied\n'
        'ACM: true\n'
        'direction 1: level sizes [1, 5, 5]; inclusion: false\n'
        'direction 2: level sizes [5, 1, 5]; inclusion: false\n'
        'direction 3: level sizes [5, 5, 1]; inclusion: false\n'
    ),
    ('oracle', 'liaison_eleven.json'): (
        'CM: true\n'
    ),
    ('check', 'moved_point_variant.json'): (
        'configuration: 11 points on grid 3x3x3\n'
        'star_2: satisfied\n'
        'star_3: satisfied\n'
        'ACM: true\n'
        'direction 1: level sizes [1, 4, 6]; inclusion: true\n'
        'direction 2: level sizes [5, 1, 5]; inclusion: false\n'
        'direction 3: level sizes [5, 5, 1]; inclusion: false\n'
    ),
    ('oracle', 'moved_point_variant.json'): (
        'CM: true\n'
    ),
    ('hilbert', 'liaison_eleven.json', '--box', '3,3,3'): (
        'h(0,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  1 2 3 3\n'
        '  2 4 5 5\n'
        '  3 5 6 6\n'
        '  3 5 6 6\n'
        'h(1,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  2 4 5 5\n'
        '  4 8 9 9\n'
        '  5 9 10 10\n'
        '  5 9 10 10\n'
        'h(2,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  3 5 6 6\n'
        '  5 9 10 10\n'
        '  6 10 11 11\n'
        '  6 10 11 11\n'
        'h(3,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  3 5 6 6\n'
        '  5 9 10 10\n'
        '  6 10 11 11\n'
        '  6 10 11 11\n'
    ),
    ('hilbert', 'liaison_eleven.json', '--box', '3,3,3', '--delta'): (
        'delta_h(0,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  1 1 1 0\n'
        '  1 1 0 0\n'
        '  1 0 0 0\n'
        '  0 0 0 0\n'
        'delta_h(1,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  1 1 0 0\n'
        '  1 1 0 0\n'
        '  0 0 0 0\n'
        '  0 0 0 0\n'
        'delta_h(2,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  1 0 0 0\n'
        '  0 0 0 0\n'
        '  0 0 0 0\n'
        '  0 0 0 0\n'
        'delta_h(3,j,k), rows j = 0..3, columns k = 0..3:\n'
        '  0 0 0 0\n'
        '  0 0 0 0\n'
        '  0 0 0 0\n'
        '  0 0 0 0\n'
    ),
    ('hilbert', 'liaison_eleven.json', '--box', '5,4,6'): (
        'h(0,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  1 2 3 3 3 3 3\n'
        '  2 4 5 5 5 5 5\n'
        '  3 5 6 6 6 6 6\n'
        '  3 5 6 6 6 6 6\n'
        '  3 5 6 6 6 6 6\n'
        'h(1,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  2 4 5 5 5 5 5\n'
        '  4 8 9 9 9 9 9\n'
        '  5 9 10 10 10 10 10\n'
        '  5 9 10 10 10 10 10\n'
        '  5 9 10 10 10 10 10\n'
        'h(2,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  3 5 6 6 6 6 6\n'
        '  5 9 10 10 10 10 10\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
        'h(3,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  3 5 6 6 6 6 6\n'
        '  5 9 10 10 10 10 10\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
        'h(4,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  3 5 6 6 6 6 6\n'
        '  5 9 10 10 10 10 10\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
        'h(5,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  3 5 6 6 6 6 6\n'
        '  5 9 10 10 10 10 10\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
        '  6 10 11 11 11 11 11\n'
    ),
    ('hilbert', 'liaison_eleven.json', '--box', '5,4,6', '--delta'): (
        'delta_h(0,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  1 1 1 0 0 0 0\n'
        '  1 1 0 0 0 0 0\n'
        '  1 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        'delta_h(1,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  1 1 0 0 0 0 0\n'
        '  1 1 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        'delta_h(2,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  1 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        'delta_h(3,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        'delta_h(4,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        'delta_h(5,j,k), rows j = 0..4, columns k = 0..6:\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
        '  0 0 0 0 0 0 0\n'
    ),
    ('check', 'line_three.json'): (
        'configuration: 3 points on grid 3\n'
        'ACM: true\n'
        'direction 1: level sizes [1, 1, 1]\n'
    ),
    ('oracle', 'cube_three.json'): (
        'CM: false; link={a[1,2]}, reduced homology degree 0 rank 1\n'
    ),
    ('hilbert', 'line_three.json', '--box', '5'): (
        'h(t), t = 0..5: 1 2 3 3 3 3\n'
    ),
    ('hilbert', 'line_three.json', '--box', '5', '--delta'): (
        'delta_h(t), t = 0..5: 1 1 1 0 0 0\n'
    ),
    ('hilbert', 'two_four.json', '--box', '3,4'): (
        'h(j,k), rows j = 0..3, columns k = 0..4:\n'
        '  1 2 3 3 3\n'
        '  2 4 4 4 4\n'
        '  3 4 4 4 4\n'
        '  3 4 4 4 4\n'
    ),
    ('hilbert', 'two_four.json', '--box', '3,4', '--delta'): (
        'delta_h(j,k), rows j = 0..3, columns k = 0..4:\n'
        '  1 1 1 0 0\n'
        '  1 1 -1 0 0\n'
        '  1 -1 0 0 0\n'
        '  0 0 0 0 0\n'
    ),
    ('hilbert', 'star_blind_eight.json', '--box', '1,2,1,2'): (
        'h(0,0,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  1 2 2\n'
        '  2 4 4\n'
        'h(0,1,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  2 4 4\n'
        '  4 6 6\n'
        'h(0,2,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  2 4 4\n'
        '  4 6 6\n'
        'h(1,0,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  2 4 4\n'
        '  4 6 6\n'
        'h(1,1,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  4 6 6\n'
        '  6 8 8\n'
        'h(1,2,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  4 6 6\n'
        '  6 8 8\n'
    ),
    ('hilbert', 'star_blind_eight.json', '--box', '1,2,1,2', '--delta'): (
        'delta_h(0,0,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  1 1 0\n'
        '  1 1 0\n'
        'delta_h(0,1,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  1 1 0\n'
        '  1 -1 0\n'
        'delta_h(0,2,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  0 0 0\n'
        '  0 0 0\n'
        'delta_h(1,0,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  1 1 0\n'
        '  1 -1 0\n'
        'delta_h(1,1,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  1 -1 0\n'
        '  -1 1 0\n'
        'delta_h(1,2,j,k), rows j = 0..1, columns k = 0..2:\n'
        '  0 0 0\n'
        '  0 0 0\n'
    ),
    ('path', 'liaison_eleven.json', '--from', '1,1,1', '--to', '2,2,2'): (
        '(1,1,1) -> (2,1,1) -> (2,1,2) -> (2,2,2)\n'
    ),
    ('path', 'line_three.json', '--from', '1', '--to', '3'): (
        '(1) -> (3)\n'
    ),
    ('construct', 'liaison_eleven_config.json'): (
        'liaison addition: 11 points (V1: 1 point(s), V2: 1 point(s), V3: 1 point(s), box: 8 point(s))\n'
        'hf additivity: verified on box (3,3,3)\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_text_output(tmp_path, capsys, argv):
    command, name, *rest = argv
    path = write_config(tmp_path, name, *INLINE[name]) if name in INLINE else fixture_path(name)
    assert main([command, str(path), *rest]) == 0
    assert capsys.readouterr().out == GOLDEN[argv]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(fixture_path("liaison_eleven.json"))],
        ["enumerate", "--grid", "2,2,2", "--out", "/dev/stdout"],
    ],
    ids=["check", "enumerate"],
)
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    """A reader that is gone before anything is written ends the run with
    128 + SIGPIPE and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "acmpts", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode("utf-8")
    assert proc.returncode == 141, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
