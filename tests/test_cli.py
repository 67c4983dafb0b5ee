import json

import pytest

from acmpts import canonicalize, fixture_path
from acmpts.cli import load_configuration, main, save_configuration
from acmpts.errors import InputError
from conftest import ELEVEN_POINTS, SIX_POINTS


def write_config(tmp_path, name, n, points, labels=None):
    data = {"n": n, "points": [list(p) for p in points]}
    if labels:
        data["labels"] = labels
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_round_trip(tmp_path):
    X = canonicalize(ELEVEN_POINTS)
    path = tmp_path / "cfg.json"
    save_configuration(X, path)
    assert load_configuration(path).point_set() == X
    # serializing the parsed canonical file reproduces it byte for byte
    first = path.read_bytes()
    save_configuration(load_configuration(path).point_set(), path)
    assert path.read_bytes() == first


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
    ],
)
def test_strict_input_exits_two(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err


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
    ('path', 'liaison_eleven.json', '--from', '1,1,1', '--to', '2,2,2'): (
        '(1,1,1) -> (2,1,1) -> (2,1,2) -> (2,2,2)\n'
    ),
    ('construct', 'liaison_eleven_config.json'): (
        'liaison addition: 11 points (V1: 1 point(s), V2: 1 point(s), V3: 1 point(s), box: 8 point(s))\n'
        'hf additivity: verified on box (3,3,3)\n'
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_text_output(capsys, argv):
    command, name, *rest = argv
    assert main([command, str(fixture_path(name)), *rest]) == 0
    assert capsys.readouterr().out == GOLDEN[argv]
