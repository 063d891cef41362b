import hashlib
import json
from pathlib import Path

import pytest

from bsdomino.cli import main

MAPS = Path(__file__).resolve().parents[1] / "maps"
IDENTITY_SPEC = {
    "m": 2,
    "n": 3,
    "pieces": [{"square": [0, 0], "M": [["1", "0"], ["0", "1"]], "b": ["0", "0"]}],
}
ROTATION_SPEC = {
    "m": 2,
    "n": 2,
    "pieces": [
        {"square": square, "M": [["0", "-1"], ["1", "0"]], "b": ["0", "0"]}
        for square in ([0, 0], [-1, 0], [-1, -1], [0, -1])
    ],
}
ESCAPE_SPEC = {
    "m": 2,
    "n": 3,
    "pieces": [{"square": [0, 0], "M": [["1", "0"], ["0", "1"]], "b": ["2", "2"]}],
}


@pytest.fixture
def identity_map(tmp_path):
    path = tmp_path / "identity.map"
    path.write_text(json.dumps(IDENTITY_SPEC))
    return str(path)


@pytest.fixture
def escape_map(tmp_path):
    path = tmp_path / "escape.map"
    path.write_text(json.dumps(ESCAPE_SPEC))
    return str(path)


def test_phi_outputs(capsys):
    assert main(["phi", "--mn", "3,2", "taT a2 t A T A-2"]) == 0
    assert capsys.readouterr().out.strip() == "(0/1, 0)"
    assert main(["phi", "--mn", "2,3", ""]) == 0
    assert capsys.readouterr().out.strip() == "(0/1, 0)"
    assert main(["phi", "--mn", "2,3", "ta"]) == 0
    assert capsys.readouterr().out.strip() == "(2/3, -1)"


def test_phi_large_exponent(capsys):
    assert main(["phi", "--mn", "3,2", "a1000000000"]) == 0
    assert capsys.readouterr().out.strip() == "(1000000000/1, 0)"
    assert main(["phi", "--mn", "3,2", "t60000"]) == 0
    assert capsys.readouterr().out.strip() == "(0/1, -60000)"


def test_phi_parse_error(capsys):
    assert main(["phi", "--mn", "2,3", "a?b"]) == 3
    err = capsys.readouterr().err
    assert "position" in err
    # a superscript digit is no exponent: a parse error, not int()'s
    assert main(["phi", "--mn", "2,3", "a²"]) == 3
    assert capsys.readouterr().err == "error: unexpected character '²' (at position 1)\n"


def test_bad_mn(capsys):
    assert main(["phi", "--mn", "0,3", "a"]) == 3
    assert main(["phi", "--mn", "2", "a"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--mn", "", "a"],
        ["search", "{map}", "--mn", ""],
        ["simulate-row", "{map}", "--point", "1/2,1/2", "--range", ""],
        ["simulate-row", "{map}", "--point", "1/2,1/2", "--range", "3,1"],
        ["search", "{map}", "--radius", "-1"],
        ["orbit", "{map}", "--point", "1/2,1/2", "--horizon", "-1"],
        ["search", "{map}", "--budget", "0"],
        ["search", "{map}", "--seed", "1"],
    ],
)
def test_malformed_option_values(capsys, identity_map, argv):
    assert main([arg.format(map=identity_map) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_usage_errors_are_input_errors(capsys, identity_map):
    # argparse's own exit code 2 would read as "budget exceeded"
    assert main(["search"]) == 3
    assert main(["search", identity_map, "--radius", "x"]) == 3
    assert main([]) == 3
    assert "usage:" in capsys.readouterr().err


def test_compile_verify_round_trip(tmp_path, capsys, identity_map):
    out = str(tmp_path / "identity.tiles")
    assert main(["compile", identity_map, "--out", out]) == 0
    summary = capsys.readouterr().out
    assert "m=2 n=3" in summary and "tiles=14400" in summary
    assert main(["verify", out]) == 0
    assert capsys.readouterr().out.strip() == "ok=true tiles=14400"
    # determinism: recompiling produces an identical file
    out2 = str(tmp_path / "again.tiles")
    assert main(["compile", identity_map, "--out", out2]) == 0
    capsys.readouterr()
    with open(out) as f1, open(out2) as f2:
        assert f1.read() == f2.read()
    # the streamed file is the export perfbench/expected.json pins for identity-23
    with open(out, "rb") as handle:
        digest = sha256(handle.read())
    assert digest == "8c16818e11645e23700fceb5524fee3fbfecc03f7ae6ad61dbfaa31551b1167c"


def test_verify_names_corrupted_tile(tmp_path, capsys, identity_map):
    out = str(tmp_path / "identity.tiles")
    assert main(["compile", identity_map, "--out", out]) == 0
    capsys.readouterr()
    with open(out) as handle:
        lines = handle.read().splitlines()
    victim = len(lines) - 1
    head, _, _ = lines[victim].rpartition(" | r: ")
    lines[victim] = head + " | r: 999/1,999/1"
    broken = str(tmp_path / "broken.tiles")
    with open(broken, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert main(["verify", broken]) == 1
    output = capsys.readouterr().out
    assert "ok=false" in output
    assert f"line={victim + 1}" in output
    assert "999/1" in output


def _set_q_zero(lines):
    lines[2] = lines[2].replace(" q=6 ", " q=0 ")
    return 3


def _widen_grid_box(lines):
    head, _, _ = lines[2].partition(" p1=")
    lines[2] = head + " p1=(-999,-999) p2=(999,999)"
    return 3


def _delete_tile(lines):
    del lines[100]
    return 2  # the tiles= count


def _duplicate_tile(lines):
    lines.insert(100, lines[100])
    return 102


def _duplicate_and_delete(lines):
    # keeps the tiles= count
    lines.insert(100, lines[100])
    del lines[200]
    return 102


def _swap_adjacent(lines):
    lines[100], lines[101] = lines[101], lines[100]
    return 102


def _shift_off_grid(lines):
    # both colors by +1/7: the transport equation still holds, but the
    # colors leave the grid (1/6) Z^2 of the file's only piece
    head, _, colors = lines[-1].partition(" | l: ")
    assert colors == "1/2,1/2 | r: 1/2,1/2"
    lines[-1] = head + " | l: 9/14,9/14 | r: 9/14,9/14"
    return len(lines)


def _delete_title(lines):
    del lines[0]
    return 1


def _count_header_among_tiles(lines):
    lines.insert(100, lines[1])
    return 101


def _blank_line_among_tiles(lines):
    lines.insert(100, "")
    return 101


def _note_after_piece_header(lines):
    # a comment and a blank line, then a corrupted last tile: the tile
    # lines no longer sit where verify would number them
    lines[3:3] = ["# a note", ""]
    head, _, _ = lines[-1].rpartition(" | r: ")
    lines[-1] = head + " | r: 999/1,999/1"
    return 4


def _piece_header_after_tile(lines):
    lines.insert(100, lines[2])
    return 101


def _bracketed_offset(lines):
    lines[2] = lines[2].replace(" b=(0/1,0/1) ", " b=[0/1,0/1] ")
    return 3


@pytest.fixture(scope="module")
def identity_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiles") / "identity.map"
    path.write_text(json.dumps(IDENTITY_SPEC))
    out = str(path.with_suffix(".tiles"))
    assert main(["compile", str(path), "--out", out]) == 0
    with open(out) as handle:
        return handle.read().splitlines()


@pytest.mark.parametrize(
    "probe",
    [
        _set_q_zero,
        _widen_grid_box,
        _delete_tile,
        _duplicate_tile,
        _duplicate_and_delete,
        _swap_adjacent,
        _shift_off_grid,
        _delete_title,
        _count_header_among_tiles,
        _blank_line_among_tiles,
        _note_after_piece_header,
        _piece_header_after_tile,
        _bracketed_offset,
    ],
)
def test_verify_rejects_inconsistent_header(tmp_path, capsys, identity_lines, probe):
    lines = list(identity_lines)
    where = probe(lines)  # the line the probe breaks
    broken = str(tmp_path / "broken.tiles")
    with open(broken, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", broken]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: tileset line {where}:" in captured.err


def test_search_exit_codes(tmp_path, capsys, identity_map, escape_map):
    assert main(["search", identity_map, "--radius", "2"]) == 0
    assert "result=found" in capsys.readouterr().out
    assert main(["search", escape_map, "--radius", "2"]) == 1
    assert "result=exhausted" in capsys.readouterr().out
    assert main(["search", identity_map, "--radius", "2", "--budget", "3"]) == 2
    assert "result=budget-exceeded" in capsys.readouterr().out


def test_search_exports(tmp_path, capsys, identity_map):
    dot = str(tmp_path / "patch.dot")
    tiling = str(tmp_path / "tiling.txt")
    code = main(
        [
            "search",
            identity_map,
            "--radius",
            "1",
            "--dot",
            dot,
            "--out-tiling",
            tiling,
        ]
    )
    assert code == 0
    capsys.readouterr()
    with open(dot) as handle:
        assert handle.read().startswith("graph patch {")
    with open(tiling) as handle:
        assert all(" -> " in line for line in handle.read().strip().splitlines())


def test_orbit_cycle_output(tmp_path, capsys):
    spec = {
        "m": 2,
        "n": 2,
        "pieces": [
            {"square": [0, 0], "M": [["0", "-1"], ["1", "0"]], "b": ["0", "0"]},
            {"square": [-1, 0], "M": [["0", "-1"], ["1", "0"]], "b": ["0", "0"]},
            {"square": [-1, -1], "M": [["0", "-1"], ["1", "0"]], "b": ["0", "0"]},
            {"square": [0, -1], "M": [["0", "-1"], ["1", "0"]], "b": ["0", "0"]},
        ],
    }
    path = tmp_path / "rotation.map"
    path.write_text(json.dumps(spec))
    assert main(["orbit", str(path), "--point", "1/2,1/2", "--horizon", "8"]) == 0
    out = capsys.readouterr().out
    assert "outcome=cycle j=0 k=4" in out


def test_orbit_outside_start_is_input_error(capsys, identity_map):
    assert main(["orbit", identity_map, "--point", "9,9", "--horizon", "5"]) == 3


def test_orbit_has_no_mn_option(capsys, identity_map):
    # orbit iterates the map alone: BS(m,n) plays no part in it
    args = ["orbit", identity_map, "--point", "1/2,1/2", "--mn", "3,2"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --mn 3,2" in captured.err


def test_simulate_row(capsys, identity_map):
    code = main(
        ["simulate-row", identity_map, "--point", "1/2,1/2", "--range", "0,9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bottom_ok=true" in out and "top_ok=true" in out


@pytest.mark.parametrize(
    "spec, point, k_range, first_line",
    [
        (IDENTITY_SPEC, "1/2,1/2", ["--range", "-3,2"], "tiles=6 piece=0"),
        (IDENTITY_SPEC, "1/2,1/2", ["--range=-3,2"], "tiles=6 piece=0"),
        (ROTATION_SPEC, "-1/2,1/2", ["--range", "-4,-1"], "tiles=4 piece=1"),
    ],
)
def test_simulate_row_negative_values(tmp_path, capsys, spec, point, k_range, first_line):
    path = tmp_path / "spec.map"
    path.write_text(json.dumps(spec))
    assert main(["simulate-row", str(path), "--point", point, *k_range]) == 0
    out = capsys.readouterr().out
    assert out == f"{first_line} bottom_ok=true top_ok=true\n"


def test_help_abbreviation_keeps_negative_value_apart(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate-row", "--he", "-3,2"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_export_dot_stdout(capsys, identity_map):
    assert main(["export-dot", identity_map, "--radius", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph patch {")


def test_missing_file_is_input_error(capsys):
    assert main(["verify", "/nonexistent/tiles"]) == 3
    assert main(["compile", "/nonexistent/map"]) == 3


def test_non_integer_map_spec_is_input_error(tmp_path, capsys):
    # "m": true once loaded as BS(1,3) and searched with exit 0
    path = tmp_path / "bool.map"
    path.write_text(json.dumps({**IDENTITY_SPEC, "m": True}))
    assert main(["search", str(path), "--radius", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


def test_bool_matrix_map_spec_is_input_error(tmp_path, capsys):
    # true and false once loaded as 1 and 0: the identity map
    piece = {**IDENTITY_SPEC["pieces"][0], "M": [[True, False], [0, 1]]}
    path = tmp_path / "bool-matrix.map"
    path.write_text(json.dumps({**IDENTITY_SPEC, "pieces": [piece]}))
    assert main(["search", str(path), "--radius", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_export_dot_output_is_pinned(capsys):
    assert main(["export-dot", str(MAPS / "rotation-22.map"), "--radius", "3"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 125
    assert sha256(out.encode()) == (
        "b184e92eab0b9855560a5e659628046bb5baed0586029a2f47880bad234a0f91"
    )


def test_m_above_n_outputs_are_pinned(tmp_path, capsys):
    # rotation-32 (m > n): the radius-3 patch, and a 41-tile row at a
    # point of a negative square with lambda(g0) off the integers
    rotation_32 = str(MAPS.parent / "perfbench" / "maps" / "rotation-32.map")
    assert main(["export-dot", rotation_32, "--radius", "3"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "47e705f4755e29f73238e13872982c09b3fd18dcd7cdc816d3c5c4ef8fca8008"
    )
    row = tmp_path / "row.tiles"
    argv = ["simulate-row", rotation_32, "--point=-2/7,3/5", "--g0", "T a2 t A T"]
    assert main(argv + ["--range=-20,20", "--out", str(row)]) == 0
    assert capsys.readouterr().out == "tiles=41 piece=1 bottom_ok=true top_ok=true\n"
    assert sha256(row.read_bytes()) == (
        "3ebd6ecfcb2554ce84c3eeafec7f5acf37796d65f31556a831ce412c2189e229"
    )


def test_search_outputs_are_pinned(tmp_path, capsys):
    dot, tiling = tmp_path / "patch.dot", tmp_path / "patch.tiling"
    argv = ["search", str(MAPS / "identity-23.map"), "--radius", "2"]
    assert main(argv + ["--dot", str(dot), "--out-tiling", str(tiling)]) == 0
    assert capsys.readouterr().out == "result=found cells=15 tiles=14400 nodes=15\n"
    assert sha256(dot.read_bytes()) == (
        "087965ab260b66dd51982294eb827310dadb2cdd945586ebae050e42f9c01352"
    )
    assert sha256(tiling.read_bytes()) == (
        "29df86fe9f257257abd8b762df324549754b6add67e0cf489688844a4dd5ad37"
    )


def test_mn_override(capsys, identity_map):
    # override map params from the command line
    assert main(["search", identity_map, "--mn", "1,2", "--radius", "1"]) == 0
    assert "result=found" in capsys.readouterr().out


def test_enumeration_cap_env(tmp_path, capsys, identity_map, monkeypatch):
    monkeypatch.setenv("BSDOMINO_MAX_TILES", "10")
    out = str(tmp_path / "t.tiles")
    assert main(["compile", identity_map, "--out", out]) == 3
    assert "candidates" in capsys.readouterr().err


def test_malformed_cap_env_is_bad_input(tmp_path, capsys, identity_map, monkeypatch):
    monkeypatch.setenv("BSDOMINO_MAX_TILES", "abc")
    out = tmp_path / "t.tiles"
    assert main(["compile", identity_map, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BSDOMINO_MAX_TILES must be an integer, got 'abc'\n"
    assert not out.exists()


# the export sha256 of every committed map: the five perfbench/expected.json
# pins, shift3-23 and kari-23
EXPORT_PINS = {
    entry["path"]: entry["sha256"]
    for entry in json.loads((MAPS.parent / "perfbench" / "expected.json").read_text())[
        "maps"
    ].values()
}
EXPORT_PINS["maps/shift3-23.map"] = (
    "045e6cb4a184d3f9701c708450bd651e9fa753c7b50547b927882f226eeaaf4e"
)
EXPORT_PINS["maps/kari-23.map"] = (
    "f402ca2f7916d1fceb693914e470cafad6412785f9619c675d794d780752d191"
)


@pytest.mark.parametrize("path", sorted(EXPORT_PINS))
def test_compile_writes_the_pinned_export(tmp_path, capsys, path):
    out = tmp_path / "map.tiles"
    assert main(["compile", str(MAPS.parent / path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == EXPORT_PINS[path]
