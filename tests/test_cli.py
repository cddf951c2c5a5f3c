import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slimlat
from slimlat.cli import main
from slimlat.dsl import parse_dsl
from slimlat.multifork import build
from slimlat.order import congruence_lattice, named_posets

from oracles import _closure, tables


@pytest.fixture
def s7_seq(tmp_path):
    f = tmp_path / "s7.seq"
    f.write_text("grid 1 1\nfork 0 0 1\n")
    return f


def test_build_to_json(tmp_path, s7_seq):
    out = tmp_path / "s7.json"
    assert main(["build", "--input", str(s7_seq), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 7
    assert len(data["covers"]) == 9


def test_validate_json_input(tmp_path, s7_seq):
    lattice_json = tmp_path / "s7.json"
    main(["build", "--input", str(s7_seq), "--out", str(lattice_json)])
    out = tmp_path / "report.json"
    rc = main(["validate", "--input", str(lattice_json), "--format", "json", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["ok"]


def test_lamps_and_con(tmp_path, s7_seq):
    out = tmp_path / "lamps.json"
    assert main(["lamps", "--input", str(s7_seq), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["congruence_iso_ok"] and len(rep["lamps"]) == 3

    out2 = tmp_path / "con.json"
    assert main(["con", "--input", str(s7_seq), "--out", str(out2)]) == 0
    con = json.loads(out2.read_text())
    assert con["jir_count"] == 3 and con["con_size"] == 5
    assert con["jir_congruence_collapsed"] == [[1, 2], [1, 2, 4], [1, 2, 5]]


def test_con_lists_each_congruence_by_what_it_fixes(tmp_path):
    """`slimlat con` lists each join-irreducible congruence theta by
    C = {j in J(L) : j_ theta j}, which fixes it: theta is the closure of
    the pairs (j_, j), j in C, and x theta y iff the join-irreducibles
    below x and below y outside C agree."""
    text = "grid 2 2\nfork 1 1 2\nfork 0 0 1\n"
    seq = tmp_path / "l.seq"
    seq.write_text(text)
    out = tmp_path / "con.json"
    assert main(["con", "--input", str(seq), "--out", str(out)]) == 0
    collapsed = json.loads(out.read_text())["jir_congruence_collapsed"]
    lat = build(parse_dsl(text)).lattice
    below = [{j for j in lat.jir() if lat.leq(j, x)} for x in range(lat.n)]
    assert len(collapsed) == congruence_lattice(lat).jir_count() == 6
    meet, join = tables(lat)
    for kept in collapsed:
        c = _closure(meet, join, [(lat.lower_covers(j)[0], j) for j in kept])
        for x in range(lat.n):
            for y in range(lat.n):
                assert c.same(x, y) == (below[x] - set(kept) == below[y] - set(kept))


def test_minimize_cli(tmp_path):
    seq = tmp_path / "two.seq"
    seq.write_text("grid 2 2\nfork 1 1 2\n")
    out = tmp_path / "trace.json"
    assert main(["minimize", "--input", str(seq), "--out", str(out)]) == 0
    trace = json.loads(out.read_text())
    assert len(trace["steps"]) == 1
    assert trace["steps"][0]["rule"] == "neighboring"


def test_reduce_cli_prints_the_first_minimize_step(tmp_path, s7_seq, capsys):
    """`reduce` applies the removal that starts `minimize`'s trace, and
    says so when there is none."""
    seq = tmp_path / "two.seq"
    seq.write_text("grid 2 2\nfork 1 1 2\n")
    assert main(["reduce", "--input", str(seq)]) == 0
    out = json.loads(capsys.readouterr().out)
    _, trace = slimlat.minimize(slimlat.build(slimlat.parse_dsl(seq.read_text())))
    assert out == {
        "applied": {
            "rule": "neighboring", "lamp_foot": 17, "removed_tube": [19, 8],
            "size_before": 20, "size_after": 14, "antube_before": 6,
            "antube_after": 5,
        },
        "sequence": "grid 2 2\nfork 1 1 1\n",
    }
    assert out["applied"] == trace[0].to_dict()
    assert main(["reduce", "--input", str(s7_seq)]) == 0
    assert capsys.readouterr().out == '{"applied": null, "note": "no removable pattern"}\n'


def test_decompose_cli(tmp_path, s7_seq):
    lattice_json = tmp_path / "s7.json"
    main(["build", "--input", str(s7_seq), "--out", str(lattice_json)])
    out = tmp_path / "rec.seq"
    rc = main(["decompose", "--input", str(lattice_json), "--format", "json", "--out", str(out)])
    assert rc == 0
    assert "fork" in out.read_text()


def test_double_cli(tmp_path, s7_seq):
    out = tmp_path / "doubled.seq"
    assert main(["double", "--input", str(s7_seq), "--step", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("grid 1 1\n") and text.count("fork") == 2


def test_double_cli_on_a_grid_names_the_missing_fork(tmp_path, capsys):
    """A bare grid has no fork step to double: exit 1 with one line that
    says so, not a step range of 1..0."""
    seq = tmp_path / "grid.seq"
    seq.write_text("grid 2 1\n")
    capsys.readouterr()
    assert main(["double", "--input", str(seq), "--step", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the sequence has no fork step to double\n"
    assert captured.out == ""


def test_enumerate_cli(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--max-len", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["counts"] == {"2": 1, "3": 2, "4": 6}


def test_enumerate_cli_output_is_pinned(tmp_path):
    """`slimlat enumerate --max-len 7` prints, byte for byte, what it
    printed when the search built every lattice it listed: the same
    counts, witness sequences and order."""
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--max-len", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7f422678d0b6fbf5d5e9479d38d541accfd3c74bf93e37ead7e277db00c77cc8")


def _enumerate_sha256(tmp_path, max_len):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--max-len", str(max_len), "--allow-large",
                 "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_enumerate_cli_output_is_pinned_at_length_eight(tmp_path):
    """The witness sequences and their order past the practical budget:
    2,327 lattices at length 8, which the search lists without building."""
    assert _enumerate_sha256(tmp_path, 8) == (
        "c6ca3ad9a5d0635fe3a6390635f5281e7434ae6b3e9bbfc07116bc24d2b8c7e8")


@pytest.mark.slow
def test_enumerate_cli_output_is_pinned_at_length_nine(tmp_path):
    assert _enumerate_sha256(tmp_path, 9) == (
        "6aff3f62e508bac032f005e1dcf8e17a66be427b4b3674a7cd3090394d309fec")


def test_realize_cli(tmp_path):
    poset_file = tmp_path / "y.poset"
    poset_file.write_text(named_posets("Y").to_json())
    out = tmp_path / "answer.json"
    assert main(["realize", "--input", str(poset_file), "--max-len", "7", "--out", str(out)]) == 0
    ans = json.loads(out.read_text())
    assert ans["status"] == "found" and ans["min_length"] == 5


def test_render_cli(tmp_path, s7_seq):
    out = tmp_path / "pic.svg"
    rc = main(["render", "--input", str(s7_seq), "--render-format", "svg", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("<svg")


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("fork 0 0 1\n")
    assert main(["build", "--input", str(bad)]) == 2

    assert main(["enumerate", "--max-len", "9"]) == 3

    chain = tmp_path / "chain.json"
    chain.write_text('{"n": 3, "covers": [[0, 1], [1, 2]], '
                     '"upper_order": [[1], [2], []], "lower_order": [[], [0], [1]]}')
    capsys.readouterr()
    assert main(["validate", "--input", str(chain), "--format", "json"]) == 1
    # validation states the corner condition as the embedding does
    assert json.loads(capsys.readouterr().out)["failures"] == [
        "expected exactly 2 doubly irreducible elements, got 1"]


def test_validate_repeated_lower_cover_exits_1(tmp_path, capsys):
    lattice_json = tmp_path / "b2.json"
    lattice_json.write_text('{"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]], '
                            '"upper_order": [[1, 2], [3], [3], []], '
                            '"lower_order": [[], [0], [0], [1, 2, 2]]}')
    assert main(["validate", "--input", str(lattice_json), "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err == "error: lower order lists disagree with the cover relation\n"


def test_double_cli_where_lamp_order_and_foot_order_differ(tmp_path):
    seq = tmp_path / "g21.seq"
    seq.write_text("grid 2 1\nfork 1 0 1\nfork 0 1 1\n")
    out = tmp_path / "doubled.seq"
    assert main(["double", "--input", str(seq), "--step", "1", "--out", str(out)]) == 0
    assert out.read_text().count("fork") == 3


def test_bounds_sweep_failure_exits_1(tmp_path, monkeypatch):
    failure = {"code": "x", "assertion": "length >= n", "detail": "length 1, n 2"}
    monkeypatch.setattr(
        "slimlat.cli.sweep_bounds",
        lambda max_len, allow_large=False: {
            "max_len": max_len, "counts": {}, "lattices": [], "failures": [failure],
        },
    )
    out = tmp_path / "sweep.json"
    assert main(["bounds", "--max-len", "2", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failures"] == [failure]


def _one_line_parse_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    '{"n": 3, "covers": [[0, 1]',
    '[[0, 1]]',
    '{"covers": [[0, 1]]}',
    '{"n": 3}',
    '{"n": "3", "covers": [[0, 1]]}',
    '{"n": 3, "covers": [[0, 1, 2]]}',
    '{"n": 3, "covers": [["0", "1"]]}',
    '{"n": 3, "covers": 7}',
])
def test_realize_malformed_poset_json_exits_2(tmp_path, capsys, text):
    poset_file = tmp_path / "bad.poset"
    poset_file.write_text(text)
    assert main(["realize", "--input", str(poset_file), "--max-len", "3"]) == 2
    assert _one_line_parse_error(capsys)


@pytest.mark.parametrize("text", [
    '{"n": 3, "covers": [[0, 1], [1, 2]], "upper_order": [[1], [2], []]',
    '{"n": 3, "covers": [[0, 1], [1, 2]], "upper_order": [[1], [2], []]}',
    '{"n": 3, "covers": [[0, 1], [1, 2]], "upper_order": 5, "lower_order": []}',
    '{"n": 3, "covers": [[0, 1], [1, 2]], "upper_order": [[1], [2], []], '
    '"lower_order": [null, [0], [1]]}',
    '{"n": null, "covers": [], "upper_order": [], "lower_order": []}',
])
def test_validate_malformed_lattice_json_exits_2(tmp_path, capsys, text):
    lattice_json = tmp_path / "bad.json"
    lattice_json.write_text(text)
    assert main(["validate", "--input", str(lattice_json), "--format", "json"]) == 2
    assert _one_line_parse_error(capsys)


def test_negative_max_len_exits_2(capsys):
    assert main(["enumerate", "--max-len", "-3"]) == 2
    assert _one_line_parse_error(capsys)


def test_validate_tab_separated_dsl(tmp_path):
    seq = tmp_path / "tabs.seq"
    seq.write_text("grid\t2 1\nfork\t1\t0\t1\n")
    assert main(["validate", "--input", str(seq)]) == 0


def _one_line_budget_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("budget exceeded: ") and err.count("\n") == 1


def test_json_element_budget_exits_3(tmp_path, capsys):
    poset_file = tmp_path / "huge.poset"
    poset_file.write_text('{"n": 100000000, "covers": []}')
    assert main(["realize", "--input", str(poset_file), "--max-len", "3"]) == 3
    assert _one_line_budget_error(capsys)

    lattice_json = tmp_path / "huge.json"
    lattice_json.write_text(
        '{"n": 100000000, "covers": [], "upper_order": [], "lower_order": []}'
    )
    assert main(["validate", "--input", str(lattice_json), "--format", "json"]) == 3
    assert _one_line_budget_error(capsys)


@pytest.mark.parametrize("text", ["grid 5000 5000\n", "grid 1 1\nfork 0 0 100000\n"])
def test_dsl_element_budget_exits_3(tmp_path, capsys, text):
    seq = tmp_path / "huge.seq"
    seq.write_text(text)
    assert main(["build", "--input", str(seq)]) == 3
    assert _one_line_budget_error(capsys)


@pytest.mark.parametrize("command", [
    "realize", "lamps", "validate", "build", "con", "reduce", "minimize",
    "decompose", "double", "render",
])
def test_missing_input_exits_2(command, capsys):
    assert main([command]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: --input FILE is required for {command}\n"


@pytest.mark.parametrize("argv", [
    ["build", "--input", "s7.seq", "--format", "json"],
    ["enumerate", "--step", "3"],
    ["double", "--input", "s7.seq", "--max-len", "4"],
    ["validate", "--input", "s7.json", "--render-format", "svg"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.slow
def test_con_on_a_thousand_element_chain(tmp_path):
    """A chain's congruences are independent, one per cover, so Con has
    2**999 elements; counting them must not recurse once per element."""
    n = 1000
    lattice = tmp_path / "chain.json"
    lattice.write_text(json.dumps({
        "n": n,
        "covers": [[i, i + 1] for i in range(n - 1)],
        "upper_order": [[i + 1] for i in range(n - 1)] + [[]],
        "lower_order": [[]] + [[i] for i in range(n - 1)],
    }))
    out = tmp_path / "con.json"
    src = str(Path(slimlat.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "slimlat.cli", "con", "--input", str(lattice),
         "--format", "json", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(out.read_text())["con_size"] == 2 ** 999
