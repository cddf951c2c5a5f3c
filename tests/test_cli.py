import json

import pytest

from slimlat.cli import main
from slimlat.order import named_posets


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


def test_minimize_cli(tmp_path):
    seq = tmp_path / "two.seq"
    seq.write_text("grid 2 2\nfork 1 1 2\n")
    out = tmp_path / "trace.json"
    assert main(["minimize", "--input", str(seq), "--out", str(out)]) == 0
    trace = json.loads(out.read_text())
    assert len(trace["steps"]) == 1
    assert trace["steps"][0]["rule"] == "neighboring"


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


def test_enumerate_cli(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["enumerate", "--max-len", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["counts"] == {"2": 1, "3": 2, "4": 6}


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


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.seq"
    bad.write_text("fork 0 0 1\n")
    assert main(["build", "--input", str(bad)]) == 2

    assert main(["enumerate", "--max-len", "9"]) == 3

    chain = tmp_path / "chain.json"
    chain.write_text('{"n": 3, "covers": [[0, 1], [1, 2]], '
                     '"upper_order": [[1], [2], []], "lower_order": [[], [0], [1]]}')
    assert main(["validate", "--input", str(chain), "--format", "json"]) == 1


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
