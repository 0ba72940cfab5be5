"""Command-line front end: subcommands, flags, exit codes, outputs."""

import csv
from pathlib import Path

import pytest

from shapespace.cli import cli_main
from shapespace.explore import CSV_HEADER


GRAMMARS = Path(__file__).resolve().parents[1] / "src" / "shapespace" / "grammars"


def gg(name):
    return str(GRAMMARS / f"{name}.gg")


def test_check_ok(capsys):
    assert cli_main(["check", gg("firewall-2")]) == 0
    out = capsys.readouterr().out
    assert "5 rules" in out and "ok" in out


def test_check_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.gg"
    bad.write_text("graph\n  node a X\n")
    assert cli_main(["check", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file():
    assert cli_main(["check", "/no/such/file.gg"]) == 1


def test_bundled_name_resolution(capsys):
    assert cli_main(["check", "counter"]) == 0
    assert "counter" in capsys.readouterr().out


def test_abstract_prints_dot(capsys):
    assert cli_main(["abstract", gg("firewall-2")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and "fw" in out


def test_explore_complete_run(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    code = cli_main(["explore", gg("firewall-2"), "--engine", "abstract",
                     "--strategy", "dfs", "--subsumption", "on",
                     "--stats-csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("firewall-2,abstract,dfs,on,")


def test_explore_concrete_depth_capped():
    assert cli_main(["explore", gg("counter"), "--engine", "concrete",
                     "--max-depth", "6"]) == 0


def test_explore_timeout_partial(tmp_path):
    csv = tmp_path / "out.csv"
    code = cli_main(["explore", gg("firewall-6F"), "--engine", "abstract",
                     "--subsumption", "off", "--timeout", "0.01",
                     "--stats-csv", str(csv)])
    assert code == 2
    assert csv.read_text().splitlines()[1].endswith(",false")


def test_explore_dot_output(tmp_path):
    dot = tmp_path / "lts.dot"
    assert cli_main(["explore", gg("counter"), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "add" in text


@pytest.mark.parametrize("flag", ["--dot", "--stats-csv"])
def test_unwritable_output_exits_1(flag, tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out"
    assert cli_main(["explore", "counter", flag, str(target)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "no-such-dir" in err[0]


@pytest.mark.parametrize("grammar_bytes, args", [
    (None, ["--max-depth", "-1"]),
    (None, ["--max-states", "-5"]),
    (None, ["--timeout", "-1"]),
    (None, ["--timeout", "nan"]),
    (b"\xff\xfe", []),
], ids=["max-depth", "max-states", "timeout", "timeout-nan", "non-utf8-file"])
def test_bad_input_exits_1(grammar_bytes, args, tmp_path, capsys):
    grammar = "counter"
    if grammar_bytes is not None:
        grammar = tmp_path / "bad.gg"
        grammar.write_bytes(grammar_bytes)
    assert cli_main(["explore", str(grammar), *args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert ("UTF-8" if grammar_bytes else "must not be negative") in err[0]


def test_materialisation_branch_cap_exits_1(monkeypatch, capsys):
    monkeypatch.setattr("shapespace.rules.MAX_BRANCHES", 0)
    assert cli_main(["explore", "counter"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "'add'" in err[0] and "branch" in err[0]


def test_bad_flag_usage_exits_1(capsys):
    assert cli_main(["explore", gg("counter"), "--engine", "quantum"]) == 1
    assert cli_main(["explore", "counter", "--engine", "nope"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice" in err and "abstract" in err and "concrete" in err
    assert cli_main(["frobnicate"]) == 1


def test_abstract_engine_with_nac_grammar_errors(tmp_path, capsys):
    f = tmp_path / "nac.gg"
    f.write_text("label P unary\ngraph\n  node a P\n"
                 "rule r\n  use node x P\n  not node y P\n")
    assert cli_main(["explore", str(f), "--engine", "abstract"]) == 1
    assert "negative condition" in capsys.readouterr().err


def test_csv_determinism_across_invocations(tmp_path):
    rows = []
    for i in range(2):
        csv = tmp_path / f"r{i}.csv"
        assert cli_main(["explore", gg("linked-list"), "--strategy", "bfs",
                         "--stats-csv", str(csv)]) == 0
        cells = csv.read_text().splitlines()[1].split(",")
        rows.append(",".join(cells[:12] + cells[14:]))
    assert rows[0] == rows[1]


def test_explore_concrete_many_twins(tmp_path, capsys):
    # One location with 1,200 packets at it: the packets are one twin
    # class, which the canonical form makes discrete without recursing
    # once per packet.
    lines = ["label L unary", "label P unary", "label at binary", "graph",
             "  node l L"]
    lines += [f"  node p{i} P" for i in range(1200)]
    lines += [f"  edge p{i} -at-> l" for i in range(1200)]
    lines += ["rule use-location", "  use node x L"]
    f = tmp_path / "twins.gg"
    f.write_text("\n".join(lines) + "\n")
    assert cli_main(["explore", str(f), "--engine", "concrete"]) == 0
    out = capsys.readouterr().out
    assert "generated" in out and "complete" in out
    assert out.splitlines()[-1].split() == ["complete", "true"]


def test_grammar_name_with_a_comma_is_one_cell(tmp_path, capsys):
    # With no grammar line the name is the file's stem, here "a,b".
    path = tmp_path / "a,b.gg"
    path.write_text("label P unary\ngraph\n  node a P\nrule r\n  use node x P\n")
    out = tmp_path / "stats.csv"
    assert cli_main(["explore", str(path), "--stats-csv", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [15, 15] and rows[1][0] == "a,b"
    assert capsys.readouterr().out.splitlines()[0].split() == ["grammar", "a,b"]
