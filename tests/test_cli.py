"""CLI surface: exit codes, reports, gluing, golden files."""

import json
import pathlib

import jsonschema
import pytest

from cprforge import cli
from cprforge import constructions as cons
from cprforge import prg
from cprforge.cgroup import Sggi
from cprforge.cli import main
from cprforge.perm_core import DEFAULT_INTERSECTION_CAP
from cprforge.prg import LabeledGraph
from cprforge.report import REPORT_SCHEMA, build_report

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def write(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(graph.serialize())
    return str(path)


# -- gen ------------------------------------------------------------------------

def test_gen_to_stdout(capsys):
    assert main(["gen", "simplex", "--r", "3"]) == 0
    out = capsys.readouterr().out
    assert LabeledGraph.parse(out) == cons.simplex(3)


def test_gen_graph_x_file(tmp_path):
    out = tmp_path / "gx.prg"
    assert main(["gen", "graph-x", "--r", "5", "--h", "1",
                 "--out", str(out)]) == 0
    assert LabeledGraph.parse(out.read_text()) == cons.family_graph_x(5, 1)


def test_gen_speccase_matches_paper_generators(tmp_path):
    out = tmp_path / "sc.prg"
    assert main(["gen", "speccase", "--r", "3", "--out", str(out)]) == 0
    g = LabeledGraph.parse(out.read_text())
    from cprforge.perm_core import Permutation
    assert g.generator_of_label(0) == Permutation.parse("(1,2)(5,6)", 6)
    assert g.generator_of_label(1) == Permutation.parse("(2,3)", 6)
    assert g.generator_of_label(2) == Permutation.parse("(3,4)(1,5)(2,6)", 6)


def test_gen_errors(capsys):
    assert main(["gen", "unknown-family"]) == 1
    assert "unknown family" in capsys.readouterr().err
    assert main(["gen", "simplex"]) == 1
    assert main(["gen", "simplex", "--r", "0"]) == 1


def test_gen_refuses_parameter_over_vertex_bound_before_building(monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cons.FAMILIES, "simplex",
                        (lambda r: calls.append(r), ("r",)))
    assert main(["gen", "simplex", "--r", "2000"]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(prg.MAX_DEGREE) in err


def test_unwritable_output_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing"
    a = write(tmp_path, "a.prg", cons.simplex(2))
    for argv in (["gen", "simplex", "--r", "2", "--out", str(missing / "x.prg")],
                 ["glue", "--method", "pendant", a, "--out", str(missing / "p.prg")],
                 ["check", a, "--json", str(missing / "r.json")]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "Traceback" not in err
    assert not missing.exists()


def test_json_report_bytes(tmp_path):
    path = write(tmp_path, "gx.prg", cons.family_graph_x(5, 1))
    out = tmp_path / "report.json"
    assert main(["check", path, "--json", str(out)]) == 2
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# -- check ----------------------------------------------------------------------

def test_check_exit_codes(tmp_path, capsys):
    ok = write(tmp_path, "s4.prg", cons.simplex(4))
    assert main(["check", ok]) == 0

    ip_fail = write(tmp_path, "gx.prg", cons.family_graph_x(5, 1))
    assert main(["check", ip_fail]) == 2

    # labels 0 and 2 share vertex 2, so the string property fails
    sp_fail = write(tmp_path, "sp.prg",
                    LabeledGraph(4, [(0, 1, 2), (1, 3, 4), (2, 2, 3)]))
    assert main(["check", sp_fail]) == 3
    assert "string property: FAILS" in capsys.readouterr().out

    bad = tmp_path / "bad.prg"
    bad.write_text("edge 0 1 2\n")
    assert main(["check", str(bad)]) == 1
    assert main(["check", str(tmp_path / "missing.prg")]) == 1


def test_check_json_report_validates(tmp_path):
    path = write(tmp_path, "gx.prg", cons.family_graph_x(5, 1))
    out = tmp_path / "report.json"
    assert main(["check", path, "--json", str(out)]) == 2
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["string_c_group"] is False
    assert report["certificate"]["status"] == "fail"
    assert report["certificate"]["witness"] == "(6,8)(7,9)"
    assert report["group_order"] == 362880


def test_check_cap_env_and_flag(tmp_path, monkeypatch):
    path = write(tmp_path, "w4.prg", cons.family_wreathsimp(4))
    assert main(["check", path, "--cap", "2"]) == 1     # flag cap too small
    monkeypatch.setenv("CPRFORGE_CAP", "2")
    assert main(["check", path]) == 0                   # the environment is not read


def test_check_reports_are_deterministic(tmp_path):
    path = write(tmp_path, "gx.prg", cons.family_graph_x(5, 1))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", path, "--json", str(a)]) == 2
    assert main(["check", path, "--json", str(b)]) == 2
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timings"), rb.pop("timings")
    assert ra == rb


def test_check_full_mode(tmp_path):
    g = cons.family_graph_x(5, 1)
    path = write(tmp_path, "gx.prg", g)
    a = tmp_path / "a.json"
    assert main(["check", path, "--mode", "full", "--json", str(a)]) == 2
    # the canonically first failing subset pair
    expected = Sggi.from_graph(g).check_ip_full().to_json()
    assert json.loads(a.read_text())["certificate"] == expected


def test_check_cap_error_names_the_node(tmp_path, capsys):
    path = write(tmp_path, "w4.prg", cons.family_wreathsimp(4))
    assert main(["check", path, "--cap", "2"]) == 1
    err = capsys.readouterr().err
    assert "sections for [0, 1] and [1, 2]" in err
    assert "orders 8 and 6" in err and "cap 2" in err


def test_check_refuses_vertex_count_over_bound(tmp_path, capsys):
    path = tmp_path / "huge.prg"
    path.write_text(f"vertices {prg.MAX_DEGREE + 1}\nedge 0 1 2\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:") and "exceeds the bound" in err


def test_successive_calls_share_no_options(tmp_path, monkeypatch):
    """One parser serves every call; a namespace never outlives its call."""
    monkeypatch.delenv("CPRFORGE_CAP", raising=False)
    seen = []

    def recording(g, descriptor, mode, cap):
        seen.append((mode, cap))
        return build_report(g, descriptor, mode=mode, cap=cap)

    monkeypatch.setattr(cli, "build_report", recording)
    path = write(tmp_path, "gx.prg", cons.family_graph_x(5, 1))
    assert main(["check", path, "--mode", "full", "--cap", "5"]) == 1
    assert main(["check", path]) == 2
    assert seen == [("full", 5), ("recursive", DEFAULT_INTERSECTION_CAP)]
    assert cli.build_parser() is cli.build_parser()
    assert main(["--help"]) == 0


def test_usage_errors_exit_1(tmp_path, capsys):
    path = write(tmp_path, "s3.prg", cons.simplex(3))
    assert main(["check", path, "--mode", "bogus"]) == 1
    assert main(["check", path, "--jobs", "2"]) == 1      # removed flag
    assert main(["check", path, "--any-failure"]) == 1   # removed flag
    assert main(["check", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--jobs" not in out and "--any-failure" not in out


# -- glue -----------------------------------------------------------------------

def test_glue_theorem1_cli(tmp_path, capsys):
    a = write(tmp_path, "a.prg", cons.simplex(2))
    b = write(tmp_path, "b.prg", cons.simplex(3))
    out = tmp_path / "g.prg"
    assert main(["glue", "--method", "theorem1", a, b, "--out", str(out)]) == 0
    assert "window [-2, 2]" in capsys.readouterr().err
    glued = LabeledGraph.parse(out.read_text())
    assert glued.shift_labels(2) == cons.simplex(5)


def test_glue_pendant_cli(tmp_path):
    a = write(tmp_path, "a.prg", cons.simplex(2))
    out = tmp_path / "p.prg"
    assert main(["glue", "--method", "pendant", a, "--out", str(out)]) == 0
    assert LabeledGraph.parse(out.read_text()).n == 4


def test_glue_conjecture_cli(tmp_path):
    a = write(tmp_path, "a.prg", cons.simplex(3))
    out = tmp_path / "c.prg"
    assert main(["glue", "--method", "conjecture", "--i", "2", a,
                 "--out", str(out)]) == 0
    assert LabeledGraph.parse(out.read_text()) == cons.family_speccase(3)


def test_glue_errors(tmp_path, capsys):
    a = write(tmp_path, "a.prg", cons.simplex(2))
    b = write(tmp_path, "b.prg", cons.family_counterexample1(3, 1))
    assert main(["glue", "--method", "theorem1", a]) == 1
    assert main(["glue", "--method", "conjecture", a]) == 1
    assert main(["glue", "--method", "theorem1", a, b]) == 1
    assert "degree-1" in capsys.readouterr().err


# -- paper ----------------------------------------------------------------------

def test_paper_single_case(capsys):
    assert main(["paper", "--case", "speccase-generators"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] speccase-generators" in out
    assert "1/1 cases passed" in out


# -- golden reports ----------------------------------------------------------------

GOLDEN_CASES = {
    "simplex4": (cons.simplex(4), "recursive"),
    "graph_x_5_1": (cons.family_graph_x(5, 1), "recursive"),
    "sevenvertex_full": (cons.nonexample_sevenvertex(), "full"),
    "wreathsimp3": (cons.family_wreathsimp(3), "recursive"),
    "speccase3": (cons.family_speccase(3), "recursive"),
    "lemme1_3": (cons.family_lemme1(3), "recursive"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    graph, mode = GOLDEN_CASES[name]
    report, _ = build_report(graph, {"family": name}, mode=mode)
    report.pop("timings")
    jsonschema.validate({**report, "timings": {}}, REPORT_SCHEMA)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert report == golden, name
