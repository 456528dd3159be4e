"""Each input check raises its named error, and the CLI maps it to exit 1."""

import pytest

from cprforge import constructions as cons
from cprforge.cgroup import LabelWindow, Sggi
from cprforge.cli import main
from cprforge.errors import DegreeMismatch, PrgSyntaxError, VertexOutOfRange
from cprforge.perm_core import PermGroup, Permutation, intersection_order
from cprforge.prg import LabeledGraph

BAD_FIELD = "vertices 3\nedge 0 1 x\n"


def P(text, degree):
    return Permutation.parse(text, degree)


@pytest.mark.parametrize("call, error, message", [
    (lambda: LabeledGraph.parse(BAD_FIELD), PrgSyntaxError, "line 2: non-integer field"),
    (lambda: LabeledGraph(-1, []), VertexOutOfRange, "is negative"),
    (lambda: Permutation([1, 1]), ValueError, "not a permutation"),
    (lambda: P("(1,a)", 3), ValueError, "bad cycle notation"),
    (lambda: P("(1)", 3), ValueError, "bad cycle notation"),
    (lambda: Permutation.from_cycles(3, [()]), ValueError,
     "empty cycle at index 0"),
    (lambda: Permutation.from_cycles(4, [(1, 2), []]), ValueError,
     "empty cycle at index 1"),
    (lambda: PermGroup([P("(1,2)", 3), P("(1,2)", 4)]), DegreeMismatch,
     "generator degree 4"),
    (lambda: PermGroup([P("(1,2)", 4)], extends=PermGroup([P("(1,2)", 3)])),
     DegreeMismatch, "extended group degree 3"),
    (lambda: intersection_order(PermGroup([P("(1,2)", 3)]), PermGroup([P("(1,2)", 4)])),
     DegreeMismatch, "degree 3 vs 4"),
    (lambda: Sggi(LabelWindow(0, 0), {0: P("(1,2)", 3)}, 4), DegreeMismatch,
     "label 0: degree 3"),
    (lambda: LabelWindow(2, 1), ValueError, "empty label window"),
], ids=["prg-field", "negative-vertices", "repeated-image", "cycle-letter",
        "cycle-singleton", "empty-cycle", "empty-later-cycle", "mixed-generators",
        "extends-degree", "intersection-degrees", "sggi-degree", "empty-window"])
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    if error is PrgSyntaxError:
        assert info.value.line == 2


def test_from_cycles_accepts_one_cycles():
    assert Permutation.from_cycles(3, [(2,)]) == Permutation.identity(3)
    assert Permutation.from_cycles(3, [(1, 3), (2,)]) == P("(1,3)", 3)


@pytest.mark.parametrize("argv, message", [
    (["check", "{bad}"], "error: line 2:"),
    (["glue", "--method", "pendant", "{s4}", "{s4}"], "needs exactly one input graph"),
    (["glue", "--method", "conjecture", "--i", "2", "{s4}", "{s4}"],
     "needs exactly one input graph"),
], ids=["check-prg-field", "pendant-two-inputs", "conjecture-two-inputs"])
def test_cli_input_check_exits_1(tmp_path, capsys, argv, message):
    bad, s4 = tmp_path / "bad.prg", tmp_path / "s4.prg"
    bad.write_text(BAD_FIELD)
    s4.write_text(cons.simplex(4).serialize())
    argv = [arg.format(bad=bad, s4=s4) for arg in argv]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
