"""Malformed input ends as a ``PrgError`` or exit code 1, never a traceback.

Texts are arbitrary, assembled from PRG-like lines, or the text of a
random valid graph with at most one line replaced, so that many of them
parse and reach the group checks.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge.cli import main
from cprforge.errors import PrgError
from cprforge.prg import LabeledGraph

from test_random_graphs import graphs

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

# mostly small fields, sometimes any integer at all
fields = st.one_of(st.integers(-2, 9), st.integers())
lines = st.one_of(
    st.builds("vertices {}".format, fields),
    st.builds("edge {} {} {}".format, st.integers(0, 4), st.integers(1, 8),
              st.integers(1, 8)),
    st.builds("edge {} {} {}".format, fields, fields, fields),
    st.sampled_from(["", "# comment", "vertices", "edge 0 1", "edge 0 1 2 3",
                     "vertices 1_000_000_000", "vertices -1", "vertices x",
                     "edge 0 1 1", "\tedge 1 2 3 ", "vertex 3"]),
    st.text(max_size=20),
)


@st.composite
def graph_texts(draw):
    text_lines = draw(graphs()).serialize().splitlines()
    if draw(st.booleans()):
        text_lines[draw(st.integers(0, len(text_lines) - 1))] = draw(lines)
    return "\n".join(text_lines) + "\n"


texts = st.one_of(st.text(), st.lists(lines, max_size=10).map("\n".join),
                  graph_texts())


@SETTINGS
@given(texts)
def test_parse_returns_a_graph_or_raises_prg_error(text):
    try:
        g = LabeledGraph.parse(text)
    except PrgError:
        return
    assert LabeledGraph.parse(g.serialize()) == g


@SETTINGS
@given(text=texts, mode=st.sampled_from(["recursive", "full"]))
def test_check_exits_with_a_code_and_no_traceback(tmp_path_factory, text, mode):
    path = tmp_path_factory.mktemp("fuzz") / "g.prg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--mode", mode])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
