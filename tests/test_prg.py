"""Graph parsing, label algebra and shape checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge import prg
from cprforge.cgroup import Sggi
from cprforge.errors import (
    DuplicateEdge,
    MatchingViolation,
    PrgSyntaxError,
    VertexOutOfRange,
)
from cprforge.perm_core import Permutation
from cprforge.prg import LabeledGraph, canonical_form


# -- parse / serialize --------------------------------------------------------

def test_parse_minimal():
    g = LabeledGraph.parse("vertices 2\nedge 0 1 2\n")
    assert g.n == 2 and g.edges == ((0, 1, 2),)


def test_parse_matching_violation():
    with pytest.raises(MatchingViolation):
        LabeledGraph.parse("vertices 3\nedge 0 1 2\nedge 0 2 3\n")


def test_parse_comments_blanks_and_order():
    text = "# a comment\n\nvertices 3\nedge 1 2 3\n# more\nedge 0 2 1\n"
    g = LabeledGraph.parse(text)
    assert g.edges == ((0, 1, 2), (1, 2, 3))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PrgSyntaxError) as err:
        LabeledGraph.parse("vertices 2\nedge 0 1\n")
    assert err.value.line == 2
    with pytest.raises(PrgSyntaxError) as err:
        LabeledGraph.parse("edge 0 1 2\n")
    assert err.value.line == 1
    with pytest.raises(PrgSyntaxError):
        LabeledGraph.parse("vertices 2\nvertices 2\n")
    with pytest.raises(PrgSyntaxError):
        LabeledGraph.parse("vertices 2\nfrobnicate\n")
    with pytest.raises(PrgSyntaxError):
        LabeledGraph.parse("")


def test_vertex_count_bound():
    # refused by parse, before any generator of a billion points exists
    with pytest.raises(PrgSyntaxError) as err:
        LabeledGraph.parse("# huge\nvertices 1000000000\nedge 0 1 2\n")
    assert err.value.line == 2
    assert "exceeds the bound" in str(err.value)
    with pytest.raises(VertexOutOfRange):
        LabeledGraph(prg.MAX_DEGREE + 1, [])
    g = LabeledGraph.parse(f"vertices {prg.MAX_DEGREE}\nedge 0 1 2\n")
    assert g.n == prg.MAX_DEGREE


def test_duplicate_edge_and_range():
    with pytest.raises(DuplicateEdge):
        LabeledGraph(3, [(0, 1, 2), (0, 2, 1)])
    with pytest.raises(VertexOutOfRange):
        LabeledGraph(2, [(0, 1, 3)])
    with pytest.raises(VertexOutOfRange):
        LabeledGraph(2, [(0, 1, 1)])


def test_round_trip_simplex():
    g = cons.simplex(3)
    assert LabeledGraph.parse(g.serialize()) == g


def test_serialize_sorted():
    g = LabeledGraph(3, [(1, 2, 3), (0, 3, 1)])
    assert g.serialize() == "vertices 3\nedge 0 1 3\nedge 1 2 3\n"


# -- label algebra ------------------------------------------------------------

def test_generator_of_label():
    g = cons.simplex(2)
    assert g.generator_of_label(0) == Permutation.parse("(1,2)", 3)
    assert g.generator_of_label(5).is_identity()
    spec = cons.family_speccase(3)
    assert spec.generator_of_label(2) == Permutation.parse("(3,4)(1,5)(2,6)", 6)


def test_restrict_labels():
    g = cons.simplex(3)
    kept = g.restrict_labels({0, 1})
    assert kept.n == 4
    assert kept.components() == ((1, 2, 3), (4,))
    assert g.restrict_labels(set(g.labels)) == g
    gx = cons.family_graph_x(5, 1).restrict_labels({0, 1, 2})
    rho2 = gx.generator_of_label(2)
    assert len(rho2.cycles()) == 3
    assert all(len(c) == 2 for c in rho2.cycles())


def test_components():
    assert cons.multisimplex(2, 2).components() == ((1, 2, 3), (4, 5, 6))
    assert cons.simplex(4).components() == ((1, 2, 3, 4, 5),)
    assert LabeledGraph(3, []).components() == ((1,), (2,), (3,))


def test_dual():
    g = cons.family_result1(1, 3)
    assert sorted(g.dual().labels) == [0, 1, 2]
    # label 0 edges become label 2 edges
    assert set(g.dual().edges_with_label(2)) == {
        (2, a, b) for _, a, b in g.edges_with_label(0)}
    for r in (2, 3, 4):
        assert cons.simplex(r).dual().dual() == cons.simplex(r)


def test_negate_and_shift():
    g = cons.simplex(3)
    assert list(g.negate_relabel().labels) == [-3, -2, -1]
    assert g.negate_relabel().negate_relabel() == g
    assert g.shift_labels(5).shift_labels(-5) == g
    glued = cons.glue_theorem1(cons.simplex(2), cons.simplex(2))
    assert glued.shift_labels(2) == cons.simplex(4)


def test_union_disjoint():
    assert cons.simplex(2).union_disjoint(cons.simplex(2)) == cons.multisimplex(2, 2)
    g = cons.simplex(3)
    assert g.union_disjoint(LabeledGraph(0, [])) == g


def test_label_ops_preserve_counts(graph_corpus):
    for name, g in graph_corpus:
        for out in (g.dual(), g.negate_relabel(), g.shift_labels(3)):
            assert out.n == g.n, name
            assert len(out.edges) == len(g.edges), name


def test_components_equal_group_orbits(graph_corpus):
    from cprforge.perm_core import PermGroup
    for name, g in graph_corpus:
        gens = [g.generator_of_label(l) for l in g.labels]
        group = PermGroup(gens, degree=g.n)
        assert group.orbits() == g.components(), name


def test_generator_of_label_is_involution_or_identity(graph_corpus):
    from cprforge.perm_core import compose
    for name, g in graph_corpus:
        for label in list(g.labels) + [99]:
            p = g.generator_of_label(label)
            assert compose(p, p).is_identity(), (name, label)


# -- shape lemma ---------------------------------------------------------------

def test_shape_lemma_pass_cases():
    assert cons.simplex(4).check_shape_lemma().ok
    assert cons.nonexample_doubleedge().check_shape_lemma().ok


def test_shape_lemma_fail_case():
    # three-edge path with labels 0,2,0: the {0,2}-subgraph is a long path
    g = LabeledGraph(4, [(0, 1, 2), (2, 2, 3), (0, 3, 4)])
    verdict = g.check_shape_lemma()
    assert not verdict.ok
    assert verdict.label_pair == (0, 2)


def test_shape_lemma_matches_string_property(graph_corpus):
    for name, g in graph_corpus:
        sggi = Sggi.from_graph(g)
        assert g.check_shape_lemma().ok == sggi.check_string_property().ok, name


# -- canonical form -------------------------------------------------------------

def test_canonical_form_is_renumbering_invariant():
    g = cons.family_graph_x(5, 1)
    relabeled = _apply_renumbering(g, Permutation.parse("(1,9)(2,8)(3,7)", 9))
    assert relabeled != g
    assert canonical_form(relabeled) == canonical_form(g)


def test_canonical_form_separates_different_labelings():
    a = LabeledGraph(3, [(0, 1, 2), (1, 2, 3)])
    b = LabeledGraph(3, [(0, 1, 2), (2, 2, 3)])
    assert canonical_form(a) != canonical_form(b)


def _apply_renumbering(g, perm):
    return LabeledGraph(g.n, [(lab, perm.apply(a), perm.apply(b))
                              for lab, a, b in g.edges])


# -- property tests --------------------------------------------------------------

@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 7))
    num_labels = draw(st.integers(1, 3))
    edges = []
    for label in range(num_labels):
        pts = list(range(1, n + 1))
        draw(st.randoms(use_true_random=False)).shuffle(pts)
        pairs = draw(st.integers(0, n // 2))
        for k in range(pairs):
            a, b = pts[2 * k], pts[2 * k + 1]
            edges.append((label, min(a, b), max(a, b)))
    return LabeledGraph(n, edges)


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_parse_serialize_round_trip(g):
    assert LabeledGraph.parse(g.serialize()) == g


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_shape_lemma_equals_string_property(g):
    # the string property by definition: present labels two or more apart
    # have commuting involutions
    gens = {label: g.generator_of_label(label) for label in g.labels}
    commuting = all(gens[i] * gens[j] == gens[j] * gens[i]
                    for i in g.labels for j in g.labels if j - i >= 2)
    assert g.check_shape_lemma().ok == commuting
    if g.labels and len(g.labels) == g.labels[-1] - g.labels[0] + 1:
        assert Sggi.from_graph(g).check_string_property().ok == commuting


@st.composite
def graphs_with_renumbering(draw):
    g = draw(random_graphs())
    images = list(range(1, g.n + 1))
    draw(st.randoms(use_true_random=False)).shuffle(images)
    return g, Permutation(images)


@given(graphs_with_renumbering())
@settings(max_examples=60, deadline=None)
def test_canonical_form_invariance(pair):
    g, perm = pair
    relabeled = _apply_renumbering(g, perm)
    assert canonical_form(relabeled) == canonical_form(g)
