"""Families and gluing procedures: canonical numbering, ranges, shapes."""

import math

import pytest

from cprforge import constructions as cons
from cprforge.cgroup import Sggi
from cprforge.constructions import FamilySpec, build_family
from cprforge.errors import ShapeViolation
from cprforge.prg import LabeledGraph, canonical_form

from conftest import closure_order


def order_of(g):
    return Sggi.from_graph(g).group().order


# -- frozen canonical shapes ----------------------------------------------------

def test_simplex_edges():
    assert cons.simplex(1).edges == ((0, 1, 2),)
    assert cons.simplex(3).edges == ((0, 1, 2), (1, 2, 3), (2, 3, 4))


def test_speccase3_edges():
    assert cons.family_speccase(3).edges == (
        (0, 1, 2), (0, 5, 6), (1, 2, 3), (2, 1, 5), (2, 2, 6), (2, 3, 4))


def test_graph_x_51_edges():
    assert cons.family_graph_x(5, 1).edges == (
        (0, 2, 3), (1, 1, 2), (1, 3, 4), (2, 4, 5), (2, 6, 8), (2, 7, 9),
        (3, 5, 6), (4, 6, 7), (4, 8, 9))


def test_wreathsimp_edges():
    assert cons.family_wreathsimp(2).edges == ((0, 2, 3), (1, 1, 2), (1, 3, 4))


def test_counterexample1_label_sequence():
    g = cons.family_counterexample1(4, 2)
    # path labels 2,1,0,1,2,3 left to right
    assert [lab for lab, _, _ in sorted(g.edges, key=lambda e: e[1])] == [
        2, 1, 0, 1, 2, 3]


def test_nonexample_shapes():
    assert cons.nonexample_doubleedge().edges == (
        (-1, 1, 2), (0, 2, 3), (0, 4, 5), (1, 3, 4), (2, 4, 5))
    assert cons.nonexample_sevenvertex().n == 8
    assert len(cons.nonexample_sevenvertex().edges) == 7
    assert cons.nonexample_simplex_union().components() == ((1, 2, 3, 4), (5, 6))


def test_generators_deterministic():
    a = cons.family_graph_x(6, 2).serialize()
    b = cons.family_graph_x(6, 2).serialize()
    assert a == b


# -- parameter ranges --------------------------------------------------------------

@pytest.mark.parametrize("fn, args", [
    (cons.simplex, (0,)),
    (cons.multisimplex, (2, 0)),
    (cons.family_result1, (2, 2)),
    (cons.family_result1, (0, 3)),
    (cons.family_wreathsimp, (1,)),
    (cons.family_lemme1, (1,)),
    (cons.family_counterexample1, (2, 1)),
    (cons.family_counterexample1, (4, 3)),
    (cons.family_graph_x, (4, 1)),
    (cons.family_graph_x, (5, 2)),
    (cons.family_speccase, (2,)),
    (cons.family_workswithsimplices, (1, 3)),
    (cons.family_workswithsimplices, (3, 3)),
])
def test_parameter_ranges(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


# -- vertex-count contracts ----------------------------------------------------------

def test_vertex_counts():
    for r, h in ((5, 1), (6, 1), (6, 2), (7, 3)):
        assert cons.family_graph_x(r, h).n == 2 * r - 1
    g, h = cons.simplex(3), cons.family_lemme1(3)
    h0 = cons.simplex(4)
    assert cons.glue_theorem1(g, h0).n == g.n + h0.n - 1
    assert cons.pendant_minus_one(g).n == g.n + 1
    assert cons.conjecture_glue(cons.simplex(4), 2).n == cons.simplex(4).n + 2


# -- theorem-1 gluing -----------------------------------------------------------------

def test_glue_simplex_exact_identity():
    for r in range(1, 5):
        for rt in range(1, 5):
            out = cons.glue_theorem1(cons.simplex(r), cons.simplex(rt))
            assert out.shift_labels(r) == cons.simplex(r + rt), (r, rt)


def test_glue_window_contract():
    g = cons.family_counterexample1(3, 1).dual()
    h = cons.simplex(3)
    out = cons.glue_theorem1(g, h)
    lo, hi = out.window()
    assert (lo, hi) == (-3, 2)
    assert set(out.labels) == set(range(-3, 3))


def test_glue_small_example_order():
    out = cons.glue_theorem1(cons.simplex(2), cons.simplex(2))
    assert out.n == 5
    assert sorted(out.labels) == [-2, -1, 0, 1]
    gens = Sggi.from_graph(out).generators()
    assert closure_order(gens, 5) == 120


def test_glue_shape_violations():
    two_zero_edges = cons.nonexample_doubleedge_base()
    with pytest.raises(ShapeViolation):
        cons.glue_theorem1(two_zero_edges, cons.simplex(2))
    with pytest.raises(ShapeViolation):
        cons.glue_theorem1(cons.simplex(2), two_zero_edges)
    # interior 0-edge: no degree-1 endpoint to anchor at
    with pytest.raises(ShapeViolation):
        cons.glue_theorem1(cons.family_counterexample1(3, 1), cons.simplex(2))
    # negative labels
    with pytest.raises(ShapeViolation):
        cons.glue_theorem1(cons.nonexample_sevenvertex(), cons.simplex(2))
    # label gap
    gap = LabeledGraph(4, [(0, 1, 2), (2, 3, 4)])
    with pytest.raises(ShapeViolation):
        cons.glue_theorem1(gap, cons.simplex(2))
    with pytest.raises(ShapeViolation):
        cons.glue_theorem1(LabeledGraph(2, []), cons.simplex(2))


# -- pendant ---------------------------------------------------------------------------

def test_pendant_on_simplex():
    out = cons.pendant_minus_one(cons.simplex(2))
    assert out.n == 4
    assert sorted(out.labels) == [-1, 0, 1]
    assert order_of(out) == 24
    assert canonical_form(out.shift_labels(1)) == canonical_form(cons.simplex(3))


def test_pendant_rejects_double_zero_edge():
    with pytest.raises(ShapeViolation):
        cons.pendant_minus_one(cons.nonexample_doubleedge_base())


def test_pendant_preserves_cpr_on_eligible_corpus(graph_corpus):
    # most canonical families carry several 0-edges or an interior 0-edge;
    # the 0-anchored-at-the-end orientation of the one-row family is its dual
    candidates = list(graph_corpus)
    candidates += [(f"dual(counterexample1({r},{h}))",
                    cons.family_counterexample1(r, h).dual())
                   for r, h in ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2))]
    checked = 0
    for name, g in candidates:
        if g.n > 9:
            continue
        sggi = Sggi.from_graph(g)
        if not sggi.is_string_c_group(mode="recursive").is_string_c_group:
            continue
        try:
            out = cons.pendant_minus_one(g)
        except ShapeViolation:
            continue
        checked += 1
        assert Sggi.from_graph(out).is_string_c_group(
            mode="recursive").is_string_c_group, name
    assert checked >= 10


# -- conjecture gluing --------------------------------------------------------------------

def test_conjecture_glue_matches_speccase():
    assert cons.conjecture_glue(cons.simplex(3), 2) == cons.family_speccase(3)
    assert cons.family_workswithsimplices(2, 3) == cons.family_speccase(3)


def test_conjecture_glue_orders():
    assert order_of(cons.family_workswithsimplices(2, 4)) == math.factorial(7)
    assert order_of(cons.family_workswithsimplices(3, 4)) == 2 * math.factorial(4) ** 2


def test_conjecture_glue_shape_violations():
    with pytest.raises(ShapeViolation):
        cons.conjecture_glue(cons.simplex(4), 1)
    # 0-edge not at a degree-1 vertex
    with pytest.raises(ShapeViolation):
        cons.conjecture_glue(cons.family_counterexample1(3, 1), 2)
    # second 0-edge
    with pytest.raises(ShapeViolation):
        cons.conjecture_glue(cons.multisimplex(3, 2), 2)
    # path vertex p_2 with an extra incident edge
    bad = LabeledGraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 2, 5)])
    with pytest.raises(ShapeViolation):
        cons.conjecture_glue(bad, 2)
    # off-path label below i
    low = LabeledGraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (1, 4, 5)])
    with pytest.raises(ShapeViolation):
        cons.conjecture_glue(low, 2)


ZERO_EDGE_VIOLATIONS = {
    "two 0-edges": (cons.multisimplex(3, 2),
                    "input: exactly one 0-edge required, found 2"),
    "interior 0-edge": (cons.family_counterexample1(3, 1),
                        "input: the 0-edge {2,3} has no degree-1 endpoint to anchor at"),
}


@pytest.mark.parametrize("name", sorted(ZERO_EDGE_VIOLATIONS))
def test_gluings_share_one_zero_edge_rule(name):
    g, text = ZERO_EDGE_VIOLATIONS[name]
    with pytest.raises(ShapeViolation) as glued:
        cons.glue_theorem1(cons.simplex(2), g)
    assert str(glued.value) == "second " + text
    with pytest.raises(ShapeViolation) as pendant:
        cons.pendant_minus_one(g)
    assert str(pendant.value) == text
    with pytest.raises(ShapeViolation) as conjecture:
        cons.conjecture_glue(g, 2)
    assert str(conjecture.value) == text


def test_conjecture_glue_dual_route_builds_graph_x():
    for r, h in ((5, 1), (6, 2)):
        base = cons.family_counterexample1(r, h).dual()
        built = cons.conjecture_glue(base, r - h - 2).dual()
        assert canonical_form(built) == canonical_form(cons.family_graph_x(r, h))


# -- family orders spot checks (closure oracle) ----------------------------------------------

def test_multisimplex_order_via_closure():
    g = cons.multisimplex(2, 3)
    gens = Sggi.from_graph(g).generators()
    assert closure_order(gens, g.n) == 6


def test_counterexample1_subcase_orders():
    for h in (1, 2):
        g = cons.family_counterexample1(h + 2, h)
        assert order_of(g) == math.factorial(2 * h + 3)


def test_wreathsimp_small_orders():
    assert order_of(cons.family_wreathsimp(2)) == 8
    assert order_of(cons.family_lemme1(2)) == 8


# -- registry ----------------------------------------------------------------------------------

def test_build_family():
    g = build_family(FamilySpec("graph-x", {"r": 5, "h": 1}))
    assert g == cons.family_graph_x(5, 1)
    assert build_family(FamilySpec("simplex", {"r": 2})) == cons.simplex(2)
    with pytest.raises(ValueError):
        build_family(FamilySpec("nope", {}))
    with pytest.raises(ValueError):
        build_family(FamilySpec("simplex", {}))
    with pytest.raises(ValueError):
        build_family(FamilySpec("simplex", {"r": 2, "h": 1}))
