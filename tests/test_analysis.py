"""Fracture graphs, splits, fingerprints and the refutation witness."""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons, paper_cases
from cprforge.analysis import (
    SplitReport,
    _label_deleted,
    find_splits,
    fingerprint,
    fracture_graph,
    graph_x_witness,
    is_perfect_split,
)
from cprforge.cgroup import Sggi, verify_certificate
from cprforge.errors import NoFractureGraph
from cprforge.perm_core import PermGroup, Permutation, compose
from cprforge.prg import LabeledGraph

from conftest import closure_set


# -- fracture graphs -------------------------------------------------------------

def test_fracture_simplex_is_whole_path():
    g = cons.simplex(4)
    report = fracture_graph(g)
    assert report.exists
    assert sorted(report.edges.values()) == [(a, b) for _, a, b in g.edges]


def test_fracture_wreathsimp_zero_edge():
    report = fracture_graph(cons.family_wreathsimp(3))
    assert report.exists
    assert report.edges[0] == (3, 4)


def test_fracture_single_edge():
    report = fracture_graph(LabeledGraph(2, [(0, 1, 2)]))
    assert report.exists and report.edges[0] == (1, 2)


def test_fracture_fails_on_doubled_pair():
    report = fracture_graph(cons.nonexample_doubleedge())
    assert not report.exists
    assert report.failing_labels == (2,)


# -- splits ----------------------------------------------------------------------

def test_simplex_interior_split_is_perfect():
    g = cons.simplex(3)
    splits = {s.label: s for s in find_splits(g)}
    split = splits[1]
    assert split.crossing_edge == (2, 3)
    assert split.perfect and split.orientation == "low-high"
    assert split.j_a == (0,) and split.j_b == (2,)
    assert split.side_a == (1, 2) and split.side_b == (3, 4)


def test_is_perfect_split():
    g = cons.simplex(3)
    assert is_perfect_split(g, 1, (2, 3))
    assert not is_perfect_split(g, 1, (1, 2))  # not even a 1-split
    gx = cons.family_graph_x(5, 1)
    assert not is_perfect_split(gx, 3, (5, 6))


def test_find_splits_requires_fracture_graph():
    with pytest.raises(NoFractureGraph):
        find_splits(cons.nonexample_doubleedge())


def test_find_splits_lists_the_label_deleted_graphs_once(monkeypatch):
    calls = []
    restrict = LabeledGraph.restrict_labels

    def spy(self, keep):
        calls.append(keep)
        return restrict(self, keep)

    monkeypatch.setattr(LabeledGraph, "restrict_labels", spy)
    find_splits(cons.simplex(6))
    assert len(calls) == 6


def test_find_splits_names_the_fracture_graphs_failing_labels(graph_corpus):
    graphs = [(name, graph) for name, g in graph_corpus for graph in (g, g.dual())]
    # both labels of a doubled edge, and a label whose edges stay in one orbit
    graphs.append(("doubled", LabeledGraph(2, [(0, 1, 2), (1, 1, 2)])))
    graphs.append(("triangle", LabeledGraph(3, [(0, 1, 2), (1, 2, 3), (2, 1, 3)])))
    checked = 0
    for name, g in graphs:
        report = fracture_graph(g)
        if report.exists:
            continue
        with pytest.raises(NoFractureGraph) as info:
            find_splits(g)
        assert info.value.failing_labels == report.failing_labels, name
        assert str(info.value) == (
            f"labels {list(report.failing_labels)} delete no orbit"), name
        checked += 1
    assert checked >= 4


def test_result1_split_with_disconnected_low_side():
    g = cons.family_result1(1, 2)
    splits = {s.label: s for s in find_splits(g)}
    split = splits[1]
    assert split.perfect
    # the extra component carries only label 0 and joins the low side
    assert set(split.side_a) == {1, 2, 3, 4}
    assert set(split.side_b) == {5}


def test_graph_x_splits_all_imperfect():
    splits = find_splits(cons.family_graph_x(5, 1))
    assert sorted(s.label for s in splits) == [0, 3]
    assert not any(s.perfect for s in splits)
    seam = [s for s in splits if s.label == 3][0]
    assert seam.crossing_edge == (5, 6)
    # the high side carries the vertical label 2 < 3, breaking perfection
    assert 2 in seam.j_b or 2 in seam.j_a


# The split classification as it stood before each component was classified
# once: one orientation closure tried low-high, then high-low, then a third
# assignment for imperfect splits.  ``find_splits`` must agree with it.

def _acting_labels(g, part, skip):
    return tuple(sorted({lab for lab, x, y in g.edges
                         if lab != skip and (x in part or y in part)}))


def reference_splits(g):
    fracture = fracture_graph(g)
    if not fracture.exists:
        raise NoFractureGraph("no fracture graph")
    base = g.components()
    splits = []
    for label, comps, comp_of, crossing in _label_deleted(g):
        if len(comps) != len(base) + 1 or len(crossing) != 1:
            continue
        a, b = crossing[0]
        part_a = set(comps[comp_of[a]])
        part_b = set(comps[comp_of[b]])
        others = [set(c) for idx, c in enumerate(comps)
                  if idx not in (comp_of[a], comp_of[b])]
        acting = {frozenset(c): _acting_labels(g, c, label)
                  for c in [part_a, part_b] + others}

        def orient(low_core, high_core):
            low, high = set(low_core), set(high_core)
            for comp in others:
                labs = acting[frozenset(comp)]
                if all(l < label for l in labs):
                    low |= comp
                elif all(l > label for l in labs):
                    high |= comp
                else:
                    return None
            j_low = _acting_labels(g, low, label)
            j_high = _acting_labels(g, high, label)
            if all(l < label for l in j_low) and all(l > label for l in j_high):
                return low, high, j_low, j_high
            return None

        low_first = orient(part_a, part_b)
        high_first = None if low_first else orient(part_b, part_a)
        if low_first:
            side_a, side_b, j_a, j_b = low_first
            perfect, orientation = True, "low-high"
        elif high_first:
            side_b, side_a, j_b, j_a = high_first
            perfect, orientation = True, "high-low"
        else:
            side_a, side_b = set(part_a), set(part_b)
            for comp in others:
                labs = acting[frozenset(comp)]
                if labs and min(labs) > label:
                    side_b |= comp
                else:
                    side_a |= comp
            j_a = _acting_labels(g, side_a, label)
            j_b = _acting_labels(g, side_b, label)
            perfect, orientation = False, None
        splits.append(SplitReport(
            label=label, crossing_edge=(a, b),
            side_a=tuple(sorted(side_a)), side_b=tuple(sorted(side_b)),
            j_a=j_a, j_b=j_b, perfect=perfect, orientation=orientation))
    return splits


def test_splits_match_reference_on_corpus_and_duals(graph_corpus):
    checked = 0
    for name, g in graph_corpus:
        for graph in (g, g.dual()):
            if fracture_graph(graph).exists:
                assert find_splits(graph) == reference_splits(graph), name
                checked += 1
    assert checked >= 20


SPLIT_CASES = {
    # an isolated vertex: a labelless other component, low and high at once
    "isolated-vertex": cons.simplex(3).union_disjoint(LabeledGraph(1, [])),
    # the crossing edge's a-side has no labels at all
    "labelless-core": LabeledGraph(2, [(0, 1, 2)]),
    # a high a-side and a labelless b-side: the high-low orientation
    "high-low": LabeledGraph(3, [(1, 1, 2), (0, 2, 3)]),
    # for label 1, the path 5-6-7 carries labels 0 and 2: a mixed component
    "mixed-component": cons.simplex(3).union_disjoint(
        LabeledGraph(3, [(0, 1, 2), (2, 2, 3)])),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_splits_match_reference_on_edge_cases(name):
    g = SPLIT_CASES[name]
    splits = find_splits(g)
    assert splits == reference_splits(g)
    orientations = {s.label: s.orientation for s in splits}
    if name == "high-low":
        assert orientations[0] == "high-low"
    if name == "mixed-component":
        assert orientations[1] is None


@st.composite
def split_graphs(draw):
    """2-9 vertices, labels 0..k-1 with 2 <= k <= 5, each label a non-empty
    matching; some vertices may stay isolated."""
    n = draw(st.integers(2, 9))
    edges = []
    for label in range(draw(st.integers(2, 5))):
        order = draw(st.permutations(range(1, n + 1)))
        m = draw(st.integers(1, n // 2))
        edges.extend((label, order[2 * e], order[2 * e + 1]) for e in range(m))
    return LabeledGraph(n, edges)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(split_graphs())
def test_splits_match_reference_on_random_graphs(g):
    assume(fracture_graph(g).exists)
    assert find_splits(g) == reference_splits(g)
    assert find_splits(g.dual()) == reference_splits(g.dual())


def test_perfect_split_implies_primitive(graph_corpus):
    for name, g in graph_corpus:
        if not fracture_graph(g).exists:
            continue
        group = Sggi.from_graph(g).group()
        for split in find_splits(g):
            if split.perfect and group.is_transitive:
                assert group.is_primitive(), name


def test_transposition_criterion(graph_corpus):
    # a primitive group with a generator moving exactly two of >= 5 points
    # is the full symmetric group
    for name, g in graph_corpus:
        group = Sggi.from_graph(g).group()
        if not group.is_transitive or not group.is_primitive():
            continue
        gens = Sggi.from_graph(g).generators()
        has_transposition = any(
            len(p.support()) == 2 and g.n - 2 >= 3 for p in gens)
        if has_transposition:
            assert group.order == math.factorial(g.n), name


# -- fingerprints -------------------------------------------------------------------

def group_of(g):
    return Sggi.from_graph(g).group()


def test_fingerprint_lemme1():
    fp = fingerprint(group_of(cons.family_lemme1(3)))
    assert fp.orbit_sizes == (5, 3)
    assert fp.factorization_check
    assert fp.named_match.name == "SaxSb"
    assert fp.named_match.params == {"a": 5, "b": 3}


def test_fingerprint_speccase():
    fp = fingerprint(group_of(cons.family_speccase(3)))
    assert fp.group_order == 72
    assert fp.transitive and fp.primitive is False
    assert fp.named_match.name == "SrwrC2"
    assert fp.named_match.params == {"r": 3}


def test_fingerprint_counterexample1():
    fp = fingerprint(group_of(cons.family_counterexample1(3, 1)))
    assert fp.named_match.name == "S_n"
    assert fp.named_match.params == {"n": 5}
    assert fp.primitive is True


def test_fingerprint_wreathsimp():
    fp = fingerprint(group_of(cons.family_wreathsimp(3)))
    assert fp.named_match.name == "C2wrSr"
    assert fp.named_match.params == {"r": 3}
    assert fp.group_order == 48


def test_fingerprint_multisimplex_diagonal():
    fp = fingerprint(group_of(cons.multisimplex(2, 2)))
    assert fp.orbit_sizes == (3, 3)
    assert not fp.factorization_check   # diagonal action, not a product
    assert fp.named_match is None


def test_fingerprint_result1():
    fp = fingerprint(group_of(cons.family_result1(1, 3)))
    assert fp.named_match.name == "SaxSb"
    assert fp.named_match.params == {"a": 2, "b": 4}


def test_fingerprint_union_nonexample():
    fp = fingerprint(group_of(cons.nonexample_simplex_union()))
    assert fp.orbit_sizes == (4, 2)
    assert fp.group_order == 48
    assert fp.factorization_check
    assert fp.named_match.name == "SaxSb"


@pytest.mark.parametrize("cycles, match", [
    # Sym on the orbit {1,2,3} times a cyclic group on {4..7}
    ([(1, 2), (2, 3), (4, 5, 6, 7)], ("StxH", {"t": 3, "h_order": 4})),
    # C3 x C4 factorizes, but no orbit induces its symmetric group
    ([(1, 2, 3), (4, 5, 6, 7)], None),
], ids=["StxH", "no-symmetric-orbit"])
def test_fingerprint_factorized_intransitive(cycles, match):
    fp = fingerprint(PermGroup([Permutation.from_cycles(7, [c]) for c in cycles]))
    assert fp.factorization_check
    named = fp.named_match and (fp.named_match.name, fp.named_match.params)
    assert named == match


CROSS_TABLE = [
    # family instance, expected match, expected string-C-group verdict
    (cons.simplex(5), ("S_n", {"n": 6}), True),
    (cons.family_wreathsimp(4), ("C2wrSr", {"r": 4}), True),
    (cons.family_speccase(4), ("SrwrC2", {"r": 4}), True),
    (cons.family_lemme1(4), ("SaxSb", {"a": 6, "b": 4}), True),
    (cons.family_result1(2, 4), ("SaxSb", {"a": 3, "b": 5}), True),
    (cons.family_counterexample1(5, 2), ("S_n", {"n": 8}), True),
    (cons.family_workswithsimplices(2, 4), ("S_n", {"n": 7}), True),
    (cons.family_graph_x(5, 1), ("S_n", {"n": 9}), False),
]


@pytest.mark.parametrize("g, match, expect_cpr", CROSS_TABLE,
                         ids=[str(i) for i in range(len(CROSS_TABLE))])
def test_named_match_cross_table(g, match, expect_cpr):
    fp = fingerprint(group_of(g))
    assert (fp.named_match.name, fp.named_match.params) == match
    verdict = Sggi.from_graph(g).is_string_c_group(mode="recursive")
    assert verdict.is_string_c_group == expect_cpr


# -- graph-X witness ------------------------------------------------------------------

def test_witness_construction_matches_generator_decomposition():
    for r, h in ((5, 1), (6, 1), (6, 2)):
        g = cons.family_graph_x(r, h)
        sigma = graph_x_witness(r, h)
        rho = g.generator_of_label(h + 1)
        ab = Permutation.from_cycles(g.n, [(2 * h + 2, 2 * h + 3)])
        assert compose(ab, rho) == sigma


def test_witness_memberships():
    """The engine fails first at the paper's node, kept labels 0..h+1 vs
    1..h+2, and the paper's sigma re-checks as that node's witness."""
    assert graph_x_witness(5, 1) == Permutation.parse("(6,8)(7,9)", 9)
    for r, h in ((5, 1), (6, 1), (6, 2)):
        sggi = Sggi.from_graph(cons.family_graph_x(r, h))
        cert = sggi.check_ip_recursive()
        assert not cert.ok
        assert (cert.left, cert.right) == (tuple(range(0, h + 2)), tuple(range(1, h + 3)))
        assert cert.meet == tuple(range(1, h + 2))
        assert verify_certificate(sggi, replace(cert, witness=graph_x_witness(r, h)))
        if (r, h) == (5, 1):
            assert cert.expected_order == sggi.section(cert.meet).order == 12


def test_witness_negative_membership_by_enumeration():
    sggi = Sggi.from_graph(cons.family_graph_x(5, 1))
    gens = [sggi.generator(l) for l in range(1, 3)]
    assert graph_x_witness(5, 1) not in closure_set(gens, 9)


@pytest.mark.parametrize("r, h", [(4, 1), (3, 1), (5, 2)])
def test_witness_refuses_what_the_graph_refuses(r, h):
    with pytest.raises(ValueError) as graph_error:
        cons.family_graph_x(r, h)
    with pytest.raises(ValueError) as witness_error:
        graph_x_witness(r, h)
    assert str(witness_error.value) == str(graph_error.value)
    assert str(graph_error.value) == (
        f"graph_x needs r >= 5 and 1 <= h <= r-4, got ({r}, {h})")


@pytest.mark.parametrize("label", ["1", "r-1"])
def test_refutation_case_rechecks_the_witness(monkeypatch, label):
    """A wrong sigma fails the case: the label-1 involution lies in the
    meet, the label r-1 involution outside the 0..h+1 section."""
    def wrong(r, h):
        return cons.family_graph_x(r, h).generator_of_label(1 if label == "1" else r - 1)

    monkeypatch.setattr(paper_cases, "graph_x_witness", wrong)
    case = paper_cases.case_graph_x_refutation()
    assert not case.ok
    for r, h in ((5, 1), (6, 1), (6, 2)):
        assert f"FAIL graph_x({r},{h}) witness does not re-check" in case.lines


def test_fingerprint_computes_block_systems_once(monkeypatch):
    from cprforge.perm_core import PermGroup
    calls = []
    finest = PermGroup._finest_block_system_with

    def counting(self, gen_imgs, a, b):
        calls.append((a, b))
        return finest(self, gen_imgs, a, b)

    monkeypatch.setattr(PermGroup, "_finest_block_system_with", counting)
    fp = fingerprint(group_of(cons.family_wreathsimp(6)))
    assert fp.primitive is False and fp.named_match.name == "C2wrSr"
    # one finest system per partner of point 1 in the 12-point group
    assert len(calls) == 11


def test_fingerprints_of_symmetric_orbit_products_search_nothing(monkeypatch):
    """Primitivity, induced orders and the match of S_n or S_a x S_b come
    from the orbits: no finest block system and no induced group."""
    from cprforge.perm_core import PermGroup
    graphs = ([cons.simplex(r) for r in range(2, 21)]
              + [cons.family_graph_x(r, h) for r in range(5, 9)
                 for h in range(1, min(r - 4, 3) + 1)]
              + [cons.family_lemme1(r) for r in range(3, 8)])
    groups = [group_of(g) for g in graphs]
    calls = []

    def spy(name):
        method = getattr(PermGroup, name)

        def recording(self, *args):
            calls.append(name)
            return method(self, *args)
        return recording

    for name in ("_finest_block_system_with", "induced_on"):
        monkeypatch.setattr(PermGroup, name, spy(name))
    for g, group in zip(graphs, groups):
        assert group.is_symmetric_orbit_product
        fp = fingerprint(group)
        sizes = fp.orbit_sizes
        assert fp.induced_orders == tuple(map(math.factorial, sizes))
        if fp.transitive:
            assert fp.primitive and fp.named_match.to_json() == {
                "name": "S_n", "params": {"n": g.n}}
        else:
            assert fp.named_match.to_json() == {
                "name": "SaxSb", "params": {"a": sizes[0], "b": sizes[1]}}
    assert len(groups) == 33 and calls == []
