"""Fracture graphs, splits, fingerprints and the refutation witness."""

import math

import pytest

from cprforge import constructions as cons
from cprforge.analysis import (
    find_splits,
    fingerprint,
    fracture_graph,
    graph_x_witness,
    is_perfect_split,
    verify_graph_x_witness,
)
from cprforge.cgroup import Sggi
from cprforge.errors import NoFractureGraph
from cprforge.perm_core import Permutation, compose
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
    report = verify_graph_x_witness(5, 1)
    assert report.sigma == Permutation.parse("(6,8)(7,9)", 9)
    assert report.ok
    assert report.in_low and report.in_high and not report.in_meet
    assert report.order_meet == 12
    for r, h in ((6, 1), (6, 2)):
        assert verify_graph_x_witness(r, h).ok


def test_witness_negative_membership_by_enumeration():
    report = verify_graph_x_witness(5, 1)
    sggi = Sggi.from_graph(cons.family_graph_x(5, 1))
    gens = [sggi.generator(l) for l in range(1, 3)]
    assert report.sigma not in closure_set(gens, 9)


def test_witness_implies_recursive_failure():
    for r, h in ((5, 1), (6, 2)):
        assert verify_graph_x_witness(r, h).ok
        cert = Sggi.from_graph(cons.family_graph_x(r, h)).check_ip_recursive()
        assert not cert.ok


def test_witness_range_check():
    with pytest.raises(ValueError):
        verify_graph_x_witness(4, 1)


def test_fingerprint_computes_block_systems_once(monkeypatch):
    from cprforge.perm_core import PermGroup
    calls = []
    finest = PermGroup._finest_block_system_with

    def counting(self, a, b):
        calls.append((a, b))
        return finest(self, a, b)

    monkeypatch.setattr(PermGroup, "_finest_block_system_with", counting)
    fp = fingerprint(group_of(cons.family_wreathsimp(6)))
    assert fp.primitive is False and fp.named_match.name == "C2wrSr"
    # one finest system per partner of point 1 in the 12-point group
    assert len(calls) == 11
