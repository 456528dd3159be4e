"""Sggi semantics: string property, sections, both IP checkers, sesqui."""

import threading

import pytest

from cprforge import constructions as cons
from cprforge.cgroup import LabelWindow, Sggi
from cprforge.errors import IdentityGenerator, IntersectionTooLarge, RankTooLarge
from cprforge.perm_core import Permutation
from cprforge.prg import LabeledGraph

from conftest import closure_set


def sggi_of(g):
    return Sggi.from_graph(g)


def make_sggi(degree, involutions):
    labels = sorted(involutions)
    window = LabelWindow(labels[0], labels[-1])
    return Sggi(window, {l: Permutation.parse(s, degree)
                         for l, s in involutions.items()}, degree)


# -- construction ---------------------------------------------------------------

def test_from_graph_simplex():
    s = sggi_of(cons.simplex(3))
    assert s.rank == 3 and s.degree == 4
    assert (s.window.lo, s.window.hi) == (0, 2)


def test_from_graph_glued_window():
    out = cons.glue_theorem1(cons.simplex(3), cons.simplex(2))
    s = sggi_of(out)
    assert (s.window.lo, s.window.hi) == (-3, 1)
    assert all(out.edges_with_label(l) for l in s.window.labels())


def test_from_graph_rejects_label_gap_before_building(monkeypatch):
    # a wide gap must not cost one generator per missing label
    g = LabeledGraph(3, [(0, 1, 2), (1000, 2, 3)])
    calls = []
    real = LabeledGraph.generator_of_label
    monkeypatch.setattr(LabeledGraph, "generator_of_label",
                        lambda self, label: calls.append(label) or real(self, label))
    with pytest.raises(IdentityGenerator, match="label 1 has no edges"):
        Sggi.from_graph(g)
    assert calls == []


def test_involution_validation():
    with pytest.raises(ValueError):
        make_sggi(3, {0: "(1,2,3)"})
    # an identity involution and a missing label are refused from any caller
    with pytest.raises(IdentityGenerator):
        Sggi(LabelWindow(0, 1), {0: Permutation.parse("(1,2)", 3),
                                 1: Permutation.identity(3)}, 3)
    with pytest.raises(IdentityGenerator):
        Sggi(LabelWindow(0, 1), {0: Permutation.parse("(1,2)", 3)}, 3)


# -- string property -------------------------------------------------------------

def test_string_property_simplex():
    assert sggi_of(cons.simplex(5)).check_string_property().ok


def test_string_property_corpus(graph_corpus):
    for name, g in graph_corpus:
        assert sggi_of(g).check_string_property().ok, name


def test_string_property_failure_pair():
    s = make_sggi(3, {0: "(1,2)", 1: "(2,3)", 2: "(1,3)"})
    verdict = s.check_string_property()
    assert not verdict.ok
    assert verdict.failing_pair == (0, 2)


# -- Schlafli ---------------------------------------------------------------------

def test_schlafli_types():
    assert sggi_of(cons.simplex(3)).schlafli_type() == (3, 3)
    assert make_sggi(3, {0: "(1,2)", 1: "(2,3)"}).schlafli_type() == (3,)
    with pytest.raises(ValueError):
        make_sggi(2, {0: "(1,2)"}).schlafli_type()


def test_schlafli_reverses_under_dual(graph_corpus):
    for name, g in graph_corpus:
        s = sggi_of(g)
        if s.rank < 2:
            continue
        assert s.dual().schlafli_type() == tuple(reversed(s.schlafli_type())), name


# -- sections ----------------------------------------------------------------------

def test_section_basics():
    s = sggi_of(cons.simplex(3))
    assert s.section(s.window.labels()).order == 24
    assert s.section([]).order == 1
    assert s.section([0]).order == 2
    with pytest.raises(KeyError):
        s.section([7])
    assert s.section([0, 1]) is s.section([1, 0])  # cached per subset


def test_sections_of_string_c_groups_are_string_c_groups(graph_corpus):
    # contiguous-interval sections of a passing sggi pass as well
    for name, g in graph_corpus:
        s = sggi_of(g)
        if not s.is_string_c_group(mode="recursive").is_string_c_group:
            continue
        if s.rank < 3 or s.degree > 9:
            continue
        lo, hi = s.window.lo, s.window.hi
        for a, b in ((lo, hi - 1), (lo + 1, hi)):
            labels = [l for l in range(a, b + 1)]
            gens = {l: s.generator(l) for l in labels}
            sub = Sggi(LabelWindow(a, b), gens, s.degree)
            assert sub.is_string_c_group(mode="recursive").is_string_c_group, name


# -- recursive checker ----------------------------------------------------------------

def test_recursive_simplexes_pass():
    for r in range(1, 7):
        assert sggi_of(cons.simplex(r)).check_ip_recursive().ok


def test_recursive_graph_x_fail_certificate():
    cert = sggi_of(cons.family_graph_x(5, 1)).check_ip_recursive()
    assert not cert.ok
    assert cert.actual_order > cert.expected_order
    assert cert.witness is not None


def test_recursive_doubleedge_fails():
    assert not sggi_of(cons.nonexample_doubleedge()).check_ip_recursive().ok


def test_certificate_soundness(graph_corpus):
    # a failing witness lies in both sections and escapes the meet section
    for name, g in graph_corpus:
        s = sggi_of(g)
        cert = s.check_ip_recursive()
        if cert.ok:
            continue
        left = s.section(cert.left)
        right = s.section(cert.right)
        meet = s.section(cert.meet)
        assert left.contains(cert.witness), name
        assert right.contains(cert.witness), name
        assert not meet.contains(cert.witness), name
        assert cert.expected_order == meet.order, name


def test_rank2_duplicate_involution_fails_ip():
    s = make_sggi(2, {0: "(1,2)", 1: "(1,2)"})
    cert = s.check_ip_recursive()
    assert not cert.ok
    assert cert.expected_order == 1 and cert.actual_order == 2
    assert cert.witness == Permutation.parse("(1,2)", 2)


def test_rank2_distinct_involutions_pass():
    s = make_sggi(3, {0: "(1,2)", 1: "(2,3)"})
    assert s.check_ip_recursive().ok
    assert s.check_ip_full().ok


# -- full checker -------------------------------------------------------------------------

def test_full_multisimplex_passes():
    assert sggi_of(cons.multisimplex(3, 2)).check_ip_full().ok


def test_full_sevenvertex_fails_with_orders():
    s = sggi_of(cons.nonexample_sevenvertex())
    cert = s.check_ip_full()
    assert not cert.ok
    # the known failing pair: kept {0,1,2} meets kept {-1,0} in order 4, expected 2
    left = s.section({0, 1, 2})
    right = s.section({-1, 0})
    meet = s.section({0})
    got = [t for t in left.element_tuples() if right.contains_tuple(t)]
    assert len(got) == 4 and meet.order == 2


def test_full_rank_bound():
    # rank 11 is one above the exhaustive bound
    g = cons.simplex(11)
    with pytest.raises(RankTooLarge):
        sggi_of(g).check_ip_full()


def test_cap_propagates_through_recursion():
    # wreath sections are not symmetric-orbit products, so the scan (and its
    # cap) is actually exercised
    with pytest.raises(IntersectionTooLarge):
        sggi_of(cons.family_wreathsimp(4)).check_ip_recursive(cap=2)


# -- combined verdict ------------------------------------------------------------------------

def test_is_string_c_group_modes():
    good = sggi_of(cons.family_lemme1(3))
    assert good.is_string_c_group(mode="recursive").is_string_c_group
    assert good.is_string_c_group(mode="full").is_string_c_group
    bad = sggi_of(cons.nonexample_simplex_union())
    verdict = bad.is_string_c_group(mode="recursive")
    assert verdict.string_property.ok and not verdict.is_string_c_group
    with pytest.raises(ValueError):
        good.is_string_c_group(mode="bogus")


def test_string_property_failure_short_circuits():
    s = make_sggi(3, {0: "(1,2)", 1: "(2,3)", 2: "(1,3)"})
    verdict = s.is_string_c_group()
    assert not verdict.string_property.ok
    assert verdict.certificate is None
    assert not verdict.is_string_c_group


def test_union_nonexample_orders():
    s = sggi_of(cons.nonexample_simplex_union())
    # sections removing label 0 resp. label 2 both have order 12
    assert s.section({1, 2}).order == 12
    assert s.section({0, 1}).order == 12


# -- sesqui-extensions --------------------------------------------------------------------------

def test_sesqui_on_single_transposition():
    s = make_sggi(2, {0: "(1,2)"})
    ext = s.sesqui_extend(0)
    assert ext.degree == 4
    assert ext.generator(0) == Permutation.parse("(1,2)(3,4)", 4)
    assert len(closure_set(ext.generators(), 4)) == 2


def test_sesqui_order_law(graph_corpus):
    for name, g in graph_corpus:
        if g.n > 9:
            continue
        s = sggi_of(g)
        base = s.group().order
        for k in (s.window.lo, s.window.hi):
            ext = s.sesqui_extend(k).group().order
            assert ext in (base, 2 * base), name


def test_sesqui_at_extreme_labels_preserves_string_c_group(graph_corpus):
    for name, g in graph_corpus:
        if g.n > 9:
            continue
        s = sggi_of(g)
        if not s.is_string_c_group(mode="recursive").is_string_c_group:
            continue
        for k in (s.window.lo, s.window.hi):
            ext = s.sesqui_extend(k)
            assert ext.is_string_c_group(
                mode="recursive").is_string_c_group, (name, k)


def test_sesqui_graph_realization():
    s = sggi_of(cons.simplex(2))
    ext = s.sesqui_extend(1)
    g = cons.simplex(2).union_disjoint(LabeledGraph(2, [(1, 1, 2)]))
    assert ext.involutions == sggi_of(g).involutions
    assert ext.degree == sggi_of(g).degree
    # an sggi with no graph has the dual of the graph it would come from
    assert ext.dual().involutions == sggi_of(g.dual()).involutions


def test_sesqui_outside_window():
    with pytest.raises(KeyError):
        sggi_of(cons.simplex(2)).sesqui_extend(9)


# -- concurrency smoke ---------------------------------------------------------------------------

def test_concurrent_checks_agree():
    s = sggi_of(cons.family_graph_x(5, 1))
    results = []

    def worker():
        results.append(s.check_ip_recursive().to_json())

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_section_cache_hits_skip_validation_but_misses_raise():
    s = sggi_of(cons.simplex(4))
    assert s.check_ip_full().ok
    for labels in ([7], [0, 7]):
        with pytest.raises(KeyError, match=r"^'label 7 outside window \[0, 3\]'$"):
            s.section(labels)
    # every cached key stays valid and a hit returns the stored object
    assert s.section([2, 0]) is s.section((0, 2)) is s.section({0, 2})
    assert s.section(s.window.labels()) is s.group()
