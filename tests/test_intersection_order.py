"""The subgroup backtrack against the listing it replaced.

``intersection_order`` counts G ^ H without listing it.  The oracle is the
length of ``intersection_tuples``, which lists every element (itself tested
against a filtered enumeration in ``tests/test_intersection_search.py``),
and, on degrees 10-15, sympy's own subgroup search.  ``Sggi._node_check``
is compared with ``listing_node_check``, the node check that counted
``actual_order`` by listing A ^ B, kept here as a reference model.
"""

import gc
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge.cgroup import IpCertificate, Sggi
from cprforge.errors import DegreeMismatch, IntersectionTooLarge
from cprforge.paper_cases import corpus
from cprforge.perm_core import (
    PermGroup,
    Permutation,
    _Chain,
    _Layer,
    intersection,
    intersection_order,
)
from cprforge.report import build_report

from test_certificate_reference import family_case
from test_intersection_search import intersection_tuples
from test_output_digest import bench_workloads
from test_random_graphs import graphs

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def P(text, degree):
    return Permutation.parse(text, degree)


def listed_order(G, H):
    return sum(1 for _ in intersection_tuples(G, H))


def listing_node_check(sggi, left, right, cap):
    """The node check that listed all of A ^ B to count it."""
    meet = tuple(sorted(set(left) & set(right)))
    A, B, C = sggi.section(left), sggi.section(right), sggi.section(meet)
    if A.is_symmetric_orbit_product and B.is_symmetric_orbit_product:
        # the symmetric product over the common refinement of the orbits
        cells = Counter(zip(A._orbit_id, B._orbit_id))
        if math.prod(math.factorial(size) for size in cells.values()) == C.order:
            return IpCertificate("pass")
    witness = None
    count = 0
    for img in intersection_tuples(A, B, cap):
        count += 1
        if witness is None and not C.contains_tuple(img):
            witness = Permutation._from_tuple(img)
    if witness is None:
        return IpCertificate("pass")
    return IpCertificate("fail", left=tuple(left), right=tuple(right),
                         meet=meet, expected_order=C.order,
                         actual_order=count, witness=witness)


def interval_nodes(sggi):
    """The (left, right) pairs of the recursive check, in its order."""
    lo, hi = sggi.window.lo, sggi.window.hi
    return [(tuple(range(i, j)), tuple(range(i + 1, j + 1)))
            for j in range(lo + 1, hi + 1) for i in range(j - 1, lo - 1, -1)]


def node_pairs(sggi):
    """Every interval node and every full-mode pair, in one sorted list."""
    lo, rank = sggi.window.lo, sggi.rank
    labels = [tuple(lo + k for k in range(rank) if mask >> k & 1)
              for mask in range(1 << rank)]
    pairs = {(labels[a], labels[b]) for a in range(1, 1 << rank)
             for b in range(a + 1, 1 << rank) if a & b not in (a, b)}
    return sorted(pairs | set(interval_nodes(sggi)))


# -- the corpus: every interval node and every full-mode pair ---------------------

CORPUS = corpus()


@pytest.mark.parametrize("name,g", CORPUS, ids=[name for name, _ in CORPUS])
def test_backtrack_counts_every_corpus_node(name, g):
    sggi = Sggi.from_graph(g)
    reference = Sggi.from_graph(g)
    cap = 5_000_000
    for left, right in node_pairs(sggi):
        A, B = sggi.section(left), sggi.section(right)
        C = sggi.section(set(left) & set(right))
        expected = listed_order(A, B)
        assert intersection_order(A, B, known=C) == expected, (left, right)
        assert intersection_order(A, B) == expected, (left, right)
        assert intersection_order(B, A, known=C) == expected, (left, right)
        assert sggi._node_check(left, right, A, B, C, cap) == \
            listing_node_check(reference, left, right, cap), (left, right)


def assert_node_checks_match_listing(g, pairs):
    """``_node_check`` at each (left, right) of ``pairs(sggi)`` equals the
    listing reference, witness and actual order included."""
    sggi, reference = Sggi.from_graph(g), Sggi.from_graph(g)
    cap = 5_000_000
    for left, right in pairs(sggi):
        A, B = sggi.section(left), sggi.section(right)
        C = sggi.section(set(left) & set(right))
        assert sggi._node_check(left, right, A, B, C, cap) == \
            listing_node_check(reference, left, right, cap), (left, right)


# -- random graphs and renumbered two-row graphs -------------------------------------

@SETTINGS
@given(graphs(max_n=7, max_labels=5))
def test_node_check_matches_listing_on_random_graphs(g):
    assert_node_checks_match_listing(g, node_pairs)


BENCH = bench_workloads()
TWO_ROW = [family_case(family, params)
           for family, params in BENCH.WORKLOADS["refute-two-row"].inputs]


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("name,g", TWO_ROW, ids=[name for name, _ in TWO_ROW])
def test_node_check_matches_listing_on_renumbered_two_row_graphs(name, g, k):
    # the benchmark's seed-7 renumberings move the chain base order, and
    # so the witness, away from the canonical numbering
    assert_node_checks_match_listing(BENCH.renumber(g, 7, name, k), interval_nodes)


# -- random groups with a shared subgroup -------------------------------------------

def moves(degree):
    """Permutations that move at most five points, so that the groups drawn
    stay small enough to list."""
    @st.composite
    def draw_move(draw):
        support = draw(st.lists(st.integers(0, degree - 1), min_size=1,
                                max_size=5, unique=True))
        img = list(range(degree))
        for x, y in zip(support, draw(st.permutations(support))):
            img[x] = y
        return Permutation._from_tuple(tuple(img))
    return draw_move()


@st.composite
def groups_with_known(draw):
    """G and H of degree 1..9 sharing some generators; the known subgroup
    is generated by a subset of the shared ones, so it lies in G ^ H."""
    degree = draw(st.integers(1, 9))
    shared = draw(st.lists(moves(degree), max_size=3))
    known = draw(st.lists(st.sampled_from(shared), max_size=2)) if shared else []
    G = PermGroup(shared + draw(st.lists(moves(degree), max_size=2)), degree=degree)
    H = PermGroup(draw(st.lists(moves(degree), max_size=2)) + shared, degree=degree)
    return G, H, PermGroup(known, degree=degree)


@SETTINGS
@given(groups_with_known())
def test_backtrack_counts_random_intersections(case):
    G, H, K = case
    expected = listed_order(G, H)
    for known in (None, K):
        assert intersection_order(G, H, known=known) == expected
        assert intersection_order(H, G, known=known) == expected
    inter = intersection(G, H)
    assert inter.order == expected
    assert all(G.contains(g) and H.contains(g) for g in inter.generators)


@st.composite
def symmetric_known(draw):
    """A known subgroup that is a certified symmetric orbit product: a path
    of transpositions shared by G and H."""
    degree = draw(st.integers(2, 9))
    points = draw(st.permutations(range(1, degree + 1)))
    cut = draw(st.integers(2, min(degree, 5)))
    path = [Permutation.from_cycles(degree, [(a, b)])
            for a, b in zip(points[:cut], points[1:cut])]
    G = PermGroup(path + draw(st.lists(moves(degree), max_size=2)), degree=degree)
    H = PermGroup(draw(st.lists(moves(degree), max_size=2)) + path, degree=degree)
    return G, H, PermGroup(path, degree=degree)


@SETTINGS
@given(symmetric_known())
def test_certified_known_subgroup_seeds_without_a_chain(case):
    G, H, K = case
    assert K._state is None
    assert intersection_order(G, H, known=K) == listed_order(G, H)
    assert K._state is None


# -- sympy on degrees 10-15 -----------------------------------------------------------

def random_cycle(rng, degree):
    points = rng.sample(range(degree), rng.randint(2, 6))
    img = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        img[a] = b
    return Permutation._from_tuple(tuple(img))


def test_backtrack_matches_sympy_on_degrees_10_to_15():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(20250424)

    def sympy_group(gens):
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g._img)) for g in gens])

    checked = 0
    while checked < 30:
        degree = rng.randint(10, 15)
        shared = [random_cycle(rng, degree) for _ in range(rng.randint(0, 2))]
        gens_g = shared + [random_cycle(rng, degree) for _ in range(rng.randint(1, 2))]
        gens_h = shared + [random_cycle(rng, degree) for _ in range(rng.randint(1, 2))]
        G, H = PermGroup(gens_g, degree=degree), PermGroup(gens_h, degree=degree)
        if min(G.order, H.order) > 200_000:
            # sympy's search walks the smaller group; keep it quick
            continue
        small, big = ((sympy_group(gens_g), sympy_group(gens_h))
                      if G.order <= H.order else
                      (sympy_group(gens_h), sympy_group(gens_g)))
        expected = small.subgroup_search(big.contains).order()
        known = PermGroup(shared, degree=degree)
        assert intersection_order(G, H) == expected
        assert intersection_order(G, H, known=known) == expected
        checked += 1


# -- the cap ------------------------------------------------------------------------

# a dihedral group of order 12 inside a group of order 72; G's chain has
# levels 1 (orbit of 6 points) and 2 (orbit {2, 6})
DIHEDRAL = PermGroup([P("(1,2,3,4,5,6)", 6), P("(1,6)(2,5)(3,4)", 6)])
OVER = PermGroup([P("(1,2,3,4,5,6)", 6), P("(1,6)(2,5)(3,4)", 6), P("(1,4)", 6)])
POINTS = 6 + 2


def test_cap_counts_every_visited_point_skipped_ones_included():
    # known = G: the seeds alone put every point in b_k's K-orbit, so the
    # backtrack only visits and skips points
    G, H = DIHEDRAL, OVER
    assert not G.is_symmetric_orbit_product
    assert sum(len(layer.transversal) for layer in G._chain.layers.values()) == POINTS
    assert intersection_order(G, H, known=G, cap=POINTS) == G.order == 12
    with pytest.raises(IntersectionTooLarge) as info:
        intersection_order(G, H, known=G, cap=POINTS - 1)
    assert str(info.value) == (f"orders 12 and {H.order}: the intersection "
                               f"search passed cap {POINTS - 1} nodes")
    assert (info.value.left, info.value.right) == (12, H.order)


def test_cap_counts_existence_search_nodes():
    # without it, level 2's point 6 is settled by a sift alone, and level
    # 1's point 2 by a search that finds an element at its first node;
    # that element puts every other point in b's K-orbit
    assert intersection_order(DIHEDRAL, OVER, cap=POINTS + 1) == 12
    with pytest.raises(IntersectionTooLarge):
        intersection_order(DIHEDRAL, OVER, cap=POINTS)


def test_node_check_names_both_label_sets_when_the_backtrack_trips():
    sggi = Sggi.from_graph(cons.family_wreathsimp(4))
    with pytest.raises(IntersectionTooLarge) as info:
        sggi.check_ip_recursive(cap=2)
    assert "sections for [" in str(info.value)
    assert "the intersection search passed cap 2 nodes" in str(info.value)


# -- the work of the backtrack --------------------------------------------------------

HARD_NODES = {
    # name: (graph, left, right, |A ^ B|, nodes with known = C, nodes without)
    "lemme1(9) [0..8]": (lambda: cons.family_lemme1(9), range(0, 8), range(1, 9),
                         80640, 46, 74),
    "graph_x(9,4) [0..7]": (lambda: cons.family_graph_x(9, 4), range(0, 7),
                            range(1, 8), 9676800, 70, 160),
    "graph_x(8,3) [0..5]": (lambda: cons.family_graph_x(8, 3), range(0, 5),
                            range(1, 6), 5760, 39, 81),
}


@pytest.mark.parametrize("name", sorted(HARD_NODES))
def test_backtrack_node_counts(name):
    graph, left, right, order, with_known, without = HARD_NODES[name]
    sggi = Sggi.from_graph(graph())
    A, B = sggi.section(left), sggi.section(right)
    C = sggi.section(set(left) & set(right))
    for known, nodes in ((C, with_known), (None, without)):
        assert intersection_order(A, B, known=known, cap=nodes) == order
        with pytest.raises(IntersectionTooLarge):
            intersection_order(A, B, known=known, cap=nodes - 1)
    if order == C.order:
        # a passing node runs the backtrack alone, seeded with C
        assert sggi._node_check(tuple(left), tuple(right), A, B, C, with_known).ok


# -- no chain for a certified meet section -----------------------------------------

def test_certified_meet_section_builds_no_chain():
    graph = cons.family_graph_x(7, 3)
    sggi = Sggi.from_graph(graph)
    seen = 0
    for left, right in interval_nodes(sggi):
        A, B = sggi.section(left), sggi.section(right)
        C = sggi.section(set(left) & set(right))
        if C._state is not None or (A.is_symmetric_orbit_product
                                    and B.is_symmetric_orbit_product):
            continue
        cert = sggi._node_check(left, right, A, B, C, 5_000_000)
        assert C._state is None, (left, right)
        assert cert == listing_node_check(Sggi.from_graph(graph), left, right,
                                          5_000_000)
        seen += 1
    assert seen >= 3


# -- the search leaves no reference cycle -------------------------------------------

def test_checks_leave_no_cyclic_garbage_of_groups():
    graphs = [cons.simplex(8), cons.family_lemme1(5), cons.family_wreathsimp(6),
              cons.family_graph_x(7, 3)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for g in graphs:
            build_report(g, {"path": "memory"})
            build_report(g, {"path": "memory"}, mode="full")
        gc.collect()
        kinds = {type(o) for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not kinds & {PermGroup, _Chain, _Layer, Sggi}


# -- the hard cases of the enumeration-bound regime ----------------------------------

def test_lemme1_9_passes():
    assert Sggi.from_graph(cons.family_lemme1(9)).check_ip_recursive().ok


def test_graph_x_9_4_certificate():
    cert = Sggi.from_graph(cons.family_graph_x(9, 4)).check_ip_recursive()
    assert cert.to_json() == {
        "status": "fail", "left": [0, 1, 2, 3, 4, 5], "right": [1, 2, 3, 4, 5, 6],
        "meet": [1, 2, 3, 4, 5], "expected_order": 86400, "actual_order": 172800,
        "witness": "(12,15)(13,16)(14,17)"}


def test_graph_x_9_4_passing_node_is_quick():
    # listing this node's intersection took 68.5M search nodes
    sggi = Sggi.from_graph(cons.family_graph_x(9, 4))
    # the node of the interval [0..7]: its sections keep [0..6] and [1..7]
    left, right = tuple(range(0, 7)), tuple(range(1, 8))
    start = time.perf_counter()
    cert = sggi._node_check(left, right, sggi.section(left), sggi.section(right),
                            sggi.section(left[1:]), 5_000_000)
    assert time.perf_counter() - start < 10
    assert cert.ok


@pytest.mark.parametrize("left", ["S3", "C3"])
def test_known_of_another_degree_is_refused(left):
    """The orbit-count shortcut must not compare class counts across degrees."""
    groups = {"S3": PermGroup([P("(1,2)", 3), P("(2,3)", 3)]),
              "C3": PermGroup([P("(1,2,3)", 3)])}
    G, H = groups[left], groups["S3"]
    assert intersection_order(G, H) == G.order
    with pytest.raises(DegreeMismatch):
        intersection_order(G, H, known=PermGroup([], degree=1))
