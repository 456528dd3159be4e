"""``intersection_tuples``, the listing reference, against the filtered enumeration.

``intersection_tuples`` lists G ^ H by a pruned depth-first search over the
smaller group's chain.  The program no longer lists intersections: its one
walk over G ^ H is the subgroup backtrack ``perm_core._backtrack``.  The
listing lives here as the reference that the tests of the backtrack, of
``intersection`` and of the node check compare against: it gives every
element of G ^ H in the smaller group's enumeration order, so its first
element outside a subgroup is the witness a node check must report.

The oracle lists every element of the smaller group (G on a tie) and keeps
those the other group contains.  The listing must yield exactly that
sequence, order included.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge.cgroup import Sggi, verify_certificate
from cprforge.errors import IntersectionTooLarge
from cprforge.perm_core import (
    DEFAULT_INTERSECTION_CAP,
    PermGroup,
    Permutation,
    _pruned_search,
    _search_plan,
    _smaller_first,
)

SECTION_ORDER_LIMIT = 50_000

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def P(text, degree):
    return Permutation.parse(text, degree)


def intersection_tuples(G, H, cap=DEFAULT_INTERSECTION_CAP):
    """The elements of G ^ H as raw tuples, in the smaller group's order.

    A depth-first search over the chain of the smaller group (G on a tie)
    visits its elements in enumeration order.  The transversal elements of
    level k and deeper fix every point below the k-th base point, so the
    product of the first k choices already fixes the images of those
    points.  Each choice sifts only the points it newly fixes through the
    other group, and a failed sift prunes the subtree, which then holds no
    element of G ^ H.

    ``cap`` bounds the search nodes, one per transversal element tried at
    any depth.  The search raises ``IntersectionTooLarge`` on node cap + 1,
    after yielding everything found before it.
    """
    small, big = _smaller_first(G, H)
    plan = _search_plan(small._chain, big._sift_range, cap, (G.order, H.order))
    identity = tuple(range(small.degree))
    return _pruned_search(plan, 0, identity, identity, [0])


def oracle(G, H):
    small, big = (G, H) if G.order <= H.order else (H, G)
    return [t for t in small.element_tuples() if big.contains_tuple(t)]


def assert_search_matches(G, H):
    assert list(intersection_tuples(G, H)) == oracle(G, H)


# -- every pair of small sections of four graphs ---------------------------------

GRAPHS = {
    "graph_x(6,2)": lambda: cons.family_graph_x(6, 2),
    "lemme1(4)": lambda: cons.family_lemme1(4),
    "wreathsimp(4)": lambda: cons.family_wreathsimp(4),
    "nonexample_sevenvertex": cons.nonexample_sevenvertex,
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_search_matches_filter_on_section_pairs(name):
    sggi = Sggi.from_graph(GRAPHS[name]())
    labels = list(sggi.window.labels())
    sections = []
    for size in range(len(labels) + 1):
        for kept in itertools.combinations(labels, size):
            group = sggi.section(kept)
            if group.order <= SECTION_ORDER_LIMIT:
                sections.append(group)
    assert any(s.is_symmetric_orbit_product for s in sections)
    assert any(not s.is_symmetric_orbit_product for s in sections)
    for G, H in itertools.combinations_with_replacement(sections, 2):
        assert_search_matches(G, H)
        if G.order == H.order:
            assert_search_matches(H, G)
        else:
            assert list(intersection_tuples(H, G)) == list(intersection_tuples(G, H))


# -- random generator sets ----------------------------------------------------------

@st.composite
def group_pairs(draw):
    """Two groups of degree 1..8 drawn from one pool of permutations, so
    that they often share a subgroup."""
    degree = draw(st.integers(1, 8))
    pool = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=5))
    gens = [Permutation._from_tuple(tuple(p)) for p in pool]
    picks = st.lists(st.sampled_from(gens), max_size=3)
    return (PermGroup(draw(picks), degree=degree),
            PermGroup(draw(picks), degree=degree))


@SETTINGS
@given(group_pairs())
def test_search_matches_filter_on_random_groups(pair):
    G, H = pair
    assert_search_matches(G, H)
    assert_search_matches(H, G)


# -- corner cases -----------------------------------------------------------------

def test_trivial_group_and_degree_one():
    one = PermGroup([], degree=1)
    assert list(intersection_tuples(one, one)) == [(0,)]
    trivial = PermGroup([], degree=5)
    s5 = PermGroup([P("(1,2,3,4,5)", 5), P("(1,2)", 5)])
    assert list(intersection_tuples(trivial, s5)) == [tuple(range(5))]
    assert list(intersection_tuples(s5, trivial)) == [tuple(range(5))]


def test_tie_in_order_enumerates_g():
    # one group, two generating sets, two chains with different orders
    G = PermGroup([P("(1,2,3,4)", 4), P("(1,2)", 4)])
    H = PermGroup([P("(3,4)", 4), P("(2,3)", 4), P("(1,2)", 4)])
    assert G.order == H.order == 24
    assert list(G.element_tuples()) != list(H.element_tuples())
    assert list(intersection_tuples(G, H)) == list(G.element_tuples())
    assert list(intersection_tuples(H, G)) == list(H.element_tuples())


def test_symmetric_product_bigger_group():
    # the bigger group is Sym{1,2,3} x Sym{4,5,6}: the prefix test is the
    # orbit-id check, and it prunes the elements that swap the two halves
    big = PermGroup([P("(1,2,3)", 6), P("(1,2)", 6), P("(4,5,6)", 6), P("(4,5)", 6)])
    small = PermGroup([P("(1,4)(2,5)(3,6)", 6), P("(1,2)(4,5)", 6), P("(2,3)(5,6)", 6)])
    assert big.is_symmetric_orbit_product
    assert not small.is_symmetric_orbit_product
    assert small.order == 12 < big.order == 36
    found = list(intersection_tuples(small, big))
    assert found == oracle(small, big)
    assert len(found) == 6


# -- the cap counts search nodes ----------------------------------------------------

def preorder_leaves(sizes):
    """For a search that never prunes over transversals of these sizes, the
    number of leaves among the first k nodes, for every k."""
    out = [0]

    def walk(depth):
        for _ in range(sizes[depth]):
            out.append(out[-1] + (depth == len(sizes) - 1))
            if depth + 1 < len(sizes):
                walk(depth + 1)

    walk(0)
    return out


NEVER_PRUNES = {
    # G inside H: every prefix of G extends inside H
    "chain": (PermGroup([P("(1,2,3,4,5,6)", 6), P("(1,6)(2,5)(3,4)", 6)]),
              PermGroup([P("(1,2,3,4,5,6)", 6), P("(1,6)(2,5)(3,4)", 6),
                         P("(1,4)", 6)])),
    "orbit ids": (PermGroup([P("(1,2,3,4,5)", 5), P("(2,5)(3,4)", 5)]),
                  PermGroup([P("(1,2)", 5), P("(2,3)", 5), P("(3,4)", 5),
                             P("(4,5)", 5)])),
}


@pytest.mark.parametrize("name", sorted(NEVER_PRUNES))
def test_cap_trips_on_first_node_past_it(name):
    G, H = NEVER_PRUNES[name]
    assert G.order < H.order
    assert H.is_symmetric_orbit_product == (name == "orbit ids")
    sizes = [len(layer.transversal) for _, layer in sorted(G._chain.layers.items())]
    leaves = preorder_leaves(sizes)
    total = len(leaves) - 1
    assert leaves[total] == G.order
    expected = list(G.element_tuples())
    assert list(intersection_tuples(G, H, cap=total)) == expected
    for cap in sorted({1, 2, len(sizes), len(sizes) + 1, total // 2, total - 1}):
        found = []
        with pytest.raises(IntersectionTooLarge) as info:
            for img in intersection_tuples(G, H, cap=cap):
                found.append(img)
        assert found == expected[:leaves[cap]]
        assert f"orders {G.order} and {H.order}" in str(info.value)
        assert f"cap {cap}" in str(info.value)
        assert (info.value.left, info.value.right) == (G.order, H.order)


def test_graph_x_8_4_completes_at_the_default_cap():
    # refused at the cap while the cap bounded the smaller section's order
    sggi = Sggi.from_graph(cons.family_graph_x(8, 4))
    cert = sggi.check_ip_recursive()
    assert cert.to_json() == {
        "status": "fail", "left": [0, 1, 2, 3, 4, 5], "right": [1, 2, 3, 4, 5, 6],
        "meet": [1, 2, 3, 4, 5], "expected_order": 86400, "actual_order": 172800,
        "witness": "(12,14)(13,15)"}
    assert verify_certificate(sggi, cert)

    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_section(labels):
        return combinatorics.PermutationGroup([
            combinatorics.Permutation([x - 1 for x in sggi.generator(l).images])
            for l in labels])

    left, right, meet = (sympy_section(cert.left), sympy_section(cert.right),
                         sympy_section(cert.meet))
    assert (left.order(), right.order(), meet.order()) == (79833600, 9676800, 86400)
    assert (sggi.section(cert.left).order, sggi.section(cert.right).order) == (
        79833600, 9676800)
    witness = combinatorics.Permutation([x - 1 for x in cert.witness.images])
    assert left.contains(witness) and right.contains(witness)
    assert not meet.contains(witness)
