"""Permutation arithmetic and group-engine behavior."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge.cgroup import Sggi
from cprforge.errors import (
    DegreeMismatch,
    DomainNotInvariant,
    IntersectionTooLarge,
    NotTransitive,
)
from cprforge.perm_core import (
    PermGroup,
    Permutation,
    compose,
    element_order,
    _is_id,
    _mul,
    intersection,
    parity,
)

from conftest import closure_order, closure_set
from test_intersection_search import intersection_tuples


def P(text, degree):
    return Permutation.parse(text, degree)


# -- permutations -----------------------------------------------------------

def test_compose_involution_squares_to_identity():
    t = P("(1,2)", 2)
    assert compose(t, t).is_identity()


def test_compose_two_transpositions():
    # apply (1,2) then (2,3): 1 -> 3, 3 -> 2, 2 -> 1
    c = compose(P("(1,2)", 3), P("(2,3)", 3))
    assert c.apply(1) == 3 and c.apply(3) == 2 and c.apply(2) == 1


def test_compose_identity_law():
    p = P("(1,3,2)", 4)
    assert compose(p, Permutation.identity(4)) == p
    assert compose(Permutation.identity(4), p) == p


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(P("(1,2)", 2), P("(1,2)", 3))


def test_inverse_undoes_the_permutation():
    rng = random.Random(0)
    for n in range(13):
        identity = Permutation.identity(n)
        perms = [identity, Permutation([*range(2, n + 1), 1]) if n else identity]
        for _ in range(8):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(images))
        for p in perms:
            q = p.inverse()
            assert q.degree == n
            assert p * q == identity and q * p == identity, (n, p)
            assert q.inverse() == p
            assert all(q.apply(p.apply(x)) == x for x in range(1, n + 1)), (n, p)


def test_element_order():
    assert element_order(Permutation.identity(4)) == 1
    assert element_order(P("(1,2)(3,4,5)", 5)) == 6
    assert element_order(P("(1,2)", 2)) == 2


def test_parity():
    assert parity(Permutation.identity(3)) == "even"
    assert parity(P("(1,2)", 2)) == "odd"
    assert parity(P("(1,3)(2,4)", 4)) == "even"


def test_cycle_string_round_trip():
    p = P("(1,2)(3,4)", 5)
    assert p.cycle_string() == "(1,2)(3,4)"
    assert Permutation.parse(p.cycle_string(), 5) == p
    assert Permutation.identity(3).cycle_string() == "()"
    assert Permutation.parse("id", 3).is_identity()
    assert Permutation.parse("()", 3).is_identity()
    assert Permutation.parse(" (1, 2) ( 3 ,4) ", 4) == P("(1,2)(3,4)", 4)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.parse("(1,2", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(1,1)", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(1,2)(2,3)", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(0,1)", 3)


def test_images_are_one_based():
    p = P("(1,2)", 3)
    assert p.images == (2, 1, 3)
    assert Permutation([2, 1, 3]) == p


# -- groups -------------------------------------------------------------------

def test_group_order_s4_vs_closure():
    gens = [P("(1,2)", 4), P("(2,3)", 4), P("(3,4)", 4)]
    group = PermGroup(gens)
    assert group.order == 24
    assert group.order == closure_order(gens, 4)


def test_empty_generating_set_is_trivial():
    group = PermGroup([], degree=5)
    assert group.order == 1
    assert group.contains(Permutation.identity(5))
    with pytest.raises(ValueError):
        PermGroup([])


def test_simplex_graph_generators_make_s4():
    sggi = Sggi.from_graph(cons.simplex(3))
    assert PermGroup(sggi.generators()).order == 24


def test_contains():
    group = PermGroup([P("(1,2)", 3), P("(2,3)", 3)])
    assert group.contains(P("(1,3)", 3))
    small = PermGroup([P("(1,2)(3,4)", 4)])
    assert closure_order(small.generators, 4) == 2
    assert not small.contains(P("(1,2)", 4))
    assert Permutation.identity(4) in small


def test_contains_degree_mismatch():
    group = PermGroup([P("(1,2)", 3)])
    with pytest.raises(DegreeMismatch):
        group.contains(P("(1,2)", 4))


def test_orbits():
    group = PermGroup([P("(1,2)", 4)])
    assert group.orbits() == ((1, 2), (3,), (4,))
    simplex_group = PermGroup(Sggi.from_graph(cons.simplex(3)).generators())
    assert simplex_group.orbits() == ((1, 2, 3, 4),)
    multi = PermGroup(Sggi.from_graph(cons.multisimplex(2, 2)).generators())
    assert [len(o) for o in multi.orbits()] == [3, 3]


def test_group_order_examples():
    assert PermGroup([P("(1,2)", 2)]).order == 2
    wreath = Sggi.from_graph(cons.family_wreathsimp(3)).group()
    assert wreath.order == 48
    gx = Sggi.from_graph(cons.family_graph_x(5, 1)).group()
    assert gx.order == 362880


def test_intersection_examples():
    a = PermGroup([P("(1,2)", 4)])
    b = PermGroup([P("(1,2)", 4), P("(3,4)", 4)])
    assert intersection(a, b).order == 2
    c = PermGroup([P("(3,4)", 4)])
    assert intersection(a, c).order == 1


def test_intersection_sevenvertex_sections():
    sggi = Sggi.from_graph(cons.nonexample_sevenvertex())
    inter = intersection(sggi.section({0, 1, 2}), sggi.section({-1, 0}))
    assert inter.order == 4
    assert sggi.section({0}).order == 2


def test_intersection_cap():
    # the cap counts backtrack nodes, as in intersection_order and --cap
    gens = [P(f"({i},{i + 1})", 8) for i in range(1, 8)]
    big = PermGroup(gens)
    with pytest.raises(IntersectionTooLarge):
        intersection(big, big, cap=55)
    inter = intersection(big, big, cap=56)
    assert inter.order == 40320
    assert len(inter.generators) == 7


def test_intersection_subgroup_and_lagrange():
    g1 = PermGroup([P("(1,2)", 5), P("(2,3)", 5)])
    g2 = PermGroup([P("(2,3)", 5), P("(3,4)", 5), P("(4,5)", 5)])
    inter = intersection(g1, g2)
    for gen in inter.generators:
        assert g1.contains(gen) and g2.contains(gen)
    assert g1.order % inter.order == 0
    assert g2.order % inter.order == 0
    expected = closure_set(g1.generators, 5) & closure_set(g2.generators, 5)
    assert set(inter.elements()) == expected


def test_minimal_blocks_s4_primitive():
    group = PermGroup([P("(1,2)", 4), P("(2,3)", 4), P("(3,4)", 4)])
    assert group.is_primitive()
    assert group.minimal_block_systems() == []


def test_minimal_blocks_wreathsimp():
    group = Sggi.from_graph(cons.family_wreathsimp(3)).group()
    systems = group.minimal_block_systems()
    assert not group.is_primitive()
    assert any(len(s) == 3 and s.block_size == 2 for s in systems)


def test_minimal_blocks_speccase():
    # two blocks on the 6 vertices, necessarily of size 3
    group = Sggi.from_graph(cons.family_speccase(3)).group()
    systems = group.minimal_block_systems()
    assert any(len(s) == 2 and s.block_size == 3 for s in systems)
    assert not group.is_primitive()


def test_is_primitive_requires_transitive():
    group = PermGroup([P("(1,2)", 4)])
    with pytest.raises(NotTransitive):
        group.is_primitive()


def test_induced_on_points():
    group = PermGroup([P("(1,2)", 4), P("(3,4)", 4)])
    induced = group.induced_on([1, 2])
    assert induced.degree == 2 and induced.order == 2
    with pytest.raises(DomainNotInvariant):
        group.induced_on([1, 3])


def test_induced_on_component_of_result1():
    g = cons.family_result1(1, 3)
    group = Sggi.from_graph(g).group()
    big_orbit = max(group.orbits(), key=len)
    assert len(big_orbit) == 4
    assert group.induced_on(big_orbit).order == 24


def test_enumeration_deterministic_and_complete():
    gens = [P("(1,2)", 4), P("(2,3,4)", 4)]
    g1 = PermGroup(gens)
    g2 = PermGroup(gens)
    first = list(g1.elements())
    assert first == list(g2.elements())
    assert first[0].is_identity()
    assert len(first) == g1.order == closure_order(gens, 4)


def test_degree_one_group():
    group = PermGroup([Permutation.identity(1)])
    assert group.order == 1 and group.generators == (Permutation.identity(1),)
    assert list(group.element_tuples()) == [(0,)]
    assert list(intersection_tuples(group, group)) == [(0,)]
    meet = intersection(group, group)
    assert meet.degree == 1 and meet.order == 1
    assert list(meet.element_tuples()) == [(0,)]


# -- property tests -----------------------------------------------------------

@given(st.integers(0, 16).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
@settings(max_examples=200, deadline=None)
def test_tuple_helpers_match_generator_forms(pair):
    # the reference forms the itemgetter product and the identity test replaced
    p, q = tuple(pair[0]), tuple(pair[1])
    product = _mul(p, q)
    assert type(product) is tuple
    assert product == tuple(q[x] for x in p)
    identity = tuple(range(len(p)))
    for t in (p, q, product, identity):
        assert _is_id(t) == all(i == x for i, x in enumerate(t))

perm_strategy = st.integers(3, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


@given(st.integers(3, 7).flatmap(
    lambda n: st.tuples(st.permutations(list(range(1, n + 1))),
                        st.permutations(list(range(1, n + 1))))))
@settings(max_examples=100, deadline=None)
def test_parity_is_multiplicative(pair):
    p, q = Permutation(pair[0]), Permutation(pair[1])
    odd = parity(compose(p, q)) == "odd"
    assert odd == ((parity(p) == "odd") ^ (parity(q) == "odd"))


@given(perm_strategy)
@settings(max_examples=100, deadline=None)
def test_element_order_matches_brute_power(images):
    p = Permutation(images)
    q = p
    m = 1
    while not q.is_identity():
        q = compose(q, p)
        m += 1
    assert element_order(p) == m


@given(st.integers(3, 6).flatmap(
    lambda n: st.lists(st.permutations(list(range(1, n + 1))),
                       min_size=1, max_size=3)))
@settings(max_examples=40, deadline=None)
def test_chain_order_matches_closure(gen_images):
    gens = [Permutation(img) for img in gen_images]
    group = PermGroup(gens)
    assert group.order == closure_order(gens, gens[0].degree)


@given(st.integers(3, 6).flatmap(
    lambda n: st.lists(st.permutations(list(range(1, n + 1))),
                       min_size=1, max_size=2)))
@settings(max_examples=30, deadline=None)
def test_orbits_match_support_graph_components(gen_images):
    gens = [Permutation(img) for img in gen_images]
    group = PermGroup(gens)
    n = gens[0].degree
    # union-find over the generator mapping graph
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for pt in range(1, n + 1):
            a, b = find(pt), find(g.apply(pt))
            if a != b:
                parent[b] = a
    comps = {}
    for pt in range(1, n + 1):
        comps.setdefault(find(pt), []).append(pt)
    expected = tuple(sorted(tuple(sorted(c)) for c in comps.values()))
    assert tuple(sorted(group.orbits())) == expected


def test_order_equals_chain_product_on_corpus(graph_corpus):
    for name, g in graph_corpus:
        if g.n > 8:
            continue
        gens = Sggi.from_graph(g).generators()
        group = PermGroup(gens)
        assert group.order == closure_order(gens, g.n), name
