"""The orbit-count rule of ``intersection_order`` against plain counts.

Two full symmetric orbit products A and B meet in the symmetric product
over the nonempty meets of their orbits.  When ``known`` lies in A ^ B and
is a symmetric orbit product too, its orbits refine those meets, so
|known| = |A ^ B| exactly when it has as many orbits, fixed points
included; ``intersection_order`` then answers ``known.order`` without the
factorial product.  The reference models below recompute both the count
and that decision from the public ``orbits()``; the independent oracle on
random graphs is the brute-force closure of ``conftest``.
"""

import functools
import itertools
import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge import perm_core
from cprforge.cgroup import Sggi
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup, Permutation, intersection_order

from conftest import closure_tuples
from test_random_graphs import graphs

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def orbit_index(group):
    """Point -> the position of its orbit in ``group.orbits()``."""
    return tuple(i for x, i in sorted((x, i) for i, orbit in enumerate(group.orbits())
                                      for x in orbit))


@pytest.fixture(autouse=True)
def fresh_orbit_index():
    """Each test keeps its sections alive only while it runs."""
    yield
    orbit_index.cache_clear()


def orbit_meets(A, B):
    """The sizes of the nonempty meets of an orbit of A with an orbit of B."""
    return list(Counter(zip(orbit_index(A), orbit_index(B))).values())


def factorial_count(A, B):
    """|A ^ B| for two full symmetric orbit products: a factorial per
    nonempty meet of an orbit of A with an orbit of B."""
    return math.prod(map(math.factorial, orbit_meets(A, B)))


def orbit_count_decides(A, B, C):
    """The rule: all three are symmetric orbit products and C has as many
    orbits as A's and B's orbits have nonempty meets."""
    return all(G.is_symmetric_orbit_product for G in (A, B, C)) \
        and len(orbit_meets(A, B)) == len(C.orbits())


def no_factorial_product(*args):
    raise AssertionError("the factorial product was formed")


def full_nodes(sggi):
    """The label sets of every full-mode pair and its meet, in mask order."""
    lo, rank = sggi.window.lo, sggi.rank
    labels = [tuple(lo + k for k in range(rank) if mask >> k & 1)
              for mask in range(1 << rank)]
    for a, b in itertools.combinations(range(1, 1 << rank), 2):
        if a & b not in (a, b):
            yield labels[a], labels[b], labels[a & b]


def transpositions(degree, pairs):
    return [Permutation.from_cycles(degree, [pair]) for pair in pairs]


def sym(degree, *pairs):
    """The group generated by transpositions, given as 1-based point pairs."""
    return PermGroup(transpositions(degree, pairs), degree=degree)


# -- every full-mode node of the corpus ---------------------------------------------

CASES = corpus() + [("simplex(9)", cons.simplex(9))]


@pytest.mark.parametrize("name,g", CASES, ids=[name for name, _ in CASES])
def test_corpus_full_nodes_match_the_factorial_count(monkeypatch, name, g):
    sggi = Sggi.from_graph(g)
    decided, others = [], []
    for left, right, meet in full_nodes(sggi):
        A, B, C = sggi.section(left), sggi.section(right), sggi.section(meet)
        if A.is_symmetric_orbit_product and B.is_symmetric_orbit_product:
            node = (A, B, C, factorial_count(A, B))
            (decided if orbit_count_decides(A, B, C) else others).append(node)
    for A, B, C, expected in decided + others:
        assert intersection_order(A, B) == expected
    for A, B, C, expected in others:
        assert intersection_order(A, B, known=C) == expected
        assert intersection_order(B, A, known=C) == expected
    with monkeypatch.context() as patch:
        patch.setattr(perm_core, "Counter", no_factorial_product)
        for A, B, C, expected in decided:
            assert C.order == expected
            assert intersection_order(A, B, known=C) == expected
            assert intersection_order(B, A, known=C) == expected
    if name == "simplex(9)":
        # every full-mode node of a simplex passes on its orbit count
        assert len(decided) == 111645


# -- hand-made cases at the edge of the rule ------------------------------------------

def test_a_known_subgroup_that_is_not_a_symmetric_product_is_not_trusted():
    A = B = sym(3, (1, 2), (2, 3))
    rotation = PermGroup([Permutation.from_cycles(3, [(1, 2, 3)])], degree=3)
    # one orbit, like the meet of A and B, but of order 3
    assert not rotation.is_symmetric_orbit_product
    assert intersection_order(A, B, known=rotation) == 6


def test_fixed_points_count_as_classes():
    A = B = sym(5, (1, 2), (2, 3), (4, 5))
    # Sym{1,2} x Sym{4,5}: as many nontrivial orbits as A ^ B, one more class
    known = sym(5, (1, 2), (4, 5))
    assert intersection_order(A, B, known=known) == 12
    assert intersection_order(A, B, known=sym(5, (1, 2), (2, 3))) == 12
    assert intersection_order(A, B, known=A) == 12


def test_without_known_the_factorial_count_answers():
    A, B = sym(4, (1, 2), (2, 3)), sym(4, (2, 3), (3, 4))
    assert intersection_order(A, B) == 2
    assert intersection_order(A, B, known=None) == 2


# -- random symmetric products with a random known subgroup -----------------------------

@st.composite
def symmetric_pairs(draw):
    """Two groups generated by transpositions on n <= 7 points, and a few
    elements of their intersection, drawn from the closure."""
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    gens_a = transpositions(n, draw(st.lists(pair, max_size=5)))
    gens_b = transpositions(n, draw(st.lists(pair, max_size=5)))
    meet = sorted(closure_tuples(gens_a, n) & closure_tuples(gens_b, n))
    picks = draw(st.lists(st.integers(0, len(meet) - 1), max_size=3))
    known = PermGroup([Permutation._from_tuple(meet[i]) for i in picks], degree=n)
    return (PermGroup(gens_a, degree=n), PermGroup(gens_b, degree=n), known,
            len(meet))


@SETTINGS
@given(symmetric_pairs())
def test_random_known_subgroups_match_the_closure(case):
    A, B, known, size = case
    assert intersection_order(A, B, known=known) == size
    assert intersection_order(B, A, known=known) == size
    assert intersection_order(A, B) == size


# -- random graphs: every full-mode node against the closure -----------------------------

@SETTINGS
@given(graphs(max_n=7, max_labels=4))
def test_random_graph_nodes_match_the_closure(g):
    sggi = Sggi.from_graph(g)
    closures = {}

    def closure(labels):
        if labels not in closures:
            closures[labels] = closure_tuples([sggi.generator(l) for l in labels],
                                              sggi.degree)
        return closures[labels]

    for left, right, meet in full_nodes(sggi):
        A, B, C = sggi.section(left), sggi.section(right), sggi.section(meet)
        if A.is_symmetric_orbit_product and B.is_symmetric_orbit_product:
            size = len(closure(left) & closure(right))
            assert factorial_count(A, B) == size
            assert intersection_order(A, B, known=C) == size
            assert intersection_order(B, A, known=C) == size
