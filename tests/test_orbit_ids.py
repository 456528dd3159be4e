"""Orbit ids in place of orbit scans: the fast-path meet order, ``induced_on``
and the fingerprint of a graph with many orbits."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge.analysis import fingerprint
from cprforge.cgroup import Sggi
from cprforge.errors import DomainNotInvariant
from cprforge.perm_core import (
    PermGroup,
    Permutation,
    intersection_order,
)
from cprforge.prg import MAX_DEGREE, LabeledGraph

from test_intersection_search import intersection_tuples

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def symmetric_products(draw, n):
    """Sym(P_1) x ... x Sym(P_k) for a random set partition of 1..n, each
    cell generated by a path of transpositions through its points."""
    order = draw(st.permutations(range(1, n + 1)))
    cell_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = {}
    for pt, cell in zip(order, cell_of):
        cells.setdefault(cell, []).append(pt)
    gens = [Permutation.from_cycles(n, [(a, b)])
            for cell in cells.values() for a, b in zip(cell, cell[1:])]
    return PermGroup(gens, degree=n)


@st.composite
def product_pairs(draw):
    n = draw(st.integers(1, 8))
    return draw(symmetric_products(n)), draw(symmetric_products(n))


@SETTINGS
@given(product_pairs())
def test_sym_product_meet_order_counts_the_intersection(pair):
    """Two symmetric products meet in a product of factorials: no chain is
    built and no node is spent, so cap=1 cannot trip."""
    A, B = pair
    assert A.is_symmetric_orbit_product and B.is_symmetric_orbit_product
    counts = intersection_order(A, B, cap=1), intersection_order(B, A, cap=1)
    assert A._state is None and B._state is None
    expected = sum(1 for _ in intersection_tuples(A, B))
    assert counts == (expected, expected)


# -- induced_on ------------------------------------------------------------------

def two_orbit_group():
    """Orbits (1, 5), (2, 3), (4,) on 5 points."""
    return PermGroup([Permutation.from_cycles(5, [(1, 5)]),
                      Permutation.from_cycles(5, [(2, 3)])])


@pytest.mark.parametrize("domain", [[0], [0, 1, 5], [6], [2, 3, 6], [-1, 4], [1, 5, 0]])
def test_induced_on_outside_the_points(domain):
    with pytest.raises(DomainNotInvariant, match=r"^domain outside 1\.\.n$"):
        two_orbit_group().induced_on(domain)


def test_induced_on_range_is_checked_before_invariance():
    # 0 is outside and {1} splits the orbit (1, 5): the range error wins
    with pytest.raises(DomainNotInvariant, match=r"^domain outside 1\.\.n$"):
        two_orbit_group().induced_on([0, 1])


@pytest.mark.parametrize("domain,orbit", [
    ([1], "(1, 5)"),
    ([3, 4], "(2, 3)"),
    ([2, 5], "(1, 5)"),       # both split: the orbit with the least point is named
    ([4, 5, 2, 3], "(1, 5)"),
])
def test_induced_on_names_the_split_orbit(domain, orbit):
    with pytest.raises(DomainNotInvariant) as info:
        two_orbit_group().induced_on(domain)
    assert str(info.value) == f"domain splits orbit {orbit}"


def test_induced_on_unions_of_orbits():
    group = two_orbit_group()
    assert group.induced_on([5, 1]).order == 2
    assert group.induced_on([4]).order == 1
    assert group.induced_on([2, 3, 4]).order == 2
    assert group.induced_on([1, 2, 3, 5]).order == 4
    assert group.induced_on(range(1, 6)) is group
    with pytest.raises(DomainNotInvariant, match="empty domain"):
        group.induced_on([])


def test_fingerprint_of_two_edges_on_max_degree_vertices():
    g = LabeledGraph(MAX_DEGREE, [(0, 1, 2), (1, 2, 3)])
    fp = fingerprint(Sggi.from_graph(g).group())
    assert fp.orbit_sizes == (3,) + (1,) * (MAX_DEGREE - 3)
    assert fp.induced_orders == (6,) + (1,) * (MAX_DEGREE - 3)
    assert fp.group_order == 6
    assert fp.factorization_check is True
    assert fp.transitive is False and fp.primitive is None
