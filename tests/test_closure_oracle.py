"""The closure oracle against two references that share none of its code.

``closure_tuples`` is the brute-force oracle behind ``conftest`` and the
``engine-selfchecks`` case.  Here it is compared with the breadth-first
search over ``Permutation`` objects it replaced, kept below as a reference
model, and with ``sympy.combinatorics`` when that is installed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge import perm_core
from cprforge.errors import DegreeMismatch
from cprforge.perm_core import Permutation, compose

from conftest import closure_set, closure_tuples

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def reference_closure(gens, degree):
    """Right multiplication of ``Permutation`` objects, breadth first."""
    ident = Permutation.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in gens:
                c = compose(e, gen)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return {p._img for p in seen}


def sympy_closure(gens, degree):
    """(order, element set) of the generated group, computed by sympy."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    sym = [combinatorics.Permutation(list(g._img)) for g in gens]
    if not sym:
        sym = [combinatorics.Permutation(list(range(degree)))]
    group = combinatorics.PermutationGroup(sym)
    return group.order(), {tuple(p.array_form) for p in group.generate()}


@st.composite
def generator_lists(draw):
    """Degree 0..8 and 0..3 generators of that degree."""
    degree = draw(st.integers(0, 8))
    images = st.permutations(range(1, degree + 1))
    gens = draw(st.lists(images, max_size=3))
    return [Permutation(img) for img in gens], degree


EDGE_CASES = [
    ([], 0),
    ([], 1),
    ([Permutation([1])], 1),
    ([Permutation([1]), Permutation([1])], 1),
    ([], 5),
    ([Permutation([2, 1])], 2),
]


@pytest.mark.parametrize("gens,degree", EDGE_CASES,
                         ids=["deg0-empty", "deg1-empty", "deg1-identity",
                              "deg1-twice", "deg5-empty", "deg2-swap"])
def test_edge_cases_match_both_references(gens, degree):
    got = closure_tuples(gens, degree)
    assert got == reference_closure(gens, degree)
    order, elements = sympy_closure(gens, degree)
    assert len(got) == order
    assert got == elements


@SETTINGS
@given(generator_lists())
def test_closure_matches_permutation_reference(case):
    gens, degree = case
    assert closure_tuples(gens, degree) == reference_closure(gens, degree)


@SETTINGS
@given(generator_lists())
def test_closure_matches_sympy(case):
    gens, degree = case
    got = closure_tuples(gens, degree)
    order, elements = sympy_closure(gens, degree)
    assert len(got) == order
    assert got == elements


def test_closure_set_wraps_the_tuples():
    gens = [Permutation([2, 3, 1, 4]), Permutation([2, 1, 3, 4])]
    wrapped = closure_set(gens, 4)
    assert all(isinstance(p, Permutation) for p in wrapped)
    assert {p._img for p in wrapped} == closure_tuples(gens, 4)


def test_degree_mismatch_is_refused():
    with pytest.raises(DegreeMismatch):
        closure_tuples([Permutation([2, 1, 3])], 4)


def test_closure_touches_no_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closure oracle reached chain code")

    for name in ("__init__", "insert", "sift", "sift_range", "order",
                 "element_tuples"):
        monkeypatch.setattr(perm_core._Chain, name, refuse)
    for name in ("__init__", "contains_tuple", "element_tuples"):
        monkeypatch.setattr(perm_core.PermGroup, name, refuse)
    gens = [Permutation([2, 3, 4, 5, 1]), Permutation([2, 1, 3, 4, 5])]
    assert len(closure_tuples(gens, 5)) == 120
    assert len(closure_set(gens, 5)) == 120
