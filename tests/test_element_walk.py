"""Enumeration is the one walk over a chain.

``_Chain.element_tuples`` runs ``_pruned_search``, the walk that also lists
intersections and runs the backtrack's existence searches, with a test that
keeps every image and no node bound.  ``reference_element_tuples`` is the
explicit-stack enumeration loop it replaced: depth-first over the layers in
ascending base order, the orbit points ascending within a layer.  The two
must give the same sequence, element for element, so enumeration orders and
the witnesses taken from them do not move.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprforge.cgroup import Sggi
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup, Permutation, _Chain, _mul


def reference_element_tuples(chain):
    """All elements of the chain's group, by the old explicit stack of
    (product so far, remaining choices)."""
    levels = sorted(chain.layers)
    reps = [[chain.layers[p].transversal[pt] for pt in sorted(chain.layers[p].transversal)]
            for p in levels]
    identity = tuple(range(chain.degree))
    if not reps:
        yield identity
        return
    last = reps[-1]
    stack = [(identity, iter(reps[0]))]
    while stack:
        acc, choices = stack[-1]
        if len(stack) == len(reps):
            stack.pop()
            for u in last:
                yield _mul(u, acc)
            continue
        for u in choices:
            stack.append((_mul(u, acc), iter(reps[len(stack)])))
            break
        else:
            stack.pop()


def corpus_sections():
    for name, g in corpus():
        sggi = Sggi.from_graph(g)
        labels = list(sggi.window.labels())
        for size in range(len(labels) + 1):
            for kept in itertools.combinations(labels, size):
                yield name, kept, sggi.section(kept)


def test_walk_matches_reference_on_corpus_sections():
    checked = 0
    for name, kept, group in corpus_sections():
        if group.order > 50_000:
            continue
        walked = list(group.element_tuples())
        assert walked == list(reference_element_tuples(group._chain)), (name, kept)
        elements = list(group.elements())
        assert all(type(p) is Permutation for p in elements)
        assert [p._img for p in elements] == walked
        checked += 1
    assert checked >= 900


@st.composite
def generator_lists(draw):
    """A degree of 0-8 and up to four permutations of it."""
    n = draw(st.integers(0, 8))
    gens = draw(st.lists(st.permutations(range(n)), max_size=4))
    return n, [Permutation._from_tuple(tuple(g)) for g in gens]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(generator_lists())
def test_walk_matches_reference_on_random_groups(case):
    n, gens = case
    chain = PermGroup(gens, degree=n)._chain
    walked = list(chain.element_tuples())
    assert walked == list(reference_element_tuples(chain))
    assert len(walked) == chain.order()


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_walk_of_trivial_groups(n):
    group = PermGroup([], degree=n)
    assert list(group.element_tuples()) == [tuple(range(n))]
    assert list(group.elements()) == [Permutation.identity(n)]
    chain = _Chain(n)
    assert list(chain.element_tuples()) == list(reference_element_tuples(chain)) \
        == [tuple(range(n))]
