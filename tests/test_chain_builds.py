"""Each group's stabilizer chain is built once, and the chains stay put.

Witnesses are first elements of section enumerations, so they depend on
every transversal representative the chain engine picks.  The digests
below pin the enumeration order of every section of order <= 50,000 of
four graphs, beyond what the golden reports cover.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge import perm_core
from cprforge.cgroup import Sggi
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup, Permutation, intersection
from cprforge.report import build_report

SECTION_ORDER_LIMIT = 50_000

SECTION_DIGESTS = {
    "graph_x(6,2)": (lambda: cons.family_graph_x(6, 2),
                     "da27c077d39f42fc4119f87c6262fbae5038a6232bfc05eba623eba00eb29396"),
    "lemme1(4)": (lambda: cons.family_lemme1(4),
                  "85d1cbdf92c95ab6c1f40096c4fb8843e67e84493baf19373d4ecdf9e2be1f19"),
    "wreathsimp(4)": (lambda: cons.family_wreathsimp(4),
                      "97107cb3eb6f1f3c4ebfacdc7addff19f5354938c6742d1cbe2b182db6e8e810"),
    "nonexample_sevenvertex": (cons.nonexample_sevenvertex,
                               "b0ecf7c14a2bcc21e4e50d946b51e9eb5d5d1abb89f4f2a0f1584510b22d446f"),
}


def P(text, degree):
    return Permutation.parse(text, degree)


def test_intersection_builds_one_chain(monkeypatch):
    g1 = PermGroup([P("(1,2)", 5), P("(2,3)", 5), P("(4,5)", 5)])
    g2 = PermGroup([P("(2,3)", 5), P("(3,4)", 5), P("(4,5)", 5)])
    built = []

    class CountingChain(perm_core._Chain):
        def __init__(self, degree):
            built.append(degree)
            super().__init__(degree)

    monkeypatch.setattr(perm_core, "_Chain", CountingChain)
    inter = intersection(g1, g2)
    assert built == [5]
    assert inter.order == 4


def count_grows(monkeypatch):
    """Spy on ``PermGroup._grow``: a list that gains one entry per chain
    built or extended."""
    grown = []
    grow = PermGroup._grow

    def counting(self, prefix_chain):
        grown.append(self)
        return grow(self, prefix_chain)

    monkeypatch.setattr(PermGroup, "_grow", counting)
    return grown


def test_report_builds_no_chain_twice(monkeypatch):
    g = cons.simplex(5)
    with monkeypatch.context() as spy:
        plain = count_grows(spy)
        build_report(g, {"path": "simplex(5)"})
    seen = []
    build = PermGroup.__init__

    def recording(self, generators, degree=None, *, extends=None):
        # key each construction by the whole input list it represents; the
        # prefix's inputs build no chain, so the spy leaves the run as it is
        gens = tuple(generators)
        full = (extends.generators if extends is not None else ()) + gens
        seen.append((degree or full[0].degree, tuple(g.images for g in full)))
        build(self, gens, degree=degree, extends=extends)

    grown = count_grows(monkeypatch)
    monkeypatch.setattr(PermGroup, "__init__", recording)
    build_report(g, {"path": "simplex(5)"})
    assert seen
    assert len(seen) == len(set(seen))
    assert len(grown) == len(plain) == 0


def test_generators_are_the_inputs():
    a, b = P("(1,2)", 4), P("(3,4)", 4)
    inputs = (Permutation.identity(4), a, b, a * b, a, b)
    group = PermGroup(inputs)
    assert group.generators == inputs
    assert group.order == 4
    assert PermGroup(iter([a, b]), degree=4).generators == (a, b)
    # an extended group lists its prefix's inputs, then its own
    extended = PermGroup(inputs[3:], degree=4, extends=PermGroup(inputs[:3]))
    assert extended.generators == PermGroup(inputs).generators == inputs
    # reading them builds no chain
    sggi = Sggi.from_graph(cons.simplex(5))
    section = sggi.section(range(0, 4))
    assert section._state is None
    assert section.generators == tuple(sggi.generators()[:4])
    assert section._state is None


def test_induced_on_every_point_is_the_group():
    group = Sggi.from_graph(cons.simplex(3)).group()
    assert group.induced_on([4, 3, 2, 1]) is group


def section_digest(g) -> str:
    sggi = Sggi.from_graph(g)
    labels = list(sggi.window.labels())
    digest = hashlib.sha256()
    for size in range(len(labels) + 1):
        for kept in itertools.combinations(labels, size):
            group = sggi.section(kept)
            if group.order > SECTION_ORDER_LIMIT:
                continue
            digest.update(repr(kept).encode())
            for img in group.element_tuples():
                digest.update(bytes(img))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SECTION_DIGESTS))
def test_section_enumeration_digests(name):
    build, expected = SECTION_DIGESTS[name]
    assert section_digest(build()) == expected


# -- chains built by extension ------------------------------------------------

def chain_state(group):
    """Everything a chain's later growth and enumeration read, in dict order."""
    chain = group._chain
    layers = [(p, list(layer.gens), list(layer.transversal.items()),
               list(layer.inv_transversal.items()), layer.stamp)
              for p, layer in chain.layers.items()]
    return chain.degree, layers, group.generators


def record_extensions(monkeypatch):
    """Spy on ``PermGroup``: the number of inputs of each construction that
    extends another group, in construction order."""
    extended = []
    build = PermGroup.__init__

    def recording(self, generators, degree=None, *, extends=None):
        generators = tuple(generators)
        if extends is not None:
            extended.append(len(generators))
        build(self, generators, degree=degree, extends=extends)

    monkeypatch.setattr(PermGroup, "__init__", recording)
    return extended


def assert_sections_match_scratch(sggi, subsets, monkeypatch):
    """Every section equals its chain built from scratch; returns how many
    sections extended a cached prefix, each by exactly one involution."""
    with monkeypatch.context() as spy:
        extended = record_extensions(spy)
        sections = [sggi.section(kept) for kept in subsets]
    for kept, group in zip(subsets, sections):
        scratch = PermGroup([sggi.generator(l) for l in sorted(kept)],
                            degree=sggi.degree)
        assert chain_state(group) == chain_state(scratch), kept
    assert set(extended) <= {1}
    return len(extended)


EXTENSION_GRAPHS = {name: build for name, (build, _) in SECTION_DIGESTS.items()}
EXTENSION_GRAPHS["simplex(9)"] = lambda: cons.simplex(9)


@pytest.mark.parametrize("name", sorted(EXTENSION_GRAPHS))
def test_extended_sections_equal_scratch_chains(name, monkeypatch):
    g = EXTENSION_GRAPHS[name]()
    labels = list(Sggi.from_graph(g).window.labels())
    subsets = [kept for size in range(len(labels) + 1)
               for kept in itertools.combinations(labels, size)]
    # ascending size: every section of two or more labels extends its
    # cached prefix minus the largest label
    extended = assert_sections_match_scratch(Sggi.from_graph(g), subsets, monkeypatch)
    assert extended == sum(1 for kept in subsets if len(kept) >= 2)
    # shuffled: the prefix minus the largest label is cached for some
    # sections and not for others, which are built from scratch
    shuffled = subsets[:]
    random.Random(0).shuffle(shuffled)
    extended = assert_sections_match_scratch(Sggi.from_graph(g), shuffled, monkeypatch)
    assert 0 < extended < len(shuffled)


@pytest.mark.parametrize("mode", ["recursive", "full"])
def test_reports_extend_sections_one_label_at_a_time(mode, monkeypatch):
    extended = record_extensions(monkeypatch)
    for name, g in corpus():
        build_report(g, {"path": name}, mode=mode)
    assert extended and set(extended) == {1}


@st.composite
def generator_lists(draw):
    """Degree 1-8, 1-6 generators (identities and repeats allowed), and
    ascending cut points splitting the list into extension steps."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=6))
    cuts = sorted(draw(st.sets(st.integers(0, len(gens)), max_size=3)))
    return n, [Permutation(images) for images in gens], cuts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(generator_lists())
def test_extended_chain_equals_scratch(drawn):
    n, gens, cuts = drawn
    group, start = None, 0
    for end in [*cuts, len(gens)]:
        before = None if group is None else chain_state(group)
        grown = PermGroup(gens[start:end], degree=n, extends=group)
        # extending copies the chain, so the prefix group does not move
        assert group is None or chain_state(group) == before
        group, start = grown, end
    scratch = PermGroup(gens, degree=n)
    assert chain_state(group) == chain_state(scratch)
    assert list(group.element_tuples()) == list(scratch.element_tuples())
    assert group.orbits() == scratch.orbits()
