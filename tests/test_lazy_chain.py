"""Certified symmetric products and lazily built chains.

A group whose transposition generators connect each of its orbits is
certified at construction and builds no chain until one is read.  The
reference model here builds a chain eagerly from the same generator list
with ``_Chain`` directly, as every group did before certification; a
certified group must agree with it on order, orbits, the symmetric-product
flag and membership, and its lazily built chain must equal the reference
chain state exactly, so enumeration orders and witnesses do not move.
"""

import itertools
import math
import random
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge import perm_core
from cprforge.cgroup import Sggi
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup, Permutation
from cprforge.prg import LabeledGraph
from cprforge.report import build_report

from test_chain_builds import chain_state


def eager(gens, degree):
    """Chain and generators, inserted one by one from scratch."""
    chain = perm_core._Chain(degree)
    for g in gens:
        chain.insert(g._img)
    return SimpleNamespace(_chain=chain, generators=tuple(gens))


def reference_orbits(gens, degree):
    """Orbits by breadth-first search over the generators, 1-based."""
    seen, orbits = set(), []
    for start in range(degree):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            frontier = [g._img[x] for x in frontier for g in gens
                        if g._img[x] not in orbit]
            orbit.update(frontier)
        seen |= orbit
        orbits.append(tuple(sorted(x + 1 for x in orbit)))
    return tuple(orbits)


def probes(gens, degree, reference, rng):
    """Members and non-members: generators, their pairwise products, the
    first reference elements, random permutations, and cross-orbit
    transpositions."""
    imgs = [g._img for g in gens]
    out = imgs + [perm_core._mul(a, b) for a in imgs for b in imgs]
    out += list(itertools.islice(reference._chain.element_tuples(), 40))
    for _ in range(20):
        img = list(range(degree))
        rng.shuffle(img)
        out.append(tuple(img))
    for a, b in itertools.combinations(range(min(degree, 6)), 2):
        img = list(range(degree))
        img[a], img[b] = b, a
        out.append(tuple(img))
    return out


def assert_matches_eager(group, gens, degree, rng):
    """Everything the certificate answers, then the lazily built chain."""
    reference = eager(gens, degree)
    order = reference._chain.order()
    orbits = reference_orbits(gens, degree)
    assert group.order == order
    assert group.orbits() == orbits
    assert group.is_symmetric_orbit_product == (
        order == math.prod(math.factorial(len(o)) for o in orbits))
    for img in probes(gens, degree, reference, rng):
        assert group.contains_tuple(img) == (reference._chain.sift(img)[0] is None)
    # the generating set read without a chain builds the very same chain
    rebuilt = PermGroup(group.generators, degree=degree)
    assert chain_state(rebuilt) == chain_state(reference)
    assert chain_state(group) == chain_state(reference)


def certified(group):
    """True while a freshly constructed group has no chain."""
    return group._state is None


def test_corpus_sections_match_eager():
    rng = random.Random(0)
    seen_certified = 0
    for name, g in corpus():
        sggi = Sggi.from_graph(g)
        labels = list(sggi.window.labels())
        # ascending size: a section extends its prefix before either's
        # chain is read, so unbuilt certified prefixes get extended
        subsets = [kept for size in range(len(labels) + 1)
                   for kept in itertools.combinations(labels, size)]
        sections = [sggi.section(kept) for kept in subsets]
        seen_certified += sum(map(certified, sections))
        for kept, group in zip(subsets, sections):
            gens = [sggi.generator(l) for l in kept]
            assert_matches_eager(group, gens, sggi.degree, rng)
    # 261 of the 922 sections
    assert seen_certified >= 250


def test_generating_set_is_the_inputs_before_and_after_the_chain():
    sggi = Sggi.from_graph(LabeledGraph(3, [(0, 1, 2), (1, 2, 3), (2, 1, 3)]))
    group = sggi.section([0, 1, 2])
    assert certified(group)
    assert group.generators == tuple(sggi.generators())
    group._chain
    assert not certified(group)
    assert group.generators == tuple(sggi.generators())
    # label 2 repeats label 0, so the section builds its chain when constructed
    sggi = Sggi.from_graph(LabeledGraph(5, [(0, 1, 2), (0, 3, 4), (1, 2, 3),
                                            (1, 4, 5), (2, 1, 2), (2, 3, 4)]))
    assert sggi.generator(2) == sggi.generator(0)
    group = sggi.section([0, 1, 2])
    assert not certified(group)
    assert group.generators == tuple(sggi.generators())


def test_corpus_generating_sets_are_the_involutions():
    """Whichever sections were built, or extended, before."""
    rng = random.Random(0)
    for name, g in corpus():
        sggi = Sggi.from_graph(g)
        labels = list(sggi.window.labels())
        subsets = [kept for size in range(len(labels) + 1)
                   for kept in itertools.combinations(labels, size)]
        rng.shuffle(subsets)
        for kept in subsets:
            group = sggi.section(kept)
            involutions = tuple(sggi.generator(l) for l in kept)
            assert group.generators == involutions, (name, kept)
            if rng.random() < 0.5:
                group._chain
                assert group.generators == involutions, (name, kept)


@st.composite
def transposition_lists(draw):
    """Degree 1-9, 0-7 generators, each a transposition or (from degree 4)
    a double transposition, and cut points splitting the list into
    extension steps."""
    n = draw(st.integers(1, 9))
    gens = []
    for _ in range(draw(st.integers(0, 7))):
        if n < 2:
            gens.append(Permutation.identity(n))
            continue
        pts = draw(st.permutations(range(1, n + 1)))
        double = n >= 4 and draw(st.booleans())
        cycles = [pts[:2], pts[2:4]] if double else [pts[:2]]
        gens.append(Permutation.from_cycles(n, cycles))
    cuts = sorted(draw(st.sets(st.integers(0, len(gens)), max_size=3)))
    return n, gens, cuts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(transposition_lists())
def test_random_transposition_lists_match_eager(drawn):
    n, gens, cuts = drawn
    rng = random.Random(len(gens))
    # a chain of extensions, no chain read until every step is built
    steps, group, start = [], None, 0
    for end in [*cuts, len(gens)]:
        group = PermGroup(gens[start:end], degree=n, extends=group)
        steps.append((group, gens[:end]))
        start = end
    # the longest first, so a lazily built chain may have an unbuilt prefix
    for group, prefix_gens in reversed(steps):
        assert_matches_eager(group, prefix_gens, n, rng)


def test_extending_an_unbuilt_certified_prefix():
    t = [Permutation.from_cycles(6, [(a, a + 1)]) for a in range(1, 6)]
    flip = Permutation.from_cycles(4, [(1, 3)])
    prefix = PermGroup([flip], degree=4)
    assert certified(prefix)
    # a 4-cycle makes the extension the dihedral group of order 8, which
    # stays uncertified, so its constructor builds its own chain from every
    # input, not the prefix's
    rotation = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    grown = PermGroup([rotation], degree=4, extends=prefix)
    assert certified(prefix) and not certified(grown)
    assert grown.order == 8
    assert chain_state(prefix) == chain_state(eager([flip], 4))
    assert chain_state(grown) == chain_state(eager([flip, rotation], 4))
    # and a certified extension of a certified prefix stays unbuilt
    other = PermGroup(t[:2], degree=6)
    longer = PermGroup(t[2:], degree=6, extends=other)
    assert certified(other) and certified(longer)
    assert longer.order == math.factorial(6)
    assert chain_state(longer) == chain_state(eager(t, 6))
    assert chain_state(other) == chain_state(eager(t[:2], 6))


def test_certificate_needs_every_orbit_connected():
    # (1,2)(3,4) joins no transposition component, yet <(1,2), (1,2)(3,4)>
    # of order 4 is certified: its restrictions to {1,2} and {3,4} are
    # transpositions and its sign vectors (1,0), (1,1) span F_2^2, so it is
    # Sym({1,2}) x Sym({3,4})
    a = Permutation.from_cycles(4, [(1, 2)])
    ab = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    group = PermGroup([a, ab])
    assert certified(group)
    assert group.order == 4 and group.is_symmetric_orbit_product
    # a transposition for the second orbit certifies it
    b = Permutation.from_cycles(4, [(3, 4)])
    assert certified(PermGroup([b], extends=group, degree=4))
    # the trivial group is certified with order 1
    trivial = PermGroup([], degree=3)
    assert certified(trivial) and trivial.order == 1
    assert list(trivial.element_tuples()) == [(0, 1, 2)]


def test_sympy_order_and_membership():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(15)
    seen_certified = 0
    for trial in range(30):
        n = rng.randint(10, 15)
        gens = []
        for _ in range(rng.randint(1, 2 * n)):
            pts = rng.sample(range(1, n + 1), 4)
            double = rng.random() < 0.2
            gens.append(Permutation.from_cycles(
                n, [pts[:2], pts[2:]] if double else [pts[:2]]))
        group = PermGroup(gens)
        seen_certified += certified(group)
        reference = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g._img)) for g in gens])
        assert group.order == reference.order(), trial
        for _ in range(10):
            img = list(range(n))
            rng.shuffle(img)
            member = reference.contains(combinatorics.Permutation(img))
            assert group.contains_tuple(tuple(img)) == member, trial
        for g in gens[:5]:
            assert group.contains_tuple(g._img)
    assert seen_certified >= 10


# -- guards: chains built only where needed, once, and safely ------------------

def test_simplex_report_builds_no_chain(monkeypatch):
    built = []

    class CountingChain(perm_core._Chain):
        def __init__(self, degree):
            built.append(degree)
            super().__init__(degree)

    monkeypatch.setattr(perm_core, "_Chain", CountingChain)
    report, code = build_report(cons.simplex(12), {"path": "simplex(12)"})
    assert code == 0 and report["structure"]["primitive"] is True
    assert built == []


def test_lemme1_report_builds_no_chain_twice(monkeypatch):
    seen = []
    grow = PermGroup._grow

    def recording(self, prefix_chain):
        # key each build by the whole generator list its chain represents
        seen.append((self.degree, tuple(g.images for g in self.generators)))
        return grow(self, prefix_chain)

    monkeypatch.setattr(PermGroup, "_grow", recording)
    build_report(cons.family_lemme1(6), {"path": "lemme1(6)"})
    assert len(seen) > 10
    assert len(seen) == len(set(seen))


def test_concurrent_first_reads_share_one_build():
    sggi = Sggi.from_graph(cons.simplex(7))
    prefix = sggi.section(range(0, 5))
    group = sggi.section(range(0, 7))
    assert certified(prefix) and certified(group)
    reference = eager(sggi.generators(), sggi.degree)
    barrier = threading.Barrier(6)
    results = []

    def reader():
        barrier.wait(timeout=30)
        results.append((group._chain, group.generators, chain_state(group)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    chain, gens, state = results[0]
    assert state == chain_state(reference)
    for other_chain, other_gens, other_state in results:
        assert other_chain is chain and other_gens == gens
        assert other_state == state
    # reading the section's chain left the prefix's unbuilt; this read
    # builds it, from scratch
    assert chain_state(prefix) == chain_state(eager(sggi.generators()[:5], sggi.degree))


def reference_witness(sggi, left, right, meet):
    """First element of left ^ right, in the smaller section's reference
    enumeration order (left on a tie), outside the meet section."""
    def chain(labels):
        return eager([sggi.generator(l) for l in labels], sggi.degree)._chain

    a, b, c = chain(left), chain(right), chain(meet)
    small, big = (a, b) if a.order() <= b.order() else (b, a)
    for img in small.element_tuples():
        if big.sift(img)[0] is None and c.sift(img)[0] is not None:
            return Permutation._from_tuple(img)
    return None


@pytest.mark.parametrize("n, edges, left, right, witness", [
    # both sections certified, the sym-product fast path fails
    (3, [(0, 1, 3), (1, 1, 3), (2, 1, 3)], (0,), (1,), "(1,3)"),
    # only the smaller section, kept on {1, 2}, is certified
    (5, [(0, 3, 4), (0, 2, 5), (1, 1, 5), (2, 2, 5)], (0, 1), (1, 2), "(2,5)"),
])
def test_certified_smaller_section_keeps_its_witness(n, edges, left, right, witness):
    g = LabeledGraph(n, edges)
    sggi = Sggi.from_graph(g)
    A, B = sggi.section(left), sggi.section(right)
    small = A if A.order <= B.order else B
    assert certified(small)
    cert = sggi.check_ip_recursive()
    assert (cert.left, cert.right) == (left, right)
    # the search read the smaller section's chain
    assert not certified(small)
    assert cert.witness.cycle_string() == witness
    assert cert.witness == reference_witness(Sggi.from_graph(g), left, right, cert.meet)
