"""The Jordan certificate against eager chains, sympy and near misses.

A group that moves exactly one orbit O, with |O| = m >= 8, has an odd
generator and holds an element with a cycle of prime length p,
m/2 < p <= m - 3, is Sym(O): the p-cycle makes it primitive, Jordan's
theorem gives Alt(O), and the odd generator gives the rest.  Such a group is
certified at construction and builds no chain until one is read.

Every group certified here is compared with a chain built eagerly from the
same generators (order, orbits, membership), and three large ones with
sympy.  The near misses are groups that a weaker rule would certify: each
fails one condition and must be left to its chain.
"""

import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge import report
from cprforge.cgroup import Sggi
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup, Permutation
from cprforge.prg import LabeledGraph

from test_chain_builds import chain_state
from test_lazy_chain import eager, probes, reference_orbits

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def jordan_certified(group):
    """Certified at construction, and not by its transposition generators."""
    return group._state is None and group._tcomp != group._orbit_id


def assert_matches_eager(group, gens, degree, rng):
    reference = eager(gens, degree)
    order = reference._chain.order()
    assert group.order == order
    assert group.orbits() == reference_orbits(gens, degree)
    assert group.is_symmetric_orbit_product == (
        order == math.prod(math.factorial(len(o)) for o in group.orbits()))
    for img in probes(gens, degree, reference, rng):
        assert group.contains_tuple(img) == (reference._chain.sift(img)[0] is None)
    return reference


def interval_sections(sggi):
    labels = list(sggi.window.labels())
    for i, j in itertools.combinations(range(len(labels) + 1), 2):
        kept = tuple(labels[i:j])
        yield kept, sggi.section(kept)


# -- corpus and two-row graphs ---------------------------------------------------------

def test_corpus_interval_sections_match_eager():
    rng = random.Random(0)
    seen = 0
    for name, g in corpus():
        sggi = Sggi.from_graph(g)
        for kept, group in interval_sections(sggi):
            if not jordan_certified(group):
                continue
            gens = [sggi.generator(l) for l in kept]
            reference = assert_matches_eager(group, gens, g.n, rng)
            # the chain built on first read is the eager one
            assert chain_state(group) == chain_state(reference), (name, kept)
            seen += 1
    assert seen >= 5


@pytest.mark.parametrize("r", range(5, 12))
def test_graph_x_groups_match_eager(r):
    rng = random.Random(r)
    for h in range(1, r - 3):
        sggi = Sggi.from_graph(cons.family_graph_x(r, h))
        whole = sggi.group()
        # the whole group is S_{2r-1}, shown without a chain
        assert jordan_certified(whole), h
        assert whole.order == math.factorial(2 * r - 1)
        for kept, group in interval_sections(sggi):
            if jordan_certified(group):
                gens = [sggi.generator(l) for l in kept]
                assert_matches_eager(group, gens, sggi.degree, rng)


@pytest.mark.parametrize("r, h", [(19, 9), (21, 10), (31, 3)])
def test_large_two_row_groups_match_sympy(r, h):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    sggi = Sggi.from_graph(cons.family_graph_x(r, h))
    group = sggi.group()
    assert jordan_certified(group)
    expected = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g._img)) for g in sggi.generators()]).order()
    assert group.order == expected == math.factorial(2 * r - 1)


# -- the step budget at high rank -------------------------------------------------------
# With 30 or more sparse involutions, 80 steps do not mix: the whole groups of
# graph_x(31,3), (41,5) and (41,20) first show a prime cycle at steps 95, 117
# and 132, past a fixed budget of 80, and would each build a Sym(n) chain
# (about 12 s on graph_x(31,3)).  The chain-only reference run leaves them out
# for that reason; sympy takes 13-15 s on each of the two larger ones.

@pytest.mark.parametrize("r, h", [(41, 5), (41, 20)])
def test_high_rank_whole_groups_are_certified(r, h):
    group = Sggi.from_graph(cons.family_graph_x(r, h)).group()
    assert jordan_certified(group)
    assert group.order == math.factorial(2 * r - 1)


# -- random groups of degree 8-20 ------------------------------------------------------

def is_odd(img):
    return sum(len(c) - 1 for c in Permutation._from_tuple(tuple(img)).cycles()) % 2 == 1


@st.composite
def one_orbit_groups(draw):
    """Degree 8-20: a cycle through a random set O of at least 8 points,
    which makes O an orbit, and one or two more generators on O: arbitrary
    permutations, even ones, or ones keeping the blocks {O[i], O[i+k], ...}
    that the cycle keeps too; so symmetric, alternating and imprimitive
    groups all occur.  Sometimes a transposition outside O adds an orbit."""
    n = draw(st.integers(8, 20))
    m = draw(st.integers(8, n))
    rng = draw(st.randoms(use_true_random=False))
    points = list(range(n))
    rng.shuffle(points)
    orbit = points[:m]
    cycle = list(range(n))
    for x, y in zip(orbit, orbit[1:] + orbit[:1]):
        cycle[x] = y
    gens = [cycle]
    for kind in draw(st.lists(st.sampled_from(["any", "even", "blocks"]),
                              min_size=1, max_size=2)):
        img = list(range(n))
        steps = [k for k in range(2, m) if m % k == 0]
        if kind == "blocks" and steps:
            k = rng.choice(steps)
            blocks = [orbit[i::k] for i in range(k)]
            targets = rng.sample(blocks, k)
            for block, target in zip(blocks, targets):
                for x, y in zip(block, rng.sample(target, len(target))):
                    img[x] = y
        else:
            for x, y in zip(orbit, rng.sample(orbit, m)):
                img[x] = y
            if kind == "even" and is_odd(img):
                img[orbit[0]], img[orbit[1]] = img[orbit[1]], img[orbit[0]]
        gens.append(img)
    if m < n - 1 and draw(st.booleans()):
        gens.append(Permutation.from_cycles(n, [(points[m] + 1, points[m + 1] + 1)])._img)
    return n, [Permutation._from_tuple(tuple(img)) for img in gens]


@SETTINGS
@given(one_orbit_groups())
def test_random_groups_match_eager(drawn):
    n, gens = drawn
    group = PermGroup(gens, degree=n)
    rng = random.Random(n)
    if group._state is not None:
        # left to its chain: the chain's order is the reference's
        assert group.order == eager(gens, n)._chain.order()
        moved = [o for o in group.orbits() if len(o) > 1]
        # a full symmetric group on one orbit of >= 8 points is never missed
        assert not (len(moved) == 1 and group.order == math.factorial(len(moved[0])))
        return
    assert_matches_eager(group, gens, n, rng)


# -- near misses -----------------------------------------------------------------------

def pgl27():
    """PGL(2,7) on the projective line, 0..6 as 1..7 and infinity as 8.  It
    holds 7-cycles (p = m - 1) but no 5-cycle, and x -> 3x is odd."""
    inf = 7
    inverse = {x: pow(x, -1, 7) for x in range(1, 7)}
    shift = [(x + 1) % 7 for x in range(7)] + [inf]
    scale = [3 * x % 7 for x in range(7)] + [inf]
    invert = [inf] + [-inverse[x] % 7 for x in range(1, 7)] + [0]
    return [Permutation([x + 1 for x in img]) for img in (shift, scale, invert)], 336


def s5_wr_s2():
    """S_5 wr S_2 on 10 points, blocks {1..5} and {6..10}: it holds
    5-cycles (p = m/2) and odd elements but is imprimitive."""
    return [Permutation.from_cycles(10, [(1, 2, 3, 4, 5)]),
            Permutation.from_cycles(10, [(1, 2)]),
            Permutation.from_cycles(10, [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)])], 28_800


def alt9():
    """Alt(9) from a 9-cycle and a 3-cycle: primitive, holds 5-cycles, but
    every generator is even."""
    return [Permutation.from_cycles(9, [tuple(range(1, 10))]),
            Permutation.from_cycles(9, [(1, 2, 3)])], 181_440


def diagonal_s8():
    """S_8 acting the same way on {1..8} and {9..16}: two orbits, and on the
    first one it looks like Sym(8), with an odd 8-cycle and 5-cycles."""
    return [Permutation.from_cycles(16, [tuple(range(1, 9)), tuple(range(9, 17))]),
            Permutation.from_cycles(16, [(1, 2), (9, 10)])], 40_320


@pytest.mark.parametrize("build", [pgl27, s5_wr_s2, alt9, diagonal_s8],
                         ids=["p-is-m-1", "p-is-half-m", "only-even-generators",
                              "two-orbits"])
def test_near_misses_are_left_to_their_chain(build):
    gens, order = build()
    group = PermGroup(gens)
    assert group._state is not None
    assert group.order == order
    assert not group.is_symmetric_orbit_product


# -- the whole group of a report --------------------------------------------------------

def renumbered(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return LabeledGraph(g.n, [(label, perm[a - 1], perm[b - 1])
                              for label, a, b in g.edges])


def test_reports_of_two_row_graphs_build_no_whole_group_chain(monkeypatch):
    """The whole group S_n is read only for its order and fingerprint."""
    wholes = []

    def recording(group):
        wholes.append(group)
        return fingerprint(group)

    fingerprint = report.fingerprint
    monkeypatch.setattr(report, "fingerprint", recording)
    rng = random.Random(7)
    for r, h in [(5, 1), (6, 2), (7, 3), (8, 3), (19, 9)]:
        g = cons.family_graph_x(r, h)
        for variant in [g] + [renumbered(g, rng) for _ in range(3)]:
            _, code = report.build_report(variant, {})
            assert code == 2
            assert wholes[-1]._state is None, (r, h)
    assert len(wholes) == 20
