"""The Schreier-generator memo leaves every chain as it was.

``_Chain._close`` keeps, for one insertion, the Schreier generators that
have sifted to the identity, and ``_Chain._verify_level`` skips them when a
level is scanned again, until a rebuilt transversal changes a
representative.  ``_verify_level`` argues that a skip is exactly what
sifting again would do; this file checks it.  The loop without the memo is
kept here, verbatim, as a reference: it restarts a level's scan after every
growth and sifts every Schreier generator again.  Patched in, it must build
the same full chain state as the normal build on

* derandomized generator lists of degree 1-10 with 1-6 generators,
  identities and repeats allowed, and three lists on which a memo that is
  never emptied builds another chain;
* every section of every corpus graph, built in the same order;
* the whole group of every benchmark input;
* two alternating groups of degree 20-24, whose order sympy confirms.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cprforge import perm_core
from cprforge.cgroup import Sggi
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup, Permutation, _is_id, _mul

from test_certificate_reference import BENCH_INPUTS, family_case
from test_chain_builds import chain_state


def reference_close(self):
    """``_Chain._close`` without the memo: the sum over deeper levels per level."""
    while True:
        for p in sorted(self.layers, reverse=True):
            if self.layers[p].stamp != sum(
                    len(layer.gens) for q, layer in self.layers.items() if q >= p):
                self._verify_level(p)
                break
        else:
            return


def reference_verify_level(self, p):
    """``_Chain._verify_level`` without the memo: every Schreier generator
    is formed in full and sifted, on every scan."""
    layer = self.layers[p]
    while True:
        gens = self.level_gens(p)
        self._rebuild_transversal(p, gens)
        grew = False
        for pt, rep in layer.transversal.items():
            for s in gens:
                y = s[pt]
                schreier = _mul(_mul(rep, s), layer.inv_transversal[y])
                if _is_id(schreier):
                    continue
                residue, stuck = self.sift(schreier)
                if residue is None:
                    continue
                self._store(stuck, residue)
                self._verify_level(stuck)
                grew = True
                break
            if grew:
                break
        if not grew:
            layer.stamp = len(gens)
            return


def without_memo(monkeypatch):
    monkeypatch.setattr(perm_core._Chain, "_close", reference_close)
    monkeypatch.setattr(perm_core._Chain, "_verify_level", reference_verify_level)


def both_ways(build, monkeypatch):
    """The chain states of ``build()``'s groups, built normally and then
    with the reference loop; each group's chain is built inside its run."""
    normal = [chain_state(group) for group in build()]
    with monkeypatch.context() as patch:
        without_memo(patch)
        reference = [chain_state(group) for group in build()]
    return normal, reference


@st.composite
def involutions(draw, n: int):
    """A product of disjoint transpositions, the identity included."""
    points = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.integers(0, n // 2))
    return Permutation.from_cycles(n, [points[2 * i:2 * i + 2] for i in range(pairs)])


@st.composite
def generator_lists(draw):
    """Degree 1-10 and 1-6 generators, each any permutation or an
    involution, as a graph's labels give; identities and repeats allowed."""
    n = draw(st.integers(1, 10))
    gen = st.one_of(st.permutations(range(1, n + 1)).map(Permutation), involutions(n))
    return n, draw(st.lists(gen, min_size=1, max_size=6))


def listed(n: int, *cycles: str) -> tuple:
    return n, [Permutation.parse(text, n) for text in cycles]


# involution lists on which a set kept across a change of representatives
# skips a tuple that would now sift to a residue, and so stores another chain
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(listed(8, "(1,3)(2,4)(6,7)", "(1,2)(4,5)(6,8)", "(4,6)(7,8)",
                "(3,8)(6,7)", "(1,4)(2,7)"))
@example(listed(9, "(1,3)(4,9)(5,8)", "(1,9)(2,8)(3,6)(5,7)", "(1,5)"))
@example(listed(10, "(1,10)(2,6)(3,8)(4,9)", "(5,6)", "(4,6)", "(1,4)(3,5)(7,10)"))
@given(generator_lists())
def test_random_generator_lists(drawn):
    n, gens = drawn
    # hypothesis runs each example under one fixture, so patch by hand
    with pytest.MonkeyPatch.context() as monkeypatch:
        normal, reference = both_ways(lambda: [PermGroup(gens, degree=n)], monkeypatch)
    assert normal == reference


def all_sections(g):
    """Every section of g's involutions, fewest labels first, from one Sggi,
    so each extends its cached prefix as a report would."""
    sggi = Sggi.from_graph(g)
    labels = list(sggi.window.labels())
    return [sggi.section(kept) for size in range(len(labels) + 1)
            for kept in itertools.combinations(labels, size)]


def test_every_corpus_section(monkeypatch):
    for name, g in corpus():
        normal, reference = both_ways(lambda: all_sections(g), monkeypatch)
        assert normal == reference, name


BENCH_CASES = sorted({family_case(family, params)[0]: (family, params)
                      for inputs in BENCH_INPUTS.values()
                      for family, params in inputs}.items())


@pytest.mark.parametrize("name, family, params",
                         [(name, *case) for name, case in BENCH_CASES])
def test_bench_input_whole_groups(name, family, params, monkeypatch):
    _, g = family_case(family, params)
    normal, reference = both_ways(lambda: [Sggi.from_graph(g).group()], monkeypatch)
    assert normal == reference


def alternating(n: int) -> list:
    """(1,2,3) and an even long cycle, which generate Alt(n) for n >= 3."""
    long_cycle = range(1, n + 1) if n % 2 else range(2, n + 1)
    return [Permutation.from_cycles(n, [(1, 2, 3)]),
            Permutation.from_cycles(n, [tuple(long_cycle)])]


@pytest.mark.parametrize("n", [21, 24])
def test_alternating_groups(n, monkeypatch):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = alternating(n)
    normal, reference = both_ways(lambda: [PermGroup(gens)], monkeypatch)
    assert normal == reference
    order = math.prod(len(layer[2]) for layer in normal[0][1])
    sympy_group = combinatorics.PermutationGroup(
        [combinatorics.Permutation([x - 1 for x in g.images]) for g in gens])
    assert order == sympy_group.order() == math.factorial(n) // 2
