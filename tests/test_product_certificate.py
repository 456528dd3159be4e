"""The product certificate against eager chains, sympy and near misses.

A group moving the orbits O_1 .. O_k is certified as Sym(O_1) x ... x
Sym(O_k) when (i) its generators' sign vectors, one parity bit per orbit,
span F_2^k, and (ii) each projection onto an orbit is shown to be the full
symmetric group: by the transpositions among the generators' restrictions,
closed under conjugation (alpha), or, on 8 points or more, by a prime cycle
of the orbit's own found in a product-replacement sequence (beta).

Every certified group here has sympy's order, the product of the orbits'
factorials, and agrees with a chain built eagerly from the same
generators.  The ladder's sections of that order are all certified, and
the near misses, each a group that a rule missing one clause would
certify, are left to their chain.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge.cgroup import Sggi
from cprforge.perm_core import PermGroup, Permutation

from test_jordan_certificate import alt9, interval_sections, pgl27, s5_wr_s2
from test_lazy_chain import assert_matches_eager, certified, eager
from test_point_partitions import sympy_order

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def sym_order(group):
    return math.prod(math.factorial(len(o)) for o in group.orbits())


# -- soundness on random multi-orbit groups ----------------------------------------------

@st.composite
def multi_orbit_groups(draw):
    """Degree 3-12: the points cut into 1-4 random blocks, and 1-5
    generators that keep every block, each acting on each block as an
    arbitrary permutation, a transposition, a cycle of the whole block or
    the identity.  Sometimes the second block copies the first one's
    action, when they have the same size, so diagonals on equal orbits
    occur."""
    n = draw(st.integers(3, 12))
    rng = draw(st.randoms(use_true_random=False))
    points = list(range(n))
    rng.shuffle(points)
    k = draw(st.integers(1, min(4, n)))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    diagonal = k > 1 and len(blocks[0]) == len(blocks[1]) and draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        img = list(range(n))
        for block in blocks:
            kind = rng.choice(["any", "any", "transposition", "transposition",
                               "cycle", "identity"])
            if kind == "any":
                targets = rng.sample(block, len(block))
            elif kind == "transposition" and len(block) > 1:
                a, b = rng.sample(range(len(block)), 2)
                targets = list(block)
                targets[a], targets[b] = block[b], block[a]
            elif kind == "cycle":
                targets = block[1:] + block[:1]
            else:
                targets = block
            for x, y in zip(block, targets):
                img[x] = y
        if diagonal:
            first, second = blocks[0], blocks[1]
            for x, y in zip(first, second):
                img[y] = second[first.index(img[x])]
        gens.append(Permutation._from_tuple(tuple(img)))
    return n, gens


@SETTINGS
@given(multi_orbit_groups())
def test_certified_random_groups_are_the_orbit_product(drawn):
    n, gens = drawn
    group = PermGroup(gens, degree=n)
    if certified(group):
        assert sympy_order(gens) == sym_order(group)
    assert_matches_eager(group, gens, n, random.Random(n))


# -- completeness on the ladder and its two-piece gluing ------------------------------------

@pytest.mark.parametrize("build", [*(lambda r=r: cons.family_lemme1(r) for r in range(5, 10)),
                                   lambda: cons.family_counterexample1(6, 4)],
                         ids=[*(f"lemme1({r})" for r in range(5, 10)),
                              "counterexample1(6,4)"])
def test_ladder_sections_of_product_order_are_certified(build):
    sggi = Sggi.from_graph(build())
    groups = list(interval_sections(sggi))
    groups.append((tuple(sggi.window.labels()), sggi.group()))
    seen = 0
    for kept, group in groups:
        order = eager([sggi.generator(l) for l in kept], sggi.degree)._chain.order()
        assert certified(group) == (order == sym_order(group)), kept
        assert group.order == order, kept
        # past the transposition test: the product rule's own certificates
        seen += certified(group) and group._tcomp != group._orbit_id
    assert seen >= 3


# -- near misses -----------------------------------------------------------------------------

def on(n, *cycles):
    return Permutation.parse("".join(cycles), n)


def diagonal_s5():
    """Sym(5) acting the same way on {1..5} and {6..10}: each projection is
    Sym(5), but the sign vectors (1,1) and (0,0) span a line."""
    return [on(10, "(1,2,3,4,5)(6,7,8,9,10)"), on(10, "(1,2)(6,7)")], 120


def d4_x_s3():
    """The dihedral group of the square on {1..4} times Sym({5,6,7}): the
    signs span F_2^2, but the conjugates of (1,3) join only {1,3} and
    {2,4}."""
    return [on(7, "(1,2,3,4)"), on(7, "(1,3)"), on(7, "(5,6)"), on(7, "(5,7)")], 48


def s4_fibred_s3():
    """Sym(4) on {1..4}, acting on {5,6,7} through its action on the three
    pairings 12|34, 13|24, 14|23: the fibre product Sym(4) x_Sym(3) Sym(3),
    both projections full, one sign bit for both orbits."""
    return [on(7, "(1,2)(6,7)"), on(7, "(1,2,3,4)(5,7)")], 24


def s11_x_pgl27():
    """Sym(11) on {1..11} (a transposition and an 11-cycle) times PGL(2,7)
    on {12..19}: the signs span F_2^2, but PGL(2,7) holds no 5-cycle, the
    one prime 8/2 < p <= 8 - 3, while its sequence's elements hold 5-cycles
    on the other orbit."""
    pgl, order = pgl27()
    shifted = [Permutation((*range(1, 12), *(x + 11 for x in g.images))) for g in pgl]
    return ([on(19, "(1,2)"), on(19, "(" + ",".join(map(str, range(1, 12))) + ")"),
             *shifted], math.factorial(11) * order)


def s8_x_alt9():
    """Sym(8) on {1..8} times Alt(9) on {9..17}: every generator is even
    on the second orbit."""
    alt, order = alt9()
    shifted = [Permutation((*range(1, 9), *(x + 8 for x in g.images))) for g in alt]
    return [on(17, "(1,2)"), on(17, "(1,2,3,4,5,6,7,8)"), *shifted], math.factorial(8) * order


@pytest.mark.parametrize("build", [diagonal_s5, d4_x_s3, s4_fibred_s3, s11_x_pgl27,
                                   s8_x_alt9, s5_wr_s2],
                         ids=["sign-rank-1", "split-by-closure", "fibre-product",
                              "prime-cycle-on-other-orbit", "even-on-one-orbit",
                              "imprimitive"])
def test_near_misses_are_left_to_their_chain(build):
    gens, order = build()
    group = PermGroup(gens)
    assert not certified(group)
    assert group.order == order
    assert not group.is_symmetric_orbit_product
