"""Differential checks on renumbered and dualized corpus and glued graphs.

Random matchings rarely generate a string C-group above rank 3, so
``test_random_graphs`` sees passing verdicts only at low rank.  Here the
inputs are the named corpus graphs and the Theorem 1 gluings of two
eligible corpus graphs, each under a random vertex renumbering and an
optional dual: passing and failing verdicts up to rank 7.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge import constructions as cons
from cprforge.cgroup import Sggi
from cprforge.errors import ShapeViolation
from cprforge.paper_cases import corpus
from cprforge.prg import LabeledGraph

from test_random_graphs import assert_certificate_verifies

MAX_VERTICES = 10
MAX_RANK = 7
MAX_CLOSURE_VERTICES = 8

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def _small(g: LabeledGraph) -> bool:
    lo, hi = g.window()
    return g.n <= MAX_VERTICES and hi - lo + 1 <= MAX_RANK


def _eligible(g: LabeledGraph) -> bool:
    try:
        cons.glue_theorem1(g, cons.simplex(1))
    except ShapeViolation:
        return False
    return True


CORPUS = [g for _, g in corpus() if _small(g)]
ELIGIBLE = [g for _, g in corpus() if _eligible(g)]
GLUED = [glued for glued in (cons.glue_theorem1(a, b) for a in ELIGIBLE for b in ELIGIBLE)
         if _small(glued)]


@st.composite
def renumbered(draw):
    """(base, variant): a corpus or glued graph and a random vertex
    renumbering of it, dualized or not."""
    base = draw(st.one_of(st.sampled_from(CORPUS), st.sampled_from(GLUED)))
    perm = draw(st.permutations(range(1, base.n + 1)))
    variant = LabeledGraph(base.n, [(label, perm[a - 1], perm[b - 1])
                                    for label, a, b in base.edges])
    if draw(st.booleans()):
        variant = variant.dual()
    return base, variant


def test_strategy_covers_passing_verdicts_above_rank_3():
    passing = [g for g in CORPUS + GLUED
               if g.window()[1] - g.window()[0] >= 3
               and Sggi.from_graph(g).is_string_c_group().is_string_c_group]
    assert len(passing) >= 20
    assert any(g.window()[1] - g.window()[0] + 1 == MAX_RANK for g in passing)


@SETTINGS
@given(renumbered())
def test_modes_agree_on_renumbered_graphs(pair):
    _, g = pair
    sggi = Sggi.from_graph(g)
    recursive = sggi.is_string_c_group(mode="recursive")
    full = Sggi.from_graph(g).is_string_c_group(mode="full")
    assert recursive.is_string_c_group == full.is_string_c_group
    assert bool(recursive.string_property) == bool(full.string_property)
    if g.n <= MAX_CLOSURE_VERTICES:
        for verdict in (recursive, full):
            if verdict.certificate is not None and not verdict.certificate.ok:
                assert_certificate_verifies(sggi, verdict.certificate)


@settings(SETTINGS, max_examples=100)
@given(renumbered())
def test_verdict_and_order_invariant_under_renumbering_and_dual(pair):
    base, variant = pair
    before, after = Sggi.from_graph(base), Sggi.from_graph(variant)
    assert after.group().order == before.group().order
    assert (after.is_string_c_group().is_string_c_group
            == before.is_string_c_group().is_string_c_group)
