"""Whole reports with every certificate off are the reports with them on.

``PermGroup._certified`` is the one place a group is taken to be the product
of its orbits' symmetric groups without a chain.  Patched to say no, every
group builds its chain, so the reports of that run are a reference made by
the chain alone.  They must equal the normal reports, timings aside, on:

* the named corpus, in both modes;
* the benchmark's inputs, at their canonical numbering and under two
  renumberings drawn as the benchmark draws them;
* larger members of the ladder, two-row and wreath families and of the
  two-piece gluing ``counterexample1``, each under one such renumbering;
* connected graphs on 8-10 vertices whose every label has exactly two
  edges, so every generator is even and the product rule's sign test must
  refuse them.
"""

import random

import pytest

from cprforge.constructions import FamilySpec, build_family
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup
from cprforge.prg import LabeledGraph
from cprforge.report import build_report

BENCH_INPUTS = {
    "recursive": [("simplex", {"r": 8}), ("simplex", {"r": 10}), ("simplex", {"r": 12}),
                  ("simplex", {"r": 14}), ("lemme1", {"r": 5}), ("lemme1", {"r": 6}),
                  ("lemme1", {"r": 7}), ("wreathsimp", {"r": 6}),
                  ("graph_x", {"r": 5, "h": 1}), ("graph_x", {"r": 6, "h": 2}),
                  ("graph_x", {"r": 7, "h": 3}), ("graph_x", {"r": 8, "h": 3})],
    "full": [("simplex", {"r": 7}), ("simplex", {"r": 8}), ("lemme1", {"r": 6}),
             ("wreathsimp", {"r": 6}), ("graph_x", {"r": 6, "h": 2}),
             ("counterexample1", {"r": 6, "h": 4}),
             ("workswithsimplices", {"i": 3, "r": 5}), ("speccase", {"r": 4})],
}


# lemme1 and simplex sampled, graph_x at its lowest, middle and highest h,
# and the two-piece gluing counterexample1, whose sections the product rule
# certifies; the whole set costs about 8 s of chain-only and normal reports
# on 2 x86 cores
LARGE_INPUTS = ([("lemme1", {"r": r}) for r in (8, 10, 13, 15)]
                + [("counterexample1", {"r": r, "h": h}) for r, h in ((8, 3), (10, 4))]
                + [("graph_x", {"r": r, "h": h}) for r in (9, 11, 13)
                   for h in (1, (r - 3) // 2, r - 4)]
                + [("wreathsimp", {"r": r}) for r in range(7, 13)]
                + [("simplex", {"r": r}) for r in (15, 20, 22)])


def family_case(family: str, params: dict):
    name = f"{family}({','.join(str(v) for v in params.values())})"
    return name, build_family(FamilySpec(family, params))


def renumbered(g, key: str):
    """The graph under the vertex renumbering drawn from ``key``."""
    perm = list(range(1, g.n + 1))
    random.Random(key).shuffle(perm)
    return LabeledGraph(g.n, [(label, perm[a - 1], perm[b - 1])
                              for label, a, b in g.edges])


def bench_cases():
    for mode, inputs in BENCH_INPUTS.items():
        for family, params in inputs:
            name, g = family_case(family, params)
            yield name, g, mode
            for k in range(2):
                yield f"{name}@{k}", renumbered(g, f"7/{name}/{k}"), mode


def large_cases():
    for family, params in LARGE_INPUTS:
        name, g = family_case(family, params)
        yield f"{name}@0", renumbered(g, f"7/{name}/0"), "recursive"


def two_edge_label_graphs(count: int):
    """The first ``count`` connected graphs of a fixed random sequence on
    8-10 vertices whose labels 0..k-1 each have exactly two edges."""
    rng = random.Random(2)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(8, 10)
        edges = []
        for label in range(rng.randint(n // 2, n // 2 + 1)):
            a, b, c, d = rng.sample(range(1, n + 1), 4)
            edges += [(label, min(a, b), max(a, b)), (label, min(c, d), max(c, d))]
        g = LabeledGraph(n, edges)
        if len(g.components()) == 1:
            graphs.append((f"two-edge-labels#{len(graphs)}", g, "recursive"))
    return graphs


def reports(cases) -> list:
    out = []
    for name, g, mode in cases:
        report, code = build_report(g, {"path": name}, mode=mode)
        del report["timings"]
        out.append((report, code))
    return out


CASE_SETS = {
    "corpus": lambda: [(name, g, mode) for name, g in corpus()
                       for mode in ("recursive", "full")],
    "bench": lambda: list(bench_cases()),
    "large": lambda: list(large_cases()),
    "two-edge-labels": lambda: two_edge_label_graphs(24),
}


@pytest.mark.parametrize("which", sorted(CASE_SETS))
def test_reports_equal_the_chain_only_reference(which, monkeypatch):
    cases = CASE_SETS[which]()
    certified = reports(cases)
    monkeypatch.setattr(PermGroup, "_certified", lambda self: False)
    reference = reports(cases)
    for (name, _, mode), got, want in zip(cases, certified, reference):
        assert got == want, (name, mode)
