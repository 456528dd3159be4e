"""Structural diagnostics: fracture graphs, splits, fingerprints, and the
paper's refutation witness.

Orbits of label-deleted subgroups coincide with connected components of the
label-deleted subgraph, so fracture graphs and splits are computed purely
graph-theoretically; group orders only enter the fingerprint.  The witness
is only built here: ``cgroup.verify_certificate`` re-checks it as the
certificate of the failing node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

from .constructions import _check_graph_x
from .errors import NoFractureGraph
from .perm_core import PermGroup, Permutation
from .prg import LabeledGraph


# ---------------------------------------------------------------------------
# fracture graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractureReport:
    """One chosen crossing edge per label, or the labels that admit none."""

    exists: bool
    edges: dict = field(default_factory=dict)       # label -> (a, b)
    failing_labels: tuple = ()

    def __bool__(self) -> bool:
        return self.exists


def _label_deleted(g: LabeledGraph):
    """Per label: the components of the graph without that label's edges,
    each vertex's component index, and the label's edges joining two
    components."""
    for label in g.labels:
        comps = g.restrict_labels(set(g.labels) - {label}).components()
        comp_of = {v: idx for idx, comp in enumerate(comps) for v in comp}
        crossing = [(a, b) for lab, a, b in g.edges_with_label(label)
                    if comp_of[a] != comp_of[b]]
        yield label, comps, comp_of, crossing


def fracture_graph(g: LabeledGraph) -> FractureReport:
    """For each label i, a least i-edge joining distinct orbits of the
    subgroup generated by the other labels; fails when some label-deleted
    subgroup has no more orbits than the full group.
    """
    base_count = len(g.components())
    chosen = {}
    failing = []
    for label, comps, _, crossing in _label_deleted(g):
        if len(comps) <= base_count:
            failing.append(label)
        else:
            chosen[label] = min(crossing)
    if failing:
        return FractureReport(False, {}, tuple(failing))
    return FractureReport(True, chosen, ())


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitReport:
    """An i-split: the unique i-edge crossing the two-part orbit partition
    produced by deleting the label-i generator.

    ``orientation`` records which assignment of low/high labels to the two
    sides certifies perfection: "low-high" puts the labels below i on
    side_a, "high-low" the mirror image, None when neither works.
    """

    label: int
    crossing_edge: tuple
    side_a: tuple
    side_b: tuple
    j_a: tuple
    j_b: tuple
    perfect: bool
    orientation: str | None


def find_splits(g: LabeledGraph) -> list:
    """All i-splits of a graph with a fracture graph.

    Each component of the label-deleted graph is classified once by its
    acting labels: low (all below i, or none), high (all above i, or none),
    or mixed (neither).  Let a and b be the components at the ends of the
    crossing edge.  When no other component is mixed, a is low and b is
    high, the split is perfect "low-high" and side b takes the other
    components that are not low; "high-low" is its mirror image, with side b
    taking the other components that are low.  Otherwise the split is
    imperfect, and side b takes the other components whose acting labels
    are non-empty and all above i.  Side a takes the rest.
    """
    base = g.components()
    deleted = list(_label_deleted(g))
    failing = tuple(label for label, comps, _, _ in deleted if len(comps) <= len(base))
    if failing:
        raise NoFractureGraph(f"labels {list(failing)} delete no orbit",
                              failing_labels=failing)
    splits = []
    for label, comps, comp_of, crossing in deleted:
        if len(comps) != len(base) + 1 or len(crossing) != 1:
            continue
        a, b = crossing[0]
        # every edge of another label lies inside one component
        acting = [set() for _ in comps]
        for lab, x, _ in g.edges:
            if lab != label:
                acting[comp_of[x]].add(lab)
        low = [all(l < label for l in labs) for labs in acting]
        high = [all(l > label for l in labs) for labs in acting]
        ca, cb = comp_of[a], comp_of[b]
        others = [c for c in range(len(comps)) if c not in (ca, cb)]
        settled = all(low[c] or high[c] for c in others)
        if settled and low[ca] and high[cb]:
            orientation, to_b = "low-high", [not low[c] for c in others]
        elif settled and high[ca] and low[cb]:
            orientation, to_b = "high-low", [low[c] for c in others]
        else:
            orientation, to_b = None, [high[c] and not low[c] for c in others]
        in_b = {cb, *compress(others, to_b)}
        sides = ([c for c in range(len(comps)) if c not in in_b], sorted(in_b))
        points = [tuple(sorted(v for c in side for v in comps[c])) for side in sides]
        labels = [tuple(sorted(set().union(*(acting[c] for c in side))))
                  for side in sides]
        splits.append(SplitReport(
            label=label, crossing_edge=(a, b), side_a=points[0], side_b=points[1],
            j_a=labels[0], j_b=labels[1], perfect=orientation is not None,
            orientation=orientation))
    return splits


def is_perfect_split(g: LabeledGraph, label: int, edge: tuple) -> bool:
    """Whether the given edge is an i-split of g and perfect."""
    a, b = min(edge), max(edge)
    for split in find_splits(g):
        if split.label == label and split.crossing_edge in ((a, b), (b, a)):
            return split.perfect
    return False


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedMatch:
    """An order-plus-structure match, not an isomorphism certificate."""

    name: str          # S_n | SaxSb | C2wrSr | SrwrC2 | StxH
    params: dict

    def to_json(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class Fingerprint:
    orbit_sizes: tuple
    transitive: bool
    primitive: bool | None
    group_order: int
    induced_orders: tuple
    factorization_check: bool
    named_match: NamedMatch | None

    def to_json(self) -> dict:
        return {
            "orbit_sizes": list(self.orbit_sizes),
            "transitive": self.transitive,
            "primitive": self.primitive,
            "group_order": self.group_order,
            "induced_orders": list(self.induced_orders),
            "factorization_check": self.factorization_check,
            "named_match": self.named_match.to_json() if self.named_match else None,
        }


def _match_name(group: PermGroup, orbit_sizes, induced_orders,
                factorization_ok, systems) -> NamedMatch | None:
    """The named match; ``systems`` are the minimal block systems of a
    transitive group."""
    n = group.degree
    order = group.order
    if group.is_transitive:
        if group.is_symmetric_orbit_product:
            return NamedMatch("S_n", {"n": n})
        if n % 2 == 0:
            r = n // 2
            if order == 2 ** r * math.factorial(r) and any(
                    s.block_size == 2 and len(s) == r for s in systems):
                return NamedMatch("C2wrSr", {"r": r})
            if order == 2 * math.factorial(r) ** 2 and any(
                    s.block_size == r and len(s) == 2 for s in systems):
                return NamedMatch("SrwrC2", {"r": r})
        return None
    if len(orbit_sizes) == 2 and group.is_symmetric_orbit_product:
        a, b = orbit_sizes
        return NamedMatch("SaxSb", {"a": a, "b": b})
    if factorization_ok:
        sym_sizes = [size for size, ind in zip(orbit_sizes, induced_orders)
                     if ind == math.factorial(size)]
        if sym_sizes:
            t = max(sym_sizes)
            return NamedMatch("StxH", {"t": t, "h_order": order // math.factorial(t)})
    return None


def fingerprint(group: PermGroup) -> Fingerprint:
    """Orbit sizes, transitivity, primitivity, order equations.

    ``primitive`` is decided for a transitive group only and is None for
    every intransitive one; the only per-orbit data are the orders of the
    actions induced on the orbits, read as factorials from the orbits of a
    symmetric orbit product, whose primitivity needs no search either.

    Takes the group of a graph's sggi, e.g. ``Sggi.from_graph(g).group()``.
    A named match asserts only that the defining order equation and the
    block/orbit structure hold, never full isomorphism.
    """
    orbit_sizes = tuple(len(o) for o in group.orbits())
    transitive = group.is_transitive
    # computed once: primitivity and the named match both read them
    systems = group.minimal_block_systems() if transitive else []
    primitive = not systems if transitive and group.degree >= 1 else None
    induced = (tuple(map(math.factorial, orbit_sizes)) if group.is_symmetric_orbit_product
               else tuple(group.induced_on(o).order for o in group.orbits()))
    factorization_ok = group.order == math.prod(induced)
    match = _match_name(group, orbit_sizes, induced, factorization_ok, systems)
    return Fingerprint(
        orbit_sizes=orbit_sizes,
        transitive=transitive,
        primitive=primitive,
        group_order=group.order,
        induced_orders=induced,
        factorization_check=factorization_ok,
        named_match=match,
    )


# ---------------------------------------------------------------------------
# the paper's refutation witness
# ---------------------------------------------------------------------------

def graph_x_witness(r: int, h: int) -> Permutation:
    """The paper's sigma for the two-row graph X(r, h): the r-h-2 vertical
    transpositions, i.e. the (h+1) generator with its top-row transposition
    (2h+2, 2h+3) removed.

    It lies in the sections kept on 0..h+1 and on 1..h+2 but not in their
    meet kept on 1..h+1, so it is the witness of a failing certificate at
    that node; ``cgroup.verify_certificate`` re-checks it.  It refuses the
    parameters that ``family_graph_x`` refuses.
    """
    _check_graph_x(r, h)
    pairs = [(2 * h + 3 + j, r + h + 1 + j) for j in range(1, r - h - 1)]
    return Permutation.from_cycles(2 * r - 1, pairs)

