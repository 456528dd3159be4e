"""The desk-scale reproduction suite behind ``cprforge paper``.

Each case checks one block of claims end to end (orders are exact
integers, no tolerances) and reports pass/fail lines.  The same functions
back the acceptance test module.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from operator import itemgetter

from . import constructions as cons
from .analysis import find_splits, fracture_graph, graph_x_witness
from .cgroup import Sggi, verify_certificate
from .errors import DegreeMismatch
from .perm_core import PermGroup, Permutation, intersection
from .prg import LabeledGraph, canonical_form

SELFCHECK_SEED = 0x5C9C


@dataclass
class CaseResult:
    """A case's name, whether every check held, and its report lines."""

    name: str
    ok: bool = True
    lines: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.ok = False
            self.lines.append(f"FAIL {what}")

    def note(self, what: str) -> None:
        self.lines.append(what)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def corpus() -> list:
    """The named graph corpus driving the cross-cutting cases."""
    entries = []
    for r in range(1, 7):
        entries.append((f"simplex({r})", cons.simplex(r)))
    for r, k in ((2, 2), (2, 3), (3, 2), (4, 3)):
        entries.append((f"multisimplex({r},{k})", cons.multisimplex(r, k)))
    for h, r in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        entries.append((f"result1({h},{r})", cons.family_result1(h, r)))
    for r in (2, 3, 4, 5):
        entries.append((f"wreathsimp({r})", cons.family_wreathsimp(r)))
    for r in (2, 3, 4, 5):
        entries.append((f"lemme1({r})", cons.family_lemme1(r)))
    for r, h in ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 1), (6, 4)):
        entries.append((f"counterexample1({r},{h})", cons.family_counterexample1(r, h)))
    for r in (3, 4):
        entries.append((f"speccase({r})", cons.family_speccase(r)))
    for i, r in ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)):
        entries.append((f"workswithsimplices({i},{r})",
                        cons.family_workswithsimplices(i, r)))
    for r, h in ((5, 1), (6, 1), (6, 2)):
        entries.append((f"graph_x({r},{h})", cons.family_graph_x(r, h)))
    entries.append(("nonexample_doubleedge", cons.nonexample_doubleedge()))
    entries.append(("nonexample_sevenvertex", cons.nonexample_sevenvertex()))
    entries.append(("nonexample_simplex_union", cons.nonexample_simplex_union()))
    return entries


def _is_cpr(g: LabeledGraph) -> bool:
    return Sggi.from_graph(g).is_string_c_group().is_string_c_group


# ---------------------------------------------------------------------------
# case 1: gluing along the relabeled seam
# ---------------------------------------------------------------------------

def case_theorem1_simplex_grid() -> CaseResult:
    """Every glue over the grid is a string C-group of order (#vertices)!.

    The one-row family with the interior 0-edge enters in its dual
    orientation, which is the 0-anchored shape the gluing requires; the
    interior-anchored orientation provably loses the intersection property
    (see the nonexample analyses), so the dual is the eligible
    representative of that family.
    """
    case = CaseResult("theorem1-simplex-grid")
    inputs = [(f"simplex({r})", cons.simplex(r)) for r in range(1, 5)]
    inputs += [(f"dual(counterexample1({r},1))",
                cons.family_counterexample1(r, 1).dual()) for r in (3, 4)]
    for name_g, g in inputs:
        for name_h, h in inputs:
            out = cons.glue_theorem1(g, h)
            sggi = Sggi.from_graph(out)
            verdict = sggi.is_string_c_group(mode="recursive")
            case.check(verdict.is_string_c_group,
                       f"glue({name_g}, {name_h}) is not a string C-group")
            if len(out.components()) == 1:
                case.check(sggi.group().order == math.factorial(out.n),
                           f"glue({name_g}, {name_h}) order != {out.n}!")
    case.note(f"{len(inputs) ** 2} glued pairs verified")
    return case


# ---------------------------------------------------------------------------
# case 2: the refutation graph
# ---------------------------------------------------------------------------

def case_graph_x_refutation() -> CaseResult:
    """The engine fails at the paper's node, and the paper's sigma
    re-checks as that node's certificate."""
    case = CaseResult("graph-x-refutation")
    for r, h in ((5, 1), (6, 1), (6, 2)):
        g = cons.family_graph_x(r, h)
        sggi = Sggi.from_graph(g)
        case.check(g.n == 2 * r - 1, f"graph_x({r},{h}) vertex count")
        case.check(sggi.group().order == math.factorial(2 * r - 1),
                   f"graph_x({r},{h}) order != (2r-1)!")
        cert = sggi.check_ip_recursive()
        case.check(not cert.ok, f"graph_x({r},{h}) unexpectedly satisfies the IP")
        low, high, meet = range(0, h + 2), range(1, h + 3), range(1, h + 2)
        case.check((cert.left, cert.right) == (tuple(low), tuple(high)),
                   f"graph_x({r},{h}) first fails at {cert.left} vs {cert.right}")
        sigma = graph_x_witness(r, h)
        case.check(not cert.ok and verify_certificate(
                       sggi, replace(cert, witness=sigma)),
                   f"graph_x({r},{h}) witness does not re-check")
        # independent route: exhaustive enumeration of the meet section
        enumerated = set(sggi.section(meet).element_tuples())
        case.check(sigma._img not in enumerated,
                   f"graph_x({r},{h}) witness found by exhaustive enumeration")
        orders = "/".join(str(sggi.section(k).order) for k in (low, high, meet))
        case.note(f"graph_x({r},{h}): order {math.factorial(2 * r - 1)}, "
                  f"witness {sigma.cycle_string()}, section orders {orders}")
    return case


# ---------------------------------------------------------------------------
# case 3: the pendant non-examples
# ---------------------------------------------------------------------------

def case_section3_nonexamples() -> CaseResult:
    case = CaseResult("section3-nonexamples")
    double = cons.nonexample_doubleedge()
    seven = cons.nonexample_sevenvertex()
    case.check(not _is_cpr(double), "double-edge non-example passes the IP")
    case.check(not _is_cpr(seven), "7-vertex-path non-example passes the IP")
    sggi = Sggi.from_graph(seven)
    inter = intersection(sggi.section({0, 1, 2}), sggi.section({-1, 0}))
    case.check(inter.order == 4,
               f"|kept(0,1,2) ^ kept(-1,0)| = {inter.order}, want 4")
    case.check(sggi.section({0}).order == 2,
               f"|kept(0)| = {sggi.section({0}).order}, want 2")
    case.note("pendant non-examples fail the IP; orders 4 vs 2 confirmed")
    return case


# ---------------------------------------------------------------------------
# case 4: family orders and verdicts
# ---------------------------------------------------------------------------

def case_family_orders() -> CaseResult:
    case = CaseResult("family-orders")
    instances = []
    for r in range(1, 7):
        instances.append((f"simplex({r})", cons.simplex(r), math.factorial(r + 1), True))
    for r in (1, 2, 3, 4):
        for k in (2, 3):
            instances.append((f"multisimplex({r},{k})", cons.multisimplex(r, k),
                              math.factorial(r + 1), True))
    for h, r in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        instances.append((f"result1({h},{r})", cons.family_result1(h, r),
                          math.factorial(h + 1) * math.factorial(r + 1), True))
    for r in (2, 3, 4, 5):
        instances.append((f"wreathsimp({r})", cons.family_wreathsimp(r),
                          2 ** r * math.factorial(r), True))
    for r in (3, 4, 5):
        instances.append((f"lemme1({r})", cons.family_lemme1(r),
                          math.factorial(r + 2) * math.factorial(r), True))
    instances.append(("lemme1(2)", cons.family_lemme1(2), 8, True))
    for r in (3, 4, 5, 6):
        for h in range(1, r - 1):
            instances.append((f"counterexample1({r},{h})", cons.family_counterexample1(r, h),
                              math.factorial(r + h + 1), True))
    for r in (3, 4):
        instances.append((f"speccase({r})", cons.family_speccase(r),
                          2 * math.factorial(r) ** 2, True))
    for i, r in ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)):
        expect = 2 * math.factorial(r) ** 2 if r == i + 1 else math.factorial(r + i + 1)
        instances.append((f"workswithsimplices({i},{r})",
                          cons.family_workswithsimplices(i, r), expect, True))
    # full S_4 x C_2: no homomorphism S_4 -> C_2 matches the generator tags
    instances.append(("nonexample_simplex_union", cons.nonexample_simplex_union(),
                      48, False))
    for name, g, order, expect_cpr in instances:
        sggi = Sggi.from_graph(g)
        case.check(sggi.group().order == order,
                   f"{name}: order {sggi.group().order}, want {order}")
        verdict = sggi.is_string_c_group(mode="recursive")
        case.check(verdict.is_string_c_group == expect_cpr,
                   f"{name}: string C-group verdict {verdict.is_string_c_group}, "
                   f"want {expect_cpr}")
    case.note(f"{len(instances)} family instances verified")
    return case


# ---------------------------------------------------------------------------
# case 5: explicit generators
# ---------------------------------------------------------------------------

def case_speccase_generators() -> CaseResult:
    case = CaseResult("speccase-generators")
    sggi = Sggi.from_graph(cons.family_speccase(3))
    expected = {
        0: Permutation.parse("(1,2)(5,6)", 6),
        1: Permutation.parse("(2,3)", 6),
        2: Permutation.parse("(3,4)(1,5)(2,6)", 6),
    }
    for label, want in expected.items():
        got = sggi.generator(label)
        case.check(got == want,
                   f"speccase(3) label {label}: {got.cycle_string()} "
                   f"!= {want.cycle_string()}")
    case.note("speccase(3) involutions match the explicit set verbatim")
    return case


# ---------------------------------------------------------------------------
# case 6: recursive vs exhaustive checker
# ---------------------------------------------------------------------------

def case_oracle_equivalence() -> CaseResult:
    case = CaseResult("oracle-equivalence")
    eligible = [(name, g) for name, g in corpus()
                if g.n <= 10 and len(g.labels) <= 7]
    case.check(len(eligible) >= 25,
               f"only {len(eligible)} corpus instances within rank 7 / degree 10")
    failures = 0
    for name, g in eligible:
        sggi = Sggi.from_graph(g)
        rec = sggi.check_ip_recursive()
        full = sggi.check_ip_full()
        case.check(rec.ok == full.ok,
                   f"{name}: recursive={rec.ok} but full={full.ok}")
        if not rec.ok:
            failures += 1
    case.check(failures >= 4, f"only {failures} failing instances exercised")
    case.note(f"{len(eligible)} instances compared, {failures} of them IP failures")
    return case


# ---------------------------------------------------------------------------
# case 7: duality
# ---------------------------------------------------------------------------

def case_duality_suite() -> CaseResult:
    case = CaseResult("duality-suite")
    graphs = corpus()
    for name, g in graphs:
        case.check(g.dual().dual() == g, f"{name}: dual of dual differs")
        sggi = Sggi.from_graph(g)
        dual = Sggi.from_graph(g.dual())
        v1 = sggi.is_string_c_group(mode="recursive").is_string_c_group
        v2 = dual.is_string_c_group(mode="recursive").is_string_c_group
        case.check(v1 == v2, f"{name}: verdict changes under duality")
        if sggi.rank >= 2:
            case.check(dual.schlafli_type() == tuple(reversed(sggi.schlafli_type())),
                       f"{name}: Schlafli type does not reverse")
    for r, h in ((5, 1), (6, 1), (6, 2)):
        built = cons.conjecture_glue(
            cons.family_counterexample1(r, h).dual(), r - h - 2).dual()
        case.check(
            canonical_form(built) == canonical_form(cons.family_graph_x(r, h)),
            f"graph_x({r},{h}) differs from the dual-glue-dual construction")
    case.note(f"{len(graphs)} corpus graphs dual-checked; "
              "structural identity holds for all three refutation instances")
    return case


# ---------------------------------------------------------------------------
# case 8: splits and primitivity
# ---------------------------------------------------------------------------

def _seam_shape_labels(g: LabeledGraph) -> list:
    """Labels whose unique edge separates a low-label side from a high-label
    side (the single-seam shape: one i-edge, everything else < i on one
    side and > i on the other, components included)."""
    out = []
    for label in g.labels:
        edges = g.edges_with_label(label)
        if len(edges) != 1:
            continue
        seam = edges[0]
        rest = LabeledGraph(g.n, [e for e in g.edges if e != seam])
        comps = rest.components()
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        _, a, b = seam
        if comp_of[a] == comp_of[b]:
            continue
        sides = {}
        ok = True
        for comp in comps:
            labs = {lab for lab, x, y in g.edges
                    if lab != label and (x in comp or y in comp)}
            if not labs:
                continue
            if max(labs) < label:
                sides[comp] = "low"
            elif min(labs) > label:
                sides[comp] = "high"
            else:
                ok = False
                break
        if not ok:
            continue
        side_a = sides.get(comps[comp_of[a]])
        side_b = sides.get(comps[comp_of[b]])
        if {side_a, side_b} == {"low", "high"} or (side_a is None) or (side_b is None):
            out.append(label)
    return out


def case_splits_primitivity() -> CaseResult:
    case = CaseResult("splits-primitivity")
    shaped = 0
    skipped = []
    for name, g in corpus():
        labels = _seam_shape_labels(g)
        if not labels:
            continue
        if not fracture_graph(g).exists:
            # splits are only defined over a fracture graph
            skipped.append(name)
            continue
        splits = {(s.label, s.crossing_edge): s for s in find_splits(g)}
        group = Sggi.from_graph(g).group()
        for label in labels:
            shaped += 1
            _, a, b = g.edges_with_label(label)[0]
            split = splits.get((label, (a, b)))
            case.check(split is not None and split.perfect,
                       f"{name}: unique {label}-edge not a perfect split")
            if group.is_transitive:
                case.check(group.is_primitive(), f"{name}: not primitive")
                case.check(group.order == math.factorial(g.n),
                           f"{name}: order != {g.n}!")
    case.check(shaped >= 20, f"only {shaped} seam-shaped labels exercised")
    gx = cons.family_graph_x(5, 1)
    gx_splits = find_splits(gx)
    case.check(not any(s.perfect for s in gx_splits),
               "graph_x(5,1) reports a perfect split")
    seam = [s for s in gx_splits if s.label == 3]
    case.check(len(seam) == 1 and seam[0].crossing_edge == (5, 6),
               "graph_x(5,1): the h+2 seam is not reported as a split")
    case.check(bool(seam) and not seam[0].perfect,
               "graph_x(5,1): the h+2 split should not be perfect")
    case.note(f"{shaped} perfect seams verified; graph_x(5,1) splits at labels "
              f"{sorted(s.label for s in gx_splits)} all imperfect")
    if skipped:
        case.note(f"skipped (no fracture graph, splits undefined): "
                  f"{', '.join(skipped)}")
    return case


# ---------------------------------------------------------------------------
# case 9: engine self-checks
# ---------------------------------------------------------------------------

def closure_tuples(gens: list, degree: int) -> set:
    """All products of the generators as raw 0-based image tuples, no chain.

    A breadth-first search from the identity that steps by left
    multiplication, one ``itemgetter`` per generator built once: the step
    for ``g`` maps ``e`` to ``g`` then ``e``, which closes to the same
    finite group as right multiplication.  It never touches ``PermGroup``
    or its stabilizer chain, so it stays an independent oracle for them.
    """
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
    ident = tuple(range(degree))
    if degree <= 1:
        # the only permutation; itemgetter with one index returns a scalar
        return {ident}
    steps = [itemgetter(*g._img) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for step in steps:
            for c in map(step, frontier):
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def case_engine_selfchecks() -> CaseResult:
    case = CaseResult("engine-selfchecks")
    rng = random.Random(SELFCHECK_SEED)
    groups = []
    for trial in range(50):
        degree = rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            img = list(range(1, degree + 1))
            rng.shuffle(img)
            gens.append(Permutation(img))
        group = PermGroup(gens)
        closure = closure_tuples(gens, degree)
        case.check(group.order == len(closure),
                   f"set {trial}: chain order {group.order} != closure {len(closure)}")
        sample = closure if len(closure) <= 10_000 else list(closure)[:2000]
        case.check(all(group.contains_tuple(t) for t in sample),
                   f"set {trial}: closure element rejected")
        for _ in range(10):
            img = list(range(1, degree + 1))
            rng.shuffle(img)
            p = Permutation(img)
            case.check(group.contains(p) == (p._img in closure),
                       f"set {trial}: membership disagrees for {p.cycle_string()}")
        groups.append((group, closure))
    pairs = 0
    for (g1, c1), (g2, c2) in itertools.combinations(groups, 2):
        if g1.degree != g2.degree or min(g1.order, g2.order) > 10_000:
            continue
        pairs += 1
        inter = intersection(g1, g2)
        expected = c1 & c2
        case.check(inter.order == len(expected),
                   f"intersection order {inter.order} != {len(expected)}")
        case.check(set(inter.element_tuples()) == expected,
                   "intersection element set differs from double enumeration")
        if pairs >= 25:
            break
    case.check(pairs >= 10, f"only {pairs} intersection pairs exercised")
    case.note(f"50 random generator sets verified against closure; "
              f"{pairs} intersections double-enumerated")
    return case


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CASES = {
    "theorem1-simplex-grid": case_theorem1_simplex_grid,
    "graph-x-refutation": case_graph_x_refutation,
    "section3-nonexamples": case_section3_nonexamples,
    "family-orders": case_family_orders,
    "speccase-generators": case_speccase_generators,
    "oracle-equivalence": case_oracle_equivalence,
    "duality-suite": case_duality_suite,
    "splits-primitivity": case_splits_primitivity,
    "engine-selfchecks": case_engine_selfchecks,
}


def run_cases(case_filter: str | None = None) -> list:
    if case_filter is not None and case_filter not in CASES:
        raise ValueError(f"unknown case {case_filter!r}; known: {', '.join(CASES)}")
    return [case() for name, case in CASES.items() if case_filter in (None, name)]
