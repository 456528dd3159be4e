"""Graph families and gluing procedures, all with canonical numbering.

Canonical numbering follows the figures: left to right, top row before
bottom row, new vertices appended after existing ones.  Every generator is
deterministic: equal parameters produce identical serializations.

The central family is the two-row graph ``family_graph_x``: its group is
the full symmetric group on its 2r-1 vertices, yet the intersection
property fails, so the conjecture gluing below does not always preserve
string C-groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ShapeViolation, VertexOutOfRange
from .prg import MAX_DEGREE, LabeledGraph


# ---------------------------------------------------------------------------
# basic families
# ---------------------------------------------------------------------------

def simplex(r: int) -> LabeledGraph:
    """Path on r+1 vertices; edge j joins vertices j, j+1 with label j-1."""
    if r < 1:
        raise ValueError(f"simplex needs r >= 1, got {r}")
    return LabeledGraph(r + 1, [(j - 1, j, j + 1) for j in range(1, r + 1)])


def multisimplex(r: int, k: int) -> LabeledGraph:
    """k disjoint copies of the rank-r simplex."""
    if r < 1 or k < 1:
        raise ValueError(f"multisimplex needs r >= 1 and k >= 1, got ({r}, {k})")
    out = simplex(r)
    for _ in range(k - 1):
        out = out.union_disjoint(simplex(r))
    return out


def family_result1(h: int, r: int) -> LabeledGraph:
    """Disjoint union of the rank-h and rank-r simplexes (labels 0..h-1, 0..r-1)."""
    if not (r >= 2 and 1 <= h <= r - 1):
        raise ValueError(f"result1 needs r >= 2 and 1 <= h <= r-1, got ({h}, {r})")
    return simplex(h).union_disjoint(simplex(r))


def family_wreathsimp(r: int) -> LabeledGraph:
    """Path on 2r vertices with labels r-1,...,1,0,1,...,r-1."""
    if r < 2:
        raise ValueError(f"wreathsimp needs r >= 2, got {r}")
    return LabeledGraph(2 * r, [(abs(j - r), j, j + 1) for j in range(1, 2 * r)])


def family_lemme1(r: int) -> LabeledGraph:
    """Top: path 0,...,r-1,r-2 on r+2 vertices; bottom: rank-(r-1) simplex.

    Valid from r = 2, where it degenerates to a dihedral group of order 8
    instead of the generic direct product of two symmetric groups.
    """
    if r < 2:
        raise ValueError(f"lemme1 needs r >= 2, got {r}")
    edges = [(j - 1, j, j + 1) for j in range(1, r + 1)]
    edges.append((r - 2, r + 1, r + 2))
    edges.extend((j - 1, r + 2 + j, r + 3 + j) for j in range(1, r))
    return LabeledGraph(2 * r + 2, edges)


def family_counterexample1(r: int, h: int) -> LabeledGraph:
    """Path on r+h+1 vertices, labels h,...,1,0,1,...,h,h+1,...,r-1."""
    if not (r >= 3 and 1 <= h <= r - 2):
        raise ValueError(
            f"counterexample1 needs r >= 3 and 1 <= h <= r-2, got ({r}, {h})")
    edges = []
    for j in range(1, r + h + 1):
        label = h - j + 1 if j <= h else j - h - 1
        edges.append((label, j, j + 1))
    return LabeledGraph(r + h + 1, edges)


def _check_graph_x(r: int, h: int) -> None:
    """Refuse parameters outside the two-row graph's range."""
    if not (r >= 5 and 1 <= h <= r - 4):
        raise ValueError(
            f"graph_x needs r >= 5 and 1 <= h <= r-4, got ({r}, {h})")


def family_graph_x(r: int, h: int) -> LabeledGraph:
    """The two-row refutation graph on 2r-1 vertices.

    Top row: family_counterexample1(r, h) on vertices 1..r+h+1.  Bottom row:
    path on vertices r+h+2..2r-1 with labels h+3,...,r-1.  The (h+1)-edges
    join top vertex 2h+3+j to bottom vertex r+h+1+j for j = 1..r-h-2.
    """
    _check_graph_x(r, h)
    edges = list(family_counterexample1(r, h).edges)
    for j in range(1, r - h - 2):
        edges.append((h + 2 + j, r + h + 1 + j, r + h + 2 + j))
    for j in range(1, r - h - 1):
        edges.append((h + 1, 2 * h + 3 + j, r + h + 1 + j))
    return LabeledGraph(2 * r - 1, edges)


def family_speccase(r: int) -> LabeledGraph:
    """Top: rank-r simplex; bottom: path 0..r-3; (r-1)-edges pair the rows.

    The r = 3 instance derives exactly the involutions
    (1,2)(5,6), (2,3), (3,4)(1,5)(2,6).
    """
    if r < 3:
        raise ValueError(f"speccase needs r >= 3, got {r}")
    edges = list(simplex(r).edges)
    edges.extend((j - 1, r + 1 + j, r + 2 + j) for j in range(1, r - 1))
    edges.extend((r - 1, j, r + 1 + j) for j in range(1, r))
    return LabeledGraph(2 * r, edges)


def family_workswithsimplices(i: int, r: int) -> LabeledGraph:
    """The conjecture gluing applied to a rank-r simplex at parameter i."""
    if not (i >= 2 and r >= i + 1):
        raise ValueError(
            f"workswithsimplices needs i >= 2 and r >= i+1, got ({i}, {r})")
    return conjecture_glue(simplex(r), i)


# ---------------------------------------------------------------------------
# fixed non-examples
# ---------------------------------------------------------------------------

def nonexample_doubleedge() -> LabeledGraph:
    """5-vertex pendant graph over the double-edge base; fails the IP.

    The base on vertices 2..5 (labels 0,1 and the double edge {0,2}) is a
    CPR graph; attaching the (-1)-edge at vertex 2 breaks the intersection
    property because the base carries a second 0-edge.
    """
    return LabeledGraph(5, [
        (-1, 1, 2), (0, 2, 3), (1, 3, 4), (0, 4, 5), (2, 4, 5),
    ])


def nonexample_doubleedge_base() -> LabeledGraph:
    """The 4-vertex double-edge CPR graph the pendant non-example starts from."""
    return LabeledGraph(4, [(0, 1, 2), (1, 2, 3), (0, 3, 4), (2, 3, 4)])


def nonexample_sevenvertex() -> LabeledGraph:
    """Pendant over the 7-vertex path 0,1,2,1,0,1; fails the IP.

    Here the intersection of the sections kept on {0,1,2} and {-1,0} has
    order 4 while the expected section on {0} has order 2.
    """
    return LabeledGraph(8, [
        (-1, 1, 2), (0, 2, 3), (1, 3, 4), (2, 4, 5),
        (1, 5, 6), (0, 6, 7), (1, 7, 8),
    ])


def nonexample_simplex_union() -> LabeledGraph:
    """Rank-3 simplex plus a disjoint 1-edge; a union of simplexes failing the IP."""
    return simplex(3).union_disjoint(LabeledGraph(2, [(1, 1, 2)]))


# ---------------------------------------------------------------------------
# gluing procedures
# ---------------------------------------------------------------------------

def _zero_edge(g: LabeledGraph, what: str) -> tuple:
    """The one 0-edge of g as (anchor, other endpoint); see ``_zero_edge_anchor``."""
    zero_edges = g.edges_with_label(0)
    if len(zero_edges) != 1:
        raise ShapeViolation(
            f"{what}: exactly one 0-edge required, found {len(zero_edges)}")
    _, a, b = zero_edges[0]
    if g.degree_of(a) == 1:
        return a, b
    if g.degree_of(b) == 1:
        return b, a
    raise ShapeViolation(
        f"{what}: the 0-edge {{{a},{b}}} has no degree-1 endpoint to anchor at")


def _zero_edge_anchor(g: LabeledGraph, what: str) -> int:
    """Validate the gluing shape of g and return the anchor vertex.

    Required shape: labels cover 0..max contiguously with no negatives,
    exactly one 0-edge, and a degree-1 endpoint on it (the anchor; the
    smaller id when both endpoints qualify).  The degree-1 requirement is
    essential: anchoring at an interior 0-edge endpoint leaves the merged
    vertex with extra edges and the outputs provably lose the intersection
    property even though they still generate the full symmetric group.
    """
    w = g.window()
    if w is None:
        raise ShapeViolation(f"{what}: graph has no edges")
    lo, hi = w
    if lo != 0:
        raise ShapeViolation(f"{what}: lowest label must be 0, found {lo}")
    if set(g.labels) != set(range(hi + 1)):
        raise ShapeViolation(f"{what}: labels must cover 0..{hi} contiguously")
    return _zero_edge(g, what)[0]


def glue_theorem1(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """Glue two 0-anchored graphs into one window [-rank(g), rank(h)-1].

    The first graph is negate-relabeled (label l becomes -(l+1)) and its
    anchor is identified with the second graph's anchor; the merged vertex
    C sits between the two rows.  Numbering: the first graph's remaining
    vertices in reversed order, then C, then the second graph's remaining
    vertices in their original order.  On simplexes this reproduces the
    larger simplex exactly after shifting labels up by rank(g).
    """
    a = _zero_edge_anchor(g, "first input")
    b = _zero_edge_anchor(h, "second input")
    neg = g.negate_relabel()
    g_others = [v for v in range(1, g.n + 1) if v != a]
    h_others = [v for v in range(1, h.n + 1) if v != b]
    g_map = {v: g.n - k for k, v in enumerate(g_others, start=1)}
    g_map[a] = g.n
    h_map = {v: g.n + k for k, v in enumerate(h_others, start=1)}
    h_map[b] = g.n
    edges = [(label, g_map[x], g_map[y]) for label, x, y in neg.edges]
    edges.extend((label, h_map[x], h_map[y]) for label, x, y in h.edges)
    return LabeledGraph(g.n + h.n - 1, edges)


def pendant_minus_one(g: LabeledGraph) -> LabeledGraph:
    """Attach a single (-1)-edge at the anchor; one vertex is appended."""
    a = _zero_edge_anchor(g, "input")
    return LabeledGraph(g.n + 1, list(g.edges) + [(-1, a, g.n + 1)])


def conjecture_glue(g: LabeledGraph, i: int) -> LabeledGraph:
    """Attach a second row along the initial path carrying labels 0..i.

    The graph must start with an induced path p_1..p_{i+2} whose edges carry
    labels 0,1,...,i in order, with p_1..p_i meeting no other edges and all
    remaining edges labeled >= i.  New vertices u_1..u_i are appended as a
    path with labels 0..i-2, and i-edges join p_j to u_j for j = 1..i.
    """
    if i < 2:
        raise ShapeViolation(f"conjecture gluing needs i >= 2, got {i}")
    path = list(_zero_edge(g, "input"))
    adj = g.adjacency()
    for label in range(1, i + 1):
        nxt = [w for lab, w in adj[path[-1]] if lab == label]
        if len(nxt) != 1 or nxt[0] in path:
            raise ShapeViolation(
                f"no induced path edge with label {label} at vertex {path[-1]}")
        path.append(nxt[0])
    for v in path[1:i]:
        if g.degree_of(v) != 2:
            raise ShapeViolation(
                f"path vertex {v} has extra incident edges")
    path_edges = {(min(x, y), max(x, y)) for x, y in zip(path, path[1:])}
    for label, x, y in g.edges:
        if (x, y) in path_edges:
            continue
        if label < i:
            raise ShapeViolation(
                f"edge ({label},{x},{y}) off the path has label below {i}")
    n = g.n
    edges = list(g.edges)
    edges.extend((i, path[j - 1], n + j) for j in range(1, i + 1))
    edges.extend((j - 1, n + j, n + j + 1) for j in range(1, i))
    return LabeledGraph(n + i, edges)


# ---------------------------------------------------------------------------
# family registry (CLI surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A named family with integer parameters."""

    name: str
    params: dict = field(default_factory=dict)


FAMILIES = {
    "simplex": (simplex, ("r",)),
    "multisimplex": (multisimplex, ("r", "k")),
    "result1": (family_result1, ("h", "r")),
    "wreathsimp": (family_wreathsimp, ("r",)),
    "lemme1": (family_lemme1, ("r",)),
    "counterexample1": (family_counterexample1, ("r", "h")),
    "graph_x": (family_graph_x, ("r", "h")),
    "speccase": (family_speccase, ("r",)),
    "workswithsimplices": (family_workswithsimplices, ("i", "r")),
    "nonexample_doubleedge": (nonexample_doubleedge, ()),
    "nonexample_sevenvertex": (nonexample_sevenvertex, ()),
    "nonexample_simplex_union": (nonexample_simplex_union, ()),
}


def build_family(spec: FamilySpec) -> LabeledGraph:
    name = spec.name.replace("-", "_")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {spec.name!r}; known: {sorted(FAMILIES)}")
    fn, param_names = FAMILIES[name]
    missing = [p for p in param_names if p not in spec.params]
    if missing:
        raise ValueError(f"family {name} needs parameters {param_names}")
    extra = [p for p in spec.params if p not in param_names]
    if extra:
        raise ValueError(f"family {name} does not take {extra}")
    # every family has more vertices than any of its parameters, so a larger
    # parameter is refused before the family allocates anything
    for p in param_names:
        if spec.params[p] > MAX_DEGREE:
            raise VertexOutOfRange(
                f"family {name}: {p}={spec.params[p]} exceeds the vertex bound {MAX_DEGREE}")
    return fn(**{p: spec.params[p] for p in param_names})
