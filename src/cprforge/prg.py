"""Edge-labeled multigraphs modelling permutation representation graphs.

A graph has vertices 1..n and a list of labeled edges; each label induces a
partial matching, so every label yields one involution.  Labels are integers
and may be negative (gluing relabels 0..r-1 onto -1..-r).

Graphs are immutable after construction and every operation returns a new
graph.  The text format is line-oriented:

    # comment
    vertices 5
    edge 0 1 2
    edge -1 2 3

``vertices <n>`` must be the first non-comment line and appear exactly once,
with 0 <= n <= ``MAX_DEGREE``;
``edge <label> <a> <b>`` takes an integer label and endpoints 1 <= a,b <= n,
a != b.  Edges are stored and serialized sorted by (label, a, b) with a < b.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateEdge,
    MatchingViolation,
    PrgSyntaxError,
    VertexOutOfRange,
)
from .perm_core import Permutation, _cells, _joined

# The most vertices a graph may have.  Every generator, chain element and
# orbit table holds one entry per vertex, so a larger declared count is
# refused before anything is allocated for it.
MAX_DEGREE = 1_000


class LabeledGraph:
    """An edge-labeled multigraph over vertices 1..n."""

    __slots__ = ("n", "edges", "labels")

    def __init__(self, n: int, edges: Iterable[tuple]):
        if n < 0:
            raise VertexOutOfRange(f"vertex count {n} is negative")
        if n > MAX_DEGREE:
            raise VertexOutOfRange(f"vertex count {n} exceeds the bound {MAX_DEGREE}")
        canonical = []
        for label, a, b in edges:
            if a == b:
                raise VertexOutOfRange(f"loop at vertex {a} (label {label})")
            if not (1 <= a <= n and 1 <= b <= n):
                raise VertexOutOfRange(
                    f"edge ({label},{a},{b}) outside vertex range 1..{n}")
            if a > b:
                a, b = b, a
            canonical.append((label, a, b))
        canonical.sort()
        seen_edges = set()
        matched = {}
        for edge in canonical:
            if edge in seen_edges:
                raise DuplicateEdge(f"duplicate edge {edge}")
            seen_edges.add(edge)
            label, a, b = edge
            for v in (a, b):
                if (label, v) in matched:
                    raise MatchingViolation(
                        f"vertex {v} appears twice among label-{label} edges")
                matched[(label, v)] = True
        self.n = n
        self.edges = tuple(canonical)
        self.labels = tuple(sorted({label for label, _, _ in canonical}))

    # -- equality and text --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, LabeledGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, edges={len(self.edges)}, labels={list(self.labels)})"

    def serialize(self) -> str:
        lines = [f"vertices {self.n}"]
        lines.extend(f"edge {label} {a} {b}" for label, a, b in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "LabeledGraph":
        n = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fields[0] == "vertices":
                if n is not None:
                    raise PrgSyntaxError("second 'vertices' line", lineno)
                if len(fields) != 2:
                    raise PrgSyntaxError("expected 'vertices <n>'", lineno)
                try:
                    n = int(fields[1])
                except ValueError:
                    raise PrgSyntaxError(f"bad vertex count {fields[1]!r}", lineno)
                if n < 0:
                    raise PrgSyntaxError(f"negative vertex count {n}", lineno)
                if n > MAX_DEGREE:
                    raise PrgSyntaxError(
                        f"vertex count {n} exceeds the bound {MAX_DEGREE}", lineno)
            elif fields[0] == "edge":
                if n is None:
                    raise PrgSyntaxError("'edge' before 'vertices'", lineno)
                if len(fields) != 4:
                    raise PrgSyntaxError("expected 'edge <label> <a> <b>'", lineno)
                try:
                    label, a, b = int(fields[1]), int(fields[2]), int(fields[3])
                except ValueError:
                    raise PrgSyntaxError(f"non-integer field in {line!r}", lineno)
                edges.append((label, a, b))
            else:
                raise PrgSyntaxError(f"unknown directive {fields[0]!r}", lineno)
        if n is None:
            raise PrgSyntaxError("missing 'vertices' line", len(text.splitlines()) or 1)
        return cls(n, edges)

    # -- label algebra ------------------------------------------------------

    def window(self) -> tuple | None:
        """(lowest label, highest label), or None for an edgeless graph."""
        if not self.labels:
            return None
        return (self.labels[0], self.labels[-1])

    def generator_of_label(self, label: int) -> Permutation:
        """The involution swapping the endpoints of every ``label`` edge.

        Absent labels give the identity.
        """
        img = list(range(self.n))
        for lab, a, b in self.edges:
            if lab == label:
                img[a - 1], img[b - 1] = b - 1, a - 1
        return Permutation._from_tuple(tuple(img))

    def restrict_labels(self, keep: Iterable[int]) -> "LabeledGraph":
        keep = set(keep)
        return LabeledGraph(self.n, [e for e in self.edges if e[0] in keep])

    def relabel(self, fn) -> "LabeledGraph":
        return LabeledGraph(self.n, [(fn(label), a, b) for label, a, b in self.edges])

    def dual(self) -> "LabeledGraph":
        """Mirror every label inside the graph's own window: l -> lo+hi-l."""
        w = self.window()
        if w is None:
            return self
        lo, hi = w
        return self.relabel(lambda l: lo + hi - l)

    def negate_relabel(self) -> "LabeledGraph":
        """l -> -(l+1); labels 0..r-1 become -1..-r."""
        return self.relabel(lambda l: -(l + 1))

    def shift_labels(self, k: int) -> "LabeledGraph":
        return self.relabel(lambda l: l + k)

    def union_disjoint(self, other: "LabeledGraph") -> "LabeledGraph":
        """Disjoint union; the other graph's vertices are shifted by self.n."""
        shifted = [(label, a + self.n, b + self.n) for label, a, b in other.edges]
        return LabeledGraph(self.n + other.n, list(self.edges) + shifted)

    # -- structure ----------------------------------------------------------

    def adjacency(self) -> dict:
        """vertex -> sorted list of (label, neighbor)."""
        adj = {v: [] for v in range(1, self.n + 1)}
        for label, a, b in self.edges:
            adj[a].append((label, b))
            adj[b].append((label, a))
        for v in adj:
            adj[v].sort()
        return adj

    def degree_of(self, v: int) -> int:
        return sum(1 for _, a, b in self.edges if v in (a, b))

    def edges_with_label(self, label: int) -> list:
        return [e for e in self.edges if e[0] == label]

    def components(self) -> tuple:
        """Connected components, singletons included, ordered by least vertex."""
        return _cells(_joined(tuple(range(self.n)),
                              [(a - 1, b - 1) for _, a, b in self.edges]))

    # -- shape lemma --------------------------------------------------------

    def check_shape_lemma(self) -> "ShapeVerdict":
        """Structural equivalent of the string property.

        For every label pair (i, j) with |i-j| >= 2, each component of the
        {i,j}-subgraph must be a single vertex, a single edge, a double edge
        or an alternating square.  Returns the first offending component
        otherwise.
        """
        labels = self.labels
        for idx, i in enumerate(labels):
            for j in labels[idx + 1:]:
                if abs(i - j) < 2:
                    continue
                sub = self.restrict_labels({i, j})
                for comp in sub.components():
                    if not _component_shape_ok(sub, comp):
                        return ShapeVerdict(False, (i, j), comp)
        return ShapeVerdict(True)


@dataclass(frozen=True)
class ShapeVerdict:
    """Outcome of the component-shape check for non-adjacent label pairs."""

    ok: bool
    label_pair: tuple | None = None
    component: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _component_shape_ok(sub: LabeledGraph, comp: tuple) -> bool:
    inside = [e for e in sub.edges if e[1] in comp]
    if len(comp) == 1:
        return not inside
    if len(comp) == 2:
        # single edge, or a double edge carrying both labels
        return len(inside) in (1, 2)
    if len(comp) == 4 and len(inside) == 4:
        # alternating square: every vertex meets exactly one edge of each label
        labels = {label for label, _, _ in inside}
        count = Counter((v, label) for label, a, b in inside for v in (a, b))
        return all(count[v, lab] == 1 for v in comp for lab in labels) and len(labels) == 2
    return False


# ---------------------------------------------------------------------------
# canonical renumbering
# ---------------------------------------------------------------------------

def canonical_form(g: LabeledGraph) -> LabeledGraph:
    """Renumber vertices canonically, preserving the labeled structure.

    Two graphs have equal canonical forms iff one can be turned into the
    other by renumbering vertices (labels fixed).  Per component the least
    edge list over label-ordered BFS runs from every start vertex is taken;
    this is exact because each label meets a vertex at most once, making
    the traversal deterministic.
    """
    comps = g.components()
    adj = g.adjacency()
    canon_comps = []
    for comp in comps:
        best = None
        for start in comp:
            order = {start: 1}
            queue = [start]
            head = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                for _, w in adj[v]:
                    if w not in order:
                        order[w] = len(order) + 1
                        queue.append(w)
            edges = []
            for label, a, b in g.edges:
                if a in order:
                    x, y = order[a], order[b]
                    edges.append((label, min(x, y), max(x, y)))
            edges.sort()
            key = (len(comp), tuple(edges))
            if best is None or key < best:
                best = key
        canon_comps.append(best)
    canon_comps.sort()
    total = 0
    out_edges = []
    for size, edges in canon_comps:
        out_edges.extend((label, a + total, b + total) for label, a, b in edges)
        total += size
    return LabeledGraph(total, out_edges)
