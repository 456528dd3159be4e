"""Permutation arithmetic and permutation-group algorithms.

Points are 1-based in the public interface, matching the vertex numbering
of permutation representation graphs; internally images live in 0-based
tuples.  Composition order is fixed package-wide: ``compose(p, q)`` applies
``p`` first, then ``q``.

A group's deterministic stabilizer chain (Schreier-Sims with the base
fixed to the ascending point order 1..n, skipping points the relevant
stabilizer does not move) is built on demand; one depth-first walk over
it, ``_pruned_search``, enumerates and searches for existence, and one
subgroup backtrack, ``_backtrack``, built on those searches, gives an
intersection's order, a node check's witness and ``intersection``'s
generators.  The same input generator list always produces the same chain,
the same element enumeration order and therefore the same witnesses
downstream, whenever the chain is built.  While one inserted generator is
closed in, each Schreier generator that sifts to the identity is kept in a
set that lives for that insertion only, and it is not sifted again when a
level is scanned anew; a rebuilt transversal that changes a representative
empties the set, so every skip is a sift that would have reached the
identity, and the chain is the one built without the set (see
``_Chain._verify_level``).

Every partition of points comes from one union-find (``_joined``), and a
group's partitions come from one join loop over it (``_join_moves``): its
orbits join the point pairs (x, g(x)) of its input generators onto its
prefix's orbits, and its transposition components do the same for its
transposition inputs onto its prefix's components.  Block systems are
computed for transitive groups only; a certified one is Sym(n), with none.
Block systems and the certificate's transposition closure are the finest
generator-invariant partitions joining given pairs, from one loop
(``_closure``) over the same union-find.

A group is certified as the full product of its orbits' symmetric groups
when it is constructed, by one rule, ``PermGroup._certified``: after the
one comparison of its transposition components with its orbits, the
generators' sign vectors, one parity bit per moved orbit, must span
F_2^k, and each orbit's projection must be shown to be its symmetric
group, either by the conjugates of the transpositions among the
generators' restrictions to it, which connect it, or, on 8 points or
more, by Jordan's theorem (an element with a prime cycle inside the
orbit longer than half of it and at most its size minus 3).  A certified
group answers order, membership and its intersection order with another
such group from orbits, and builds no chain unless it is enumerated or
searched.  Every other group builds its chain when it is constructed, to
learn its order.  A build makes one group's chain: it copies the
prefix's chain when that one is built, else it inserts every input into
an empty chain, and it builds no other group's chain.  The chain is a
cache: a group keeps its inputs and its prefix for life, its
``generators`` are those inputs, and none of its answers depends on
whether, or when, its chain was built.  A ``PermGroup`` is immutable once
constructed, apart from that one-time chain build.
"""

from __future__ import annotations

import math
import random
import threading
from collections import Counter
from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Iterator, Sequence

from .errors import (
    DegreeMismatch,
    DomainNotInvariant,
    IntersectionTooLarge,
    NotTransitive,
)

DEFAULT_INTERSECTION_CAP = 5_000_000


# ---------------------------------------------------------------------------
# raw tuple helpers (0-based images), the hot path of everything below
# ---------------------------------------------------------------------------

def _mul(p: tuple, q: tuple) -> tuple:
    """Apply p, then q."""
    if len(p) < 2:
        # itemgetter with a single index returns a scalar, not a tuple
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def _inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _is_id(p: tuple) -> bool:
    return p == tuple(range(len(p)))


def _joined(ids: tuple, pairs: list) -> tuple:
    """The partition ``ids`` with the blocks of each pair's points joined.

    A partition of 0..n-1 is given by block ids that number the blocks by
    their least points, as ``PermGroup._orbit_id`` does; so is the result.
    Its union-find, ``_union`` and ``_root``, is the one way the package
    partitions points: orbits, transposition components and graph
    components here, block systems and the certificate's transposition
    closure in ``_closure``.  Its nodes are the blocks of ``ids``, whose
    order is that of their least points, so the least root of a joined
    class is its least block.
    """
    if not pairs:
        return ids
    parent = list(range(max(ids) + 1))
    for a, b in pairs:
        _union(parent, ids[a], ids[b])
    # parent[i] <= i: a root takes the next id, any other block its parent's
    relabel, roots = [], 0
    for i, up in enumerate(parent):
        if up < i:
            relabel.append(relabel[up])
        else:
            relabel.append(roots)
            roots += 1
    return _mul(ids, relabel)


def _join_moves(ids: tuple, imgs: Iterable) -> tuple:
    """The partition ``ids`` joined along each image tuple in ``imgs``.

    One tuple at a time, joins the pairs (x, g(x)) that cross the blocks so
    far; a tuple that keeps every block costs one comparison.
    """
    for img in imgs:
        moved = _mul(img, ids)
        if moved != ids:
            ids = _joined(ids, [(x, img[x]) for x in
                                compress(range(len(ids)), map(ne, moved, ids))])
    return ids


def _root(parent: list, x: int) -> int:
    """The root of x's class in a union-find forest, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list, x: int, y: int) -> bool:
    """Join the classes of x and y under the lesser root; True if they were apart."""
    rx, ry = _root(parent, x), _root(parent, y)
    if rx == ry:
        return False
    parent[max(rx, ry)] = min(rx, ry)
    return True


def _closure(degree: int, gen_imgs: list, pairs: list) -> list:
    """The finest partition of 0..degree-1 that joins each pair's points and
    that every image tuple in ``gen_imgs`` maps onto itself.

    Each point's class is named by its least point.  It is the component
    partition of the pairs and all their images under words in the tuples:
    a pair whose points were apart joins the queue, and its images are
    joined in turn.  Block systems and the certificate's transposition
    closure both come from this loop.
    """
    parent = list(range(degree))
    queue = [(x, y) for x, y in pairs if _union(parent, x, y)]
    head = 0
    while head < len(queue):
        x, y = queue[head]
        head += 1
        for img in gen_imgs:
            sx, sy = img[x], img[y]
            if _union(parent, sx, sy):
                queue.append((sx, sy))
    return [_root(parent, x) for x in range(degree)]


def _cells(ids: Iterable) -> tuple:
    """The 1-based cells of a partition given by block ids, by least point."""
    cells = {}
    for x, i in enumerate(ids, 1):
        cells.setdefault(i, []).append(x)
    return tuple(map(tuple, cells.values()))


class Permutation:
    """A bijection of {1..n} stored as an image sequence."""

    __slots__ = ("_img", "_cycle_tuples")

    def __init__(self, images: Sequence[int]):
        """Build from 1-based images: position p holds the image of point p."""
        img = tuple(x - 1 for x in images)
        n = len(img)
        if sorted(img) != list(range(n)):
            raise ValueError(f"not a permutation of 1..{n}: {list(images)!r}")
        self._img = img

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_tuple(cls, img: tuple) -> "Permutation":
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._from_tuple(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        img = list(range(degree))
        seen = set()
        for index, cycle in enumerate(cycles):
            if not cycle:
                raise ValueError(f"empty cycle at index {index}")
            for pt in cycle:
                if not 1 <= pt <= degree:
                    raise ValueError(f"point {pt} outside 1..{degree}")
                if pt in seen:
                    raise ValueError(f"point {pt} repeated across cycles")
                seen.add(pt)
            for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
                img[a - 1] = b - 1
        return cls._from_tuple(tuple(img))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation like "(1,2)(3,4)"; "()" or "id" is the identity."""
        s = "".join(text.split())
        if s in ("()", "id", ""):
            return cls.identity(degree)
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles = []
        for chunk in s[1:-1].split(")("):
            if not chunk:
                continue
            try:
                cycle = [int(tok) for tok in chunk.split(",")]
            except ValueError as exc:
                raise ValueError(f"bad cycle notation: {text!r}") from exc
            if len(cycle) < 2:
                raise ValueError(f"bad cycle notation: {text!r}")
            cycles.append(cycle)
        return cls.from_cycles(degree, cycles)

    # -- basics -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple:
        """1-based image sequence."""
        return tuple(x + 1 for x in self._img)

    def apply(self, point: int) -> int:
        return self._img[point - 1] + 1

    __call__ = apply

    def is_identity(self) -> bool:
        return _is_id(self._img)

    def inverse(self) -> "Permutation":
        return Permutation._from_tuple(_inv(self._img))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self * other applies self first, then other."""
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def cycles(self) -> list:
        """Nontrivial cycles, each starting at its least point, ordered by it."""
        img = self._img
        seen = [False] * len(img)
        out = []
        # a cycle's points after its least one are marked; the scan never
        # comes back to the least one
        for i, j in enumerate(img):
            if seen[i] or j == i:
                continue
            cycle = [i + 1]
            while j != i:
                seen[j] = True
                cycle.append(j + 1)
                j = img[j]
            out.append(tuple(cycle))
        return out

    def _cycles0(self) -> tuple:
        """``cycles`` on 0-based points, computed on first use and kept."""
        try:
            return self._cycle_tuples
        except AttributeError:
            self._cycle_tuples = tuple(tuple(x - 1 for x in c) for c in self.cycles())
            return self._cycle_tuples

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()} deg {self.degree}]"

    def support(self) -> tuple:
        """The moved points, ascending, 1-based."""
        return tuple(i + 1 for i, x in enumerate(self._img) if i != x)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p, then q.  Degrees must match."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degree {p.degree} vs {q.degree}")
    return Permutation._from_tuple(_mul(p._img, q._img))


def element_order(p: Permutation) -> int:
    """Least m >= 1 with p^m = identity (lcm of cycle lengths)."""
    return math.lcm(*map(len, p.cycles()))


def parity(p: Permutation) -> str:
    """'even' or 'odd': number of transpositions mod 2."""
    flips = sum(len(c) - 1 for c in p.cycles())
    return "odd" if flips % 2 else "even"


# ---------------------------------------------------------------------------
# stabilizer chain
# ---------------------------------------------------------------------------

class _Layer:
    """One level of a chain: the strong generators whose least moved point
    is its base point, and the transversal of that point's orbit.

    The transversal dicts are replaced, never mutated: every change assigns
    fresh dicts, so copies of a chain may share them.
    """

    __slots__ = ("gens", "transversal", "inv_transversal", "stamp")

    def __init__(self):
        self.gens = []              # strong generator tuples stored at this level
        self.transversal = {}       # point -> representative tuple (base -> point)
        self.inv_transversal = {}   # point -> inverse of that representative
        self.stamp = -1             # level generator count at last verification

    def copy(self) -> "_Layer":
        clone = _Layer()
        clone.gens = list(self.gens)
        clone.transversal = self.transversal
        clone.inv_transversal = self.inv_transversal
        clone.stamp = self.stamp
        return clone


class _Chain:
    """Deterministic Schreier-Sims chain with base fixed to points 1..n.

    Each generator is stored at the level of its least moved point, so the
    level-p generating set (the generators of every level >= p) is exactly
    the stored strong generators fixing 1..p-1 pointwise.

    An insertion that grows the chain closes it with ``_close``, which
    keeps the Schreier generators already sifted to the identity in a set
    local to that insertion, emptied whenever a representative changes;
    the chain holds no such set, so a copy and every later insertion start
    without one.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.layers = {}   # level point (0-based) -> _Layer

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        return math.prod(len(layer.transversal) for layer in self.layers.values())

    def sift_range(self, g: tuple, lo: int, hi: int):
        """Divide g through the levels lo..hi-1; g must fix every point below lo.

        Returns (residue, None) when the residue fixes every point below hi,
        else (residue, stuck_point).  Only g's images of points below hi are
        read, so a partial product that already fixes them can be sifted.
        """
        layers = self.layers
        for p in range(lo, hi):
            x = g[p]
            if x == p:
                continue
            layer = layers.get(p)
            if layer is None:
                return g, p
            u_inv = layer.inv_transversal.get(x)
            if u_inv is None:
                return g, p
            g = _mul(g, u_inv)
        return g, None

    def sift(self, g: tuple):
        """Divide g through the chain; return (residue, stuck_point) or (None, None)."""
        residue, stuck = self.sift_range(g, 0, self.degree)
        return (None, None) if stuck is None else (residue, stuck)

    # -- construction -------------------------------------------------------

    def level_gens(self, p: int) -> list:
        layers = self.layers
        return [g for q in sorted(layers) if q >= p for g in layers[q].gens]

    def insert(self, g: tuple) -> None:
        """Sift g in; if the group grew, store the residue and re-close."""
        residue, stuck = self.sift(g)
        if residue is not None:
            self._store(stuck, residue)
            self._close()

    def _store(self, p: int, residue: tuple) -> None:
        """Append a residue to level p's generators, creating the level if new."""
        layer = self.layers.get(p)
        if layer is None:
            layer = self.layers[p] = _Layer()
        layer.gens.append(residue)

    def _rebuild_transversal(self, p: int, gens: list) -> bool:
        """Rebuild level p's transversal from its generating set ``gens``.

        Returns True when a point that had a representative gets another
        one.  Generating sets only grow, so every such point is still in
        the orbit.
        """
        layer = self.layers[p]
        identity = tuple(range(self.degree))
        transversal = {p: identity}
        inv_transversal = {p: identity}
        queue = [p]
        head = 0
        while head < len(queue):
            pt = queue[head]
            head += 1
            rep = transversal[pt]
            for s in gens:
                y = s[pt]
                if y not in transversal:
                    new_rep = _mul(rep, s)
                    transversal[y] = new_rep
                    inv_transversal[y] = _inv(new_rep)
                    queue.append(y)
        old = layer.transversal
        layer.transversal = transversal
        layer.inv_transversal = inv_transversal
        return any(transversal[pt] != rep for pt, rep in old.items())

    def _close(self) -> None:
        """Restore the strong-generator property chain-wide.

        Walks stale levels deepest-first (a level is stale when its
        generating set grew since its last verified stamp) until a full
        scan finds nothing stale; one pass of suffix generator counts from
        the deepest level up finds the deepest stale level.  A level that is
        not stale keeps its transversal, which changes only when the level's
        generators do.

        ``trivial`` holds Schreier generators that have sifted to the
        identity (see ``_verify_level``).  It lives for one insertion: it is
        not part of the chain, and ``copy`` never sees it.
        """
        trivial = set()
        layers = self.layers
        while True:
            count = 0
            for p in sorted(layers, reverse=True):
                layer = layers[p]
                count += len(layer.gens)
                if layer.stamp != count:
                    self._verify_level(p, trivial)
                    break
            else:
                return

    def _verify_level(self, p: int, trivial: set) -> None:
        """Sift every Schreier generator of level p; store residues deeper.

        Starts over from a rebuilt transversal whenever a residue grows the
        chain, and stamps the level once a whole pass stores nothing.  A
        Schreier generator u_x s u_y^-1 is the identity exactly when
        u_x s = u_y, so that test needs no inverse product.

        A Schreier generator in ``trivial`` is not sifted again, one that
        sifts to the identity joins it, and a rebuild that gives some point
        a new representative empties it.  So each tuple in it sifted to the
        identity through representatives that are all still in place, and
        sifting it again would take the same steps to the identity: the
        skip stores exactly the residues, transversals and stamps that
        sifting every generator on every scan stores (a test builds chains
        both ways and compares them).  The chain is therefore the same base
        and strong generating set (Seress, *Permutation Group Algorithms*,
        2003, Sec. 4.2): a skipped tuple is a product of transversal
        elements of deeper levels, each a word in the generators of those
        levels, which only grow while the chain closes; so by Schreier's
        lemma each level's point stabilizer is generated by the levels
        below it, and the orders are exact.  Emptying the set matters: a
        set kept across a change of representatives skips tuples that would
        now sift to a residue, and stores a different, still valid, chain.
        """
        layer = self.layers[p]
        while True:
            gens = self.level_gens(p)
            if self._rebuild_transversal(p, gens):
                trivial.clear()
            transversal = layer.transversal
            inv_transversal = layer.inv_transversal
            grew = False
            for pt, rep in transversal.items():
                for s in gens:
                    y = s[pt]
                    moved = _mul(rep, s)
                    if moved == transversal[y]:
                        continue
                    schreier = _mul(moved, inv_transversal[y])
                    if schreier in trivial:
                        continue
                    residue, stuck = self.sift(schreier)
                    if residue is None:
                        trivial.add(schreier)
                        continue
                    # residues of level-p Schreier generators fix 1..p
                    self._store(stuck, residue)
                    self._verify_level(stuck, trivial)
                    grew = True
                    break
                if grew:
                    break
            if not grew:
                layer.stamp = len(gens)
                return

    def element_tuples(self) -> Iterator[tuple]:
        """All elements, depth-first over layers in ascending base order.

        Within a layer the orbit points are visited ascending, so the
        identity comes first and the whole order is reproducible.  It is the
        one walk, ``_pruned_search``, with a test that keeps every image.
        """
        identity = tuple(range(self.degree))
        return _pruned_search(_search_plan(self, _keep, math.inf, None), 0,
                              identity, identity, [0])


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

class BlockSystem:
    """A G-invariant partition of the acted-on point set into equal cells."""

    def __init__(self, blocks: Iterable[Iterable[int]]):
        cells = tuple(tuple(sorted(b)) for b in blocks)
        self.blocks = tuple(sorted(cells, key=lambda c: c[0]))

    @property
    def block_size(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockSystem) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"BlockSystem{self.blocks!r}"


class PermGroup:
    """A permutation group with a deterministic stabilizer chain, built on demand.

    The constructor first joins the input generators onto the prefix's
    orbits, and the transposition inputs onto the prefix's transposition
    components, by the one join loop ``_join_moves``; it then tries the
    product certificate, ``_certified``.  Transpositions whose graph
    connects a point set O generate Sym(O) (Wielandt, *Finite Permutation
    Groups*, Thm 13.3), and the transposition components always refine the
    orbits; so when they are the orbits, the group is exactly the product
    of the orbits' symmetric groups, which one comparison shows.  Failing
    that, a group moving the orbits O_1 .. O_k is that product when its
    generators' sign vectors span F_2^k and each projection onto an orbit
    is the orbit's symmetric group: shown by the conjugates of the
    transpositions among the generators' restrictions, or, for |O_i| >= 8,
    by an element with a cycle of prime length p inside O_i,
    |O_i|/2 < p <= |O_i| - 3 (Jordan; Wielandt, Thm 13.9).  A certified
    group takes its order, membership test and block systems (none, when
    it is transitive) from its orbits and leaves its chain unbuilt; the
    chain is built the first time ``_chain`` is read, by the same
    deterministic insertion as an uncertified group, which builds its chain
    in the constructor.  So chains and element orders do not depend on
    when, or whether, a group was certified.  ``generators`` are the inputs,
    and reading them builds nothing.  Block systems are asked of transitive
    groups only, else ``NotTransitive``.

    Immutable after construction apart from that one-time build; safe for
    concurrent reads: a build runs on locals and publishes the chain once.

    ``extends`` (internal) names the prefix.  A build starts from a copy
    of the prefix's chain when that chain is built, and inserts this
    group's own ``generators`` argument into it; else it inserts every
    input into an empty chain.  It builds no other group's chain.
    Insertion is deterministic in the chain state, so
    ``PermGroup(b, extends=PermGroup(a))`` has the same chain, generators and
    element order as ``PermGroup(a + b)``.
    """

    # guards the one-time publication of a lazily built chain
    _publish_lock = threading.Lock()

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None,
                 *, extends: "PermGroup | None" = None):
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for an empty generating set")
            degree = generators[0].degree
        self.degree = degree
        if extends is not None and extends.degree != degree:
            raise DegreeMismatch(
                f"extended group degree {extends.degree} != group degree {degree}")
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}")
        self._extends = extends
        self._new = generators
        self._state = None      # the chain, once built
        # the orbits, and the components the transposition inputs join: they
        # always refine the orbits, and equal them exactly when the
        # transpositions connect every orbit
        identity = tuple(range(degree))
        self._orbit_id = _join_moves(
            identity if extends is None else extends._orbit_id,
            (g._img for g in generators))
        self._tcomp = _join_moves(
            identity if extends is None else extends._tcomp,
            (g._img for g in generators if sum(map(ne, g._img, identity)) == 2))
        self._orbits = _cells(self._orbit_id)
        sym_order = math.prod(math.factorial(len(o)) for o in self._orbits)
        if self._certified():
            self._order = sym_order
            self._sym_product = True
            return
        self._order = self._chain.order()
        self._sym_product = self._order == sym_order

    # -- the certificate ----------------------------------------------------

    def _certified(self) -> bool:
        """True when the group is shown to be Sym(O_1) x ... x Sym(O_k), the
        product of the symmetric groups of the orbits O_1 .. O_k it moves.

        The first test is one comparison: the transposition components are
        the orbits.  Failing that, the product rule certifies G when

        (i) the sign vectors of the generators, one parity bit per moved
            orbit, span F_2^k, and
        (ii) every projection pi_i(G), the action on O_i, is shown to be
             Sym(O_i), by (alpha) or (beta):

             (alpha) the transpositions among the generators' restrictions
                     to O_i, closed under conjugation by the generators,
                     connect O_i;
             (beta)  |O_i| = m >= 8, and an element of a fixed
                     product-replacement sequence has, inside O_i, a cycle
                     of prime length p, m/2 < p <= m - 3.

        The tests run cheapest first, so a refusal is cheap: (i) is one F_2
        elimination, (alpha) one union-find closure, after which an orbit of
        3-7 points left split refuses at once, and (beta) one sequence for
        every orbit still open.

        The lemma: if pi_i(G) = Sym(O_i) for every i and the sign map is
        onto F_2^k, then G is the product.  By induction on k, the
        projection H of G onto O_1 .. O_(k-1) meets both hypotheses, so it
        is the product over those orbits.  N = {x : (1, x) in G} is normal
        in pi_k(G) = Sym(O_k).  Take (y, x) in G with sign vector e_k: y is
        even on every orbit, so it lies in prod Alt(O_i), the derived
        subgroup of H (Sym(m)' = Alt(m) for every m), and it is a product of
        commutators in H.  The same commutators of lifts to G give (y, x')
        in G with x' even, so x x'^-1 is an odd element of N.  Every proper
        normal subgroup of Sym(m) lies in Alt(m) (they are 1, Alt(m), and
        V_4 when m = 4), so N = Sym(O_k) and G = H x Sym(O_k).

        (alpha) is exact.  A generator whose restriction to O_i moves two
        points restricts to a transposition of pi_i(G).  The finest
        partition that joins those pairs and that every generator maps onto
        itself is the component partition of all their conjugates
        (``_closure``), each a transposition of pi_i(G); transpositions
        whose graph connects O_i generate Sym(O_i) (Wielandt, *Finite
        Permutation Groups*, 1964, Thm 13.3).  A 2-point orbit always
        passes.

        (beta) is exact, applied to pi_i(G), which is transitive on O_i:

        1. Inside O_i the element's other cycles are shorter than p, so
           their lengths are coprime to p; raising its restriction to their
           lcm leaves a p-cycle of pi_i(G).  Its cycles on other orbits play
           no part in pi_i(G).
        2. A transitive group holding a p-cycle c with p > m/2 is primitive.
           Across a block system, c either moves some block, and then
           permutes at least p > m/2 blocks, so the blocks are points; or it
           fixes every block, and then its p points lie in one block of size
           more than m/2, which is all of O_i.
        3. A primitive group holding a p-cycle with p <= m - 3 contains
           Alt(O_i) (Jordan; Wielandt, Thm 13.9).
        4. By (i) some generator is odd on O_i, which gives Sym(O_i).

        The sequence starts from the inputs, ``generators``, in one slot
        each (at least 10 slots).  It runs 80 steps, and 5 per slot past 16
        slots, so a group of many generators gets mixed as well; the first
        20 steps only mix.  Its indices come from a fixed seed and the
        number of slots, so randomness decides only whether a group is
        certified, never its order.  Renumbering the points conjugates every
        element of the sequence, which keeps its cycle lengths, so it does
        not change the outcome.  Such a prime exists for every m >= 8
        (Ramanujan's sharpening of Bertrand's postulate).  For one orbit,
        (i) and (beta) are Jordan's criterion alone.
        """
        if self._tcomp == self._orbit_id:
            return True
        ids = self._orbit_id
        moved = [o for o in self._orbits if len(o) > 1]
        gens = self.generators
        if len(gens) < len(moved):
            return False
        bits = {ids[o[0] - 1]: 1 << i for i, o in enumerate(moved)}
        basis = {}          # the sign vectors so far, reduced, by top bit
        pairs = []          # generators restricted to an orbit as a transposition
        for g in gens:
            sign, cycles = 0, {}
            for c in g._cycles0():
                orbit = ids[c[0]]
                if len(c) % 2 == 0:
                    sign ^= bits[orbit]
                cycles.setdefault(orbit, []).append(c)
            pairs += [c[0] for c in cycles.values() if len(c) == 1 and len(c[0]) == 2]
            while sign and sign.bit_length() in basis:
                sign ^= basis[sign.bit_length()]
            if sign:
                basis[sign.bit_length()] = sign
        if len(basis) < len(moved):
            return False
        roots = _closure(self.degree, [g._img for g in gens], pairs)
        split = [o for o in moved if any(roots[x - 1] != o[0] - 1 for x in o)]
        if any(len(o) < 8 for o in split):
            return False
        # orbit id -> the primes p, m/2 < p <= m - 3, of each orbit still open
        primes = {ids[o[0] - 1]: {p for p in range(len(o) // 2 + 1, len(o) - 2)
                                  if all(p % d for d in range(2, math.isqrt(p) + 1))}
                  for o in split}
        if not primes:
            return True
        slots = [gens[i % len(gens)]._img for i in range(max(10, len(gens)))]
        acc = tuple(range(self.degree))
        rng = random.Random(13)
        for step in range(max(80, 5 * len(slots))):
            i, j = rng.sample(range(len(slots)), 2)
            slots[i] = _mul(slots[i], slots[j])
            acc = _mul(acc, slots[i])
            if step < 20:
                continue
            for c in Permutation._from_tuple(acc).cycles():
                if len(c) in primes.get(ids[c[0] - 1], ()):
                    del primes[ids[c[0] - 1]]
            if not primes:
                return True
        return False

    # -- the chain ----------------------------------------------------------

    @property
    def _chain(self) -> _Chain:
        return self._state or self._grow(
            None if self._extends is None else self._extends._state)

    @property
    def generators(self) -> tuple:
        """The inputs along the ``extends`` links, in input order; no chain.

        An input that lies in the group generated before it stays listed;
        it changes no orbit, block system or induced group.
        """
        parts = []
        group = self
        while group is not None:
            parts.append(group._new)
            group = group._extends
        return tuple(g for part in reversed(parts) for g in part)

    def _grow(self, prefix_chain: _Chain | None) -> _Chain:
        """Build this group's chain, and no other group's; publish it once.

        Given its prefix's chain, the build copies it and inserts this
        group's own inputs; given ``None``, it inserts every input,
        ``generators``, into an empty chain.  Insertion is deterministic in
        the chain state, so both give the same chain.  The copy's layers
        are copied, generator lists included, because inserting appends to
        the lists and restamps the layers; the transversal dicts are shared
        (see ``_Layer``).
        """
        chain = _Chain(self.degree)
        if prefix_chain is None:
            inputs = self.generators
        else:
            chain.layers = {p: layer.copy() for p, layer in prefix_chain.layers.items()}
            inputs = self._new
        for g in inputs:
            chain.insert(g._img)
        with PermGroup._publish_lock:
            if self._state is None:
                self._state = chain
            return self._state

    # -- structure ----------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    def orbits(self) -> tuple:
        """Orbit partition of {1..n}, singletons included, ordered by least element."""
        return self._orbits

    @property
    def is_transitive(self) -> bool:
        return len(self._orbits) <= 1

    @property
    def is_symmetric_orbit_product(self) -> bool:
        """True iff the group is the full direct product Sym(O_1) x ... x Sym(O_k).

        Exact: a group certified at construction holds it without a chain;
        any other holds it iff its chain's order equals the product of orbit
        factorials.  Membership then reduces to an orbit-preservation check.
        """
        return self._sym_product

    # -- membership ---------------------------------------------------------

    def _sift_range(self, img: tuple, lo: int, hi: int):
        """The membership test restricted to the points lo..hi-1.

        ``img`` must pass the test on every point below lo.  Returns the
        residue to continue from, or None when no group element agrees with
        ``img`` on the points below hi.  A symmetric orbit product only
        checks that those points stay in their orbits.
        """
        if self._sym_product:
            ids = self._orbit_id
            if all(ids[img[x]] == ids[x] for x in range(lo, hi)):
                return img
            return None
        residue, stuck = self._chain.sift_range(img, lo, hi)
        return residue if stuck is None else None

    def contains_tuple(self, img: tuple) -> bool:
        """Membership on a raw 0-based image tuple (the hot path)."""
        return self._sift_range(img, 0, self.degree) is not None

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"degree {p.degree} vs group degree {self.degree}")
        return self.contains_tuple(p._img)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    # -- enumeration --------------------------------------------------------

    def element_tuples(self) -> Iterator[tuple]:
        """All elements as raw tuples, in the chain's deterministic order."""
        return self._chain.element_tuples()

    def elements(self) -> Iterator[Permutation]:
        return map(Permutation._from_tuple, self.element_tuples())

    # -- block systems ------------------------------------------------------

    def _finest_block_system_with(self, gen_imgs: list, a: int, b: int) -> BlockSystem:
        """Finest partition invariant under the image tuples ``gen_imgs`` that
        places 0-based points a and b together."""
        return BlockSystem(_cells(_closure(self.degree, gen_imgs, [(a, b)])))

    def minimal_block_systems(self) -> list:
        """All minimal nontrivial block systems of a transitive group, by
        block size, then blocks; an intransitive group raises ``NotTransitive``.

        A transitive symmetric orbit product (every group of degree < 2 is
        one) is Sym(n): primitive, with no search.  Otherwise S_p, the finest
        system joining points 1 and p, is listed when it is nontrivial, p is
        1's least partner in it, and each other partner q has an S_q of as
        many blocks, so S_q = S_p, since S_q refines S_p.  Exact: a nontrivial
        T strictly finer than S_p joins some partner q to 1, and S_q refines T;
        a minimal S is S_q for each partner q of 1 in S (Atkinson 1975).
        """
        if not self.is_transitive:
            raise NotTransitive(
                f"group with orbits {self._orbits} is not transitive")
        n = self.degree
        if self._sym_product:
            return []
        gen_imgs = [g._img for g in self.generators]
        systems = {p: self._finest_block_system_with(gen_imgs, 0, p - 1)
                   for p in range(2, n + 1)}
        minimal = [s for p, s in systems.items() if len(s) > 1 and s.blocks[0][1] == p
                   and all(len(systems[q]) == len(s) for q in s.blocks[0][2:])]
        return sorted(minimal, key=lambda s: (s.block_size, s.blocks))

    def is_primitive(self) -> bool:
        return not self.minimal_block_systems()

    # -- induced actions ----------------------------------------------------

    def induced_on(self, domain: Iterable[int]) -> "PermGroup":
        """Action on a union of orbits, relabeled onto 1..|domain|.

        The full point set 1..n returns the group itself.
        """
        points = sorted(set(domain))
        if not points:
            raise DomainNotInvariant("empty domain")
        if points[0] < 1 or points[-1] > self.degree:
            raise DomainNotInvariant("domain outside 1..n")
        touched = Counter(self._orbit_id[pt - 1] for pt in points)
        for idx in sorted(touched):
            if touched[idx] != len(self._orbits[idx]):
                raise DomainNotInvariant(f"domain splits orbit {self._orbits[idx]}")
        if len(points) == self.degree:
            return self
        index = {pt: i for i, pt in enumerate(points)}
        gens = []
        for g in self.generators:
            img = [0] * len(points)
            for pt in points:
                img[index[pt]] = index[g.apply(pt)]
            gens.append(Permutation._from_tuple(tuple(img)))
        return PermGroup(gens, degree=len(points))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self._order})"


# ---------------------------------------------------------------------------
# module-level operations (the documented surface)
# ---------------------------------------------------------------------------

def _smaller_first(G: PermGroup, H: PermGroup) -> tuple:
    if G.degree != H.degree:
        raise DegreeMismatch(f"degree {G.degree} vs {H.degree}")
    return (G, H) if G.order <= H.order else (H, G)


def _search_plan(chain: _Chain, sift, cap: float, orders: tuple | None) -> tuple:
    """What ``_pruned_search`` reads: the chain's levels, their
    representatives, the end of each level's fixed points, the membership
    test on a point range (``_keep`` to enumerate), the cap and the two
    orders for its message.  Enumeration and existence searches share it."""
    levels = sorted(chain.layers)
    reps = [
        [chain.layers[p].transversal[pt] for pt in sorted(chain.layers[p].transversal)]
        for p in levels
    ]
    # depth k fixes the images of the points levels[k]..ends[k]-1
    ends = levels[1:] + [chain.degree]
    return levels, reps, ends, sift, cap, orders


def _keep(img: tuple, lo: int, hi: int) -> tuple:
    """The membership test of the whole symmetric group: every image passes."""
    return img


def _too_large(cap: int, orders: tuple) -> IntersectionTooLarge:
    return IntersectionTooLarge(
        f"orders {orders[0]} and {orders[1]}: the intersection "
        f"search passed cap {cap} nodes",
        left=orders[0], right=orders[1])


def _pruned_search(plan: tuple, depth: int, acc: tuple, residue: tuple,
                   spent: list) -> Iterator[tuple]:
    """The elements below one prefix that pass the plan's test, in order.

    The one walk over a chain: it enumerates and, stopped early, searches
    for existence below one prefix of ``_backtrack``.  ``acc`` is the
    product of the choices above ``depth`` and ``residue`` its sift through
    the test on every point they fix.  One node is counted in ``spent[0]`` per
    transversal element tried, and node cap + 1 raises.  The count is
    written back before each element is yielded and at the end, so a
    caller that stops early reads what it used.  The walk keeps an explicit
    stack of (depth, product, residue, remaining choices).
    """
    levels, reps, ends, sift, cap, orders = plan
    if depth == len(levels):
        yield acc
        return
    last = len(levels) - 1
    nodes = spent[0]
    stack = [(depth, acc, residue, iter(reps[depth]))]
    while stack:
        k, acc, residue, choices = stack[-1]
        lo, hi = levels[k], ends[k]
        for u in choices:
            nodes += 1
            if nodes > cap:
                raise _too_large(cap, orders)
            child = sift(_mul(u, residue), lo, hi)
            if child is None:
                continue
            if k == last:
                spent[0] = nodes
                yield _mul(u, acc)
            else:
                stack.append((k + 1, _mul(u, acc), child, iter(reps[k + 1])))
                break
        else:
            stack.pop()
    spent[0] = nodes


def intersection_order(G: PermGroup, H: PermGroup, known: PermGroup | None = None,
                       cap: int = DEFAULT_INTERSECTION_CAP) -> int:
    """|G ^ H|, without listing G ^ H.

    Two full symmetric orbit products meet in the symmetric product over
    the cells of their common orbit refinement, the points sharing one
    pair of orbit ids: a product of factorials, with no chain and no node,
    unless ``_orbit_count_passes`` already answers ``known.order``.  Any
    other pair is counted by ``_backtrack``, whose nodes ``cap`` bounds.
    ``known``, when given, must be a subgroup of G ^ H; it only saves work.
    """
    if known is not None and known.degree != G.degree:
        raise DegreeMismatch(f"known degree {known.degree} vs {G.degree}")
    small, big = _smaller_first(G, H)
    if _orbit_count_passes(small, big, known):
        return known.order
    if small._sym_product and big._sym_product:
        cells = Counter(zip(small._orbit_id, big._orbit_id))
        return math.prod(map(math.factorial, cells.values()))
    return _backtrack(G, H, known, cap)[0]


def _orbit_count_passes(G: PermGroup, H: PermGroup, known: PermGroup | None) -> bool:
    """Whether G ^ H = ``known`` follows from orbits alone.

    When G and H are full symmetric orbit products, G ^ H is the symmetric
    product over the cells of their common orbit refinement.  A ``known``
    that is a symmetric orbit product too lies in G ^ H, so its orbits
    refine those cells, and the two groups are equal exactly when the two
    partitions have as many classes, fixed points included.
    """
    return (known is not None and G._sym_product and H._sym_product
            and known._sym_product
            and len(set(zip(G._orbit_id, H._orbit_id))) == len(known._orbits))


def _backtrack(G: PermGroup, H: PermGroup, known: PermGroup | None,
               cap: int) -> tuple:
    """|D| for D = G ^ H, and the elements of D that the backtrack finds.

    The one walk over G ^ H, by subgroup backtrack (Seress, *Permutation
    Group Algorithms*, 2003, Sec. 9.1).  ``known``, when given, must be a
    subgroup C of D; when ``_orbit_count_passes`` settles D = C, nothing is
    walked and nothing is found.

    Let b_0 < ... < b_m be the base points of the chain of the smaller
    group (G on a tie, by ``_smaller_first``), and D_k and C_k the elements
    of D and of C that fix every point below b_k.  Then |D| is the product
    of the sizes of the orbits b_k^(D_k).  The levels are settled from the
    deepest up.  K is generated by the elements found so far and by
    generators of C's subgroup fixing every point below b_k; it lies in
    D_k, so each D_k-orbit is a union of K-orbits.  At level k each
    transversal point outside b_k's K-orbit and outside every K-orbit
    already proven absent is the start of one existence search: the pruned
    search below the prefix u_gamma, stopped at its first element.  A found
    element joins K and the list returned; when none exists the point's
    whole K-orbit is absent, marked by its root.  (A class that later joins
    under another root drops the mark, which costs at most a repeated
    search.)  Once every point is settled, b_k's K-orbit is b_k^(D_k).
    Only K's orbits are kept, in one union-find that grows from level to
    level.

    Why the first element found is a node check's witness, the first
    element of D outside C in the smaller group's enumeration order:

    * Each level tries the identity first, so the enumeration lists all of
      D_k before anything else in D.
    * Let k* be the deepest level where D_k* != C_k*.  At every deeper
      level, b_k's C_k-orbit already equals its D_k-orbit, so the
      backtrack finds nothing there, and it reaches k* with K = C_k*.
    * At k*, the elements of D over a point in b's C-orbit form a coset
      c D_(k*+1) = c C_(k*+1), which lies inside C; every element over a
      point outside that orbit lies outside C.
    * So the witness is the first element of D under the first point
      outside b's C-orbit whose subtree meets D, which is exactly the
      backtrack's first hit: the points it skips as absent hold no element
      of D.
    * If D = C, nothing is found.

    Without C, the elements found generate D, which ``intersection``
    returns.  Induct from the deepest level: the elements found at levels
    >= k generate a group inside D_k; it has the b_k-orbit b_k^(D_k) and
    contains D_(k+1), the stabilizer of b_k in D_k, so it is D_k.

    ``cap`` bounds the nodes: one per transversal point visited at a level,
    skipped points included, and one per transversal element tried by the
    existence searches.  Node cap + 1 raises ``IntersectionTooLarge``.
    """
    small, big = _smaller_first(G, H)
    if _orbit_count_passes(small, big, known):
        return known.order, []
    plan = _search_plan(small._chain, big._sift_range, cap, (G.order, H.order))
    levels, reps, ends, sift, _, orders = plan
    parent = list(range(small.degree))
    seeds = [] if known is None else _stabilizer_seeds(known)
    spent = [0]
    order = 1
    found = []
    for k in range(len(levels) - 1, -1, -1):
        b = levels[k]
        while seeds and seeds[-1][0] >= b:
            for x, y in seeds.pop()[1]:
                _union(parent, x, y)
        absent = set()
        for u in reps[k]:
            spent[0] += 1
            if spent[0] > cap:
                raise _too_large(cap, orders)
            root = _root(parent, u[b])
            if root == _root(parent, b) or root in absent:
                continue
            residue = sift(u, b, ends[k])
            element = None if residue is None else next(
                _pruned_search(plan, k + 1, u, residue, spent), None)
            if element is None:
                absent.add(root)
                continue
            found.append(element)
            # the element fixes every point below b
            for x in range(b, small.degree):
                if element[x] != x:
                    _union(parent, x, element[x])
        root = _root(parent, b)
        order *= sum(1 for u in reps[k] if _root(parent, u[b]) == root)
    return order, found


def _stabilizer_seeds(known: PermGroup) -> list:
    """Generators of ``known``'s point stabilizers, as the point pairs they join.

    A list of (least moved point, pairs), sorted by that point: the entries
    at or above b generate the subgroup of ``known`` fixing every point
    below b.  A symmetric orbit product gives the transpositions of
    consecutive points of each orbit, so a certified group needs no chain;
    any other group gives its chain's strong generators.
    """
    if known.is_symmetric_orbit_product:
        seeds = [(x - 1, ((x - 1, y - 1),))
                 for orbit in known.orbits() for x, y in zip(orbit, orbit[1:])]
    else:
        seeds = [(p, tuple((x, g[x]) for x in range(p, known.degree) if g[x] != x))
                 for p, layer in known._chain.layers.items() for g in layer.gens]
    seeds.sort(key=itemgetter(0))
    return seeds


def intersection(G: PermGroup, H: PermGroup,
                 cap: int = DEFAULT_INTERSECTION_CAP) -> PermGroup:
    """The subgroup {g : g in G and g in H}.

    Its generators are the elements that ``_backtrack`` finds with no known
    subgroup, in the order found; they generate G ^ H, and ``cap`` bounds
    the backtrack's nodes, as it does for ``intersection_order``.
    """
    return PermGroup(map(Permutation._from_tuple, _backtrack(G, H, None, cap)[1]),
                     degree=G.degree)
