"""String groups generated by involutions and the intersection property.

An ``Sggi`` holds one involution per label of a contiguous window [lo, hi].
Subscripts follow the kept-label convention: ``section(I)`` is the subgroup
generated by the involutions whose labels lie in I.  (The literature often
indexes by *removed* labels; convert before calling.)

Two intersection-property checkers feed one node loop with the sections
A, B and C of each node; the independent oracle is the brute-force
closure ``paper_cases.closure_tuples``:

* ``check_ip_recursive`` sweeps the contiguous label intervals, using the
  fact that an sggi is a string C-group iff both maximal intervals are and
  their intersection is the inner interval's group.  It checks each
  interval after both of its sub-intervals, in one loop without recursion,
  so any rank is checked.
* ``check_ip_full`` checks every pair of label subsets with neither side
  containing the other, taking each section from a list indexed by label
  mask.

Both return an ``IpCertificate``.  A node passes exactly when |A ^ B|
equals the order of the meet section C, which always lies in A ^ B.  Each
node runs one search, the subgroup backtrack ``perm_core._backtrack``
seeded with C, which never lists A ^ B and decides a node of three
symmetric orbit products by counting orbits.  A failing certificate takes
its actual order and its witness from that same run: the witness is the
first element the backtrack finds, which is the first element of the
offending intersection outside C in the deterministic enumeration order.
``verify_certificate`` re-checks a failing certificate on its own.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .errors import DegreeMismatch, IdentityGenerator, IntersectionTooLarge, RankTooLarge
from .perm_core import (
    DEFAULT_INTERSECTION_CAP,
    PermGroup,
    Permutation,
    _backtrack,
    _mul,
    compose,
    element_order,
)
from .prg import LabeledGraph

DEFAULT_FULL_RANK_BOUND = 10


@dataclass(frozen=True)
class LabelWindow:
    """Contiguous inclusive range of generator labels."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty label window [{self.lo}, {self.hi}]")

    @property
    def rank(self) -> int:
        return self.hi - self.lo + 1

    def labels(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, label: int) -> bool:
        return self.lo <= label <= self.hi


@dataclass(frozen=True)
class StringPropertyVerdict:
    ok: bool
    failing_pair: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class IpCertificate:
    """Verdict of an intersection-property check.

    On failure, ``left`` and ``right`` are the offending kept-label subsets,
    ``expected_order`` the order of the subgroup generated by their meet,
    ``actual_order`` the order of the actual intersection and ``witness`` a
    permutation inside both sections but outside the expected subgroup:
    the first element of the intersection outside it, in the smaller
    section's enumeration order.  Both come from the one backtrack that
    checked the node.
    """

    status: str                       # "pass" | "fail"
    left: tuple | None = None
    right: tuple | None = None
    meet: tuple | None = None
    expected_order: int | None = None
    actual_order: int | None = None
    witness: Permutation | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        if self.ok:
            return {"status": "pass"}
        return {
            "status": "fail",
            "left": list(self.left),
            "right": list(self.right),
            "meet": list(self.meet),
            "expected_order": self.expected_order,
            "actual_order": self.actual_order,
            "witness": self.witness.cycle_string(),
        }


_PASS = IpCertificate("pass")


@dataclass(frozen=True)
class CprVerdict:
    """Combined string-property plus intersection-property outcome."""

    string_property: StringPropertyVerdict
    certificate: IpCertificate | None

    @property
    def is_string_c_group(self) -> bool:
        return bool(self.string_property) and self.certificate is not None \
            and self.certificate.ok

    def __bool__(self) -> bool:
        return self.is_string_c_group


class Sggi:
    """One involution per label of a contiguous window, and their degree.

    ``from_graph`` derives it over the window that a graph's labels span.
    """

    def __init__(self, window: LabelWindow, involutions: dict, degree: int):
        for label in window.labels():
            inv = involutions.get(label)
            if inv is None or inv.is_identity():
                raise IdentityGenerator(
                    f"label {label} has no edges (identity is not an involution)")
            if not compose(inv, inv).is_identity():
                raise ValueError(f"generator at label {label} is not an involution")
            if inv.degree != degree:
                raise DegreeMismatch(f"label {label}: degree {inv.degree} != {degree}")
        self.window = window
        self.involutions = {label: involutions[label] for label in window.labels()}
        self.degree = degree
        self._sections = {}
        # guards the section cache for callers sharing one Sggi across threads
        self._lock = threading.Lock()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_graph(cls, g: LabeledGraph) -> "Sggi":
        """Derive the sggi of a graph over the window its labels span.

        Every label of that window needs at least one edge: a label without
        edges raises ``IdentityGenerator`` before any generator is built.
        """
        w = g.window()
        if w is None:
            raise IdentityGenerator("graph has no edges, no window to derive")
        window = LabelWindow(*w)
        present = set(g.labels)
        for label in window.labels():
            if label not in present:
                raise IdentityGenerator(
                    f"label {label} has no edges (identity is not an involution)")
        involutions = {label: g.generator_of_label(label) for label in window.labels()}
        return cls(window, involutions, g.n)

    @property
    def rank(self) -> int:
        return self.window.rank

    def generator(self, label: int) -> Permutation:
        return self.involutions[label]

    def generators(self) -> list:
        return [self.involutions[label] for label in self.window.labels()]

    def dual(self) -> "Sggi":
        """The same involutions in reversed label order."""
        lo, hi = self.window.lo, self.window.hi
        involutions = {lo + hi - label: inv for label, inv in self.involutions.items()}
        return Sggi(self.window, involutions, self.degree)

    # -- string property ----------------------------------------------------

    def check_string_property(self) -> StringPropertyVerdict:
        """(rho_i rho_j)^2 = 1 for all |i-j| >= 2; first offending pair on fail.

        For involutions that holds exactly when rho_i and rho_j commute, and
        involutions whose supports do not meet always commute.  Labels with
        equal involutions share one class, and commutation is decided once
        per pair of classes whose supports meet.  For each label i in order,
        the first failing j is the least position at or after i + 2 of a
        class that does not commute with i's, so the first failing pair is
        that of the scan over (i, j) in order.
        """
        labels = list(self.window.labels())
        class_of = {}
        cls = [class_of.setdefault(self.involutions[label]._img, len(class_of))
               for label in labels]
        imgs = list(class_of)
        positions = [[] for _ in imgs]
        for idx, c in enumerate(cls):
            positions[c].append(idx)
        # point -> the classes that move it
        movers = {}
        for c, img in enumerate(imgs):
            for x, y in enumerate(img):
                if x != y:
                    movers.setdefault(x, []).append(c)
        clashes = {}
        for idx, c in enumerate(cls):
            if c not in clashes:
                a = imgs[c]
                near = {d for x, y in enumerate(a) if x != y for d in movers[x]}
                clashes[c] = [positions[d] for d in sorted(near)
                              if _mul(a, imgs[d]) != _mul(imgs[d], a)]
            firsts = [pos[k] for pos in clashes[c]
                      if (k := bisect_left(pos, idx + 2)) < len(pos)]
            if firsts:
                return StringPropertyVerdict(False, (labels[idx], labels[min(firsts)]))
        return StringPropertyVerdict(True)

    def schlafli_type(self) -> tuple:
        """Orders of the products of consecutive generators."""
        if self.rank < 2:
            raise ValueError("Schlafli type needs rank >= 2")
        labels = list(self.window.labels())
        return tuple(
            element_order(compose(self.involutions[i], self.involutions[j]))
            for i, j in zip(labels, labels[1:]))

    # -- sections -----------------------------------------------------------

    def section(self, labels: Iterable[int]) -> PermGroup:
        """The subgroup generated by the kept labels, cached per subset.

        A new section of two or more labels extends the cached section of
        its labels minus the largest one by that label's involution, or is
        built from scratch when that prefix is not cached.  Either way it is
        ``PermGroup`` over its involutions in ascending label order: the same
        chain and element order, and the same answers whether or not its
        chain was ever built.  Its ``generators`` are those involutions, and
        reading them builds nothing.
        """
        key = frozenset(labels)
        with self._lock:
            cached = self._sections.get(key)
        if cached is not None:
            return cached
        # only valid keys are stored, so only a miss needs checking
        for label in key:
            if label not in self.window:
                raise KeyError(f"label {label} outside window "
                               f"[{self.window.lo}, {self.window.hi}]")
        ordered = sorted(key)
        prefix = None
        if len(ordered) > 1:
            with self._lock:
                prefix = self._sections.get(frozenset(ordered[:-1]))
        new = ordered if prefix is None else ordered[-1:]
        group = PermGroup([self.involutions[label] for label in new],
                          degree=self.degree, extends=prefix)
        with self._lock:
            return self._sections.setdefault(key, group)

    def group(self) -> PermGroup:
        return self.section(self.window.labels())

    # -- intersection property ----------------------------------------------

    def _node_check(self, left: tuple, right: tuple, A: PermGroup, B: PermGroup,
                    C: PermGroup, cap: int) -> IpCertificate:
        """Check A ^ B = C for the sections A, B, C of left, right and their meet.

        Returns a passing/failing certificate for that single subset pair.
        The meet section C lies in A ^ B, so the node passes exactly when
        |A ^ B| = |C|.  One search decides it: ``perm_core._backtrack``,
        seeded with C, counts A ^ B without listing it (from an orbit count
        when all three sections are full symmetric orbit products).  A
        failing node takes its actual order and its witness from that run:
        the first element found, which is the first element of A ^ B, in
        the smaller section's enumeration order, that leaves C.  Only a
        failing node names its meet labels.  ``cap`` bounds the search's
        nodes; a trip names both label sets.
        """
        try:
            actual, found = _backtrack(A, B, C, cap)
        except IntersectionTooLarge as exc:
            raise IntersectionTooLarge(
                f"sections for {list(left)} and {list(right)}: {exc}",
                left=exc.left, right=exc.right) from None
        if actual == C.order:
            return _PASS
        return IpCertificate("fail", left=tuple(left), right=tuple(right),
                             meet=tuple(sorted(set(left) & set(right))),
                             expected_order=C.order, actual_order=actual,
                             witness=Permutation._from_tuple(found[0]))

    def _first_failure(self, nodes, cap: int) -> IpCertificate:
        """Node-check each (left, right, A, B, C) in order, A, B and C being
        the sections of left, right and their meet; the first failure."""
        for left, right, A, B, C in nodes:
            cert = self._node_check(left, right, A, B, C, cap)
            if not cert.ok:
                return cert
        return _PASS

    def check_ip_recursive(self, cap: int = DEFAULT_INTERSECTION_CAP) -> IpCertificate:
        """Column sweep over contiguous label intervals.

        Interval [i..j] passes iff [i..j-1] and [i+1..j] pass and
        <rho_[i..j-1]> ^ <rho_[i+1..j]> = <rho_[i+1..j-1]>.  Rank <= 1 always
        passes.  The sweep checks every interval of rank >= 2 by column, j
        ascending and i from j-1 down, so both sub-intervals of a node come
        before it; a memoized recursive descent visits them in the same
        order, hence the name.  The first failing interval is reported.
        """
        lo, hi = self.window.lo, self.window.hi
        section = self.section
        return self._first_failure(
            ((left, right, section(left), section(right), section(left[1:]))
             for j in range(lo + 1, hi + 1) for i in range(j - 1, lo - 1, -1)
             for left, right in ((tuple(range(i, j)), tuple(range(i + 1, j + 1))),)),
            cap)

    def check_ip_full(self, cap: int = DEFAULT_INTERSECTION_CAP) -> IpCertificate:
        """Check every subset pair with neither side containing the other.

        Pairs are checked serially in canonical order: masks a < b with no
        containment, bit k selecting label lo+k.  So the reported failure is
        the canonically first one.  Sections are held in a list indexed by
        mask, and slot m is filled by ``section`` the first time a node
        needs it: each mask is looked up once, and a failure stops before
        building the sections it never reaches.  Ranks above
        ``DEFAULT_FULL_RANK_BOUND`` are refused.
        """
        if self.rank > DEFAULT_FULL_RANK_BOUND:
            raise RankTooLarge(
                f"rank {self.rank} exceeds exhaustive bound {DEFAULT_FULL_RANK_BOUND}")
        lo, total = self.window.lo, 1 << self.rank
        labels = [tuple(lo + k for k in range(self.rank) if mask >> k & 1)
                  for mask in range(total)]
        sections = [None] * total

        def section(mask: int) -> PermGroup:
            if sections[mask] is None:
                sections[mask] = self.section(labels[mask])
            return sections[mask]

        return self._first_failure(
            ((labels[a], labels[b], section(a), section(b), section(a & b))
             for a in range(1, total) for b in range(a + 1, total)
             if a & b not in (a, b)),
            cap)

    def is_string_c_group(self, mode: str = "recursive",
                          cap: int = DEFAULT_INTERSECTION_CAP) -> CprVerdict:
        """String property plus intersection property in the requested mode."""
        sp = self.check_string_property()
        if not sp.ok:
            return CprVerdict(sp, None)
        if mode == "recursive":
            cert = self.check_ip_recursive(cap=cap)
        elif mode == "full":
            cert = self.check_ip_full(cap=cap)
        else:
            raise ValueError(f"unknown mode {mode!r} (use 'recursive' or 'full')")
        return CprVerdict(sp, cert)

    # -- sesqui-extension ----------------------------------------------------

    def sesqui_extend(self, k: int) -> "Sggi":
        """Multiply the label-k generator by a transposition on two new points.

        The degree grows by 2; on graphs this is the disjoint union with a
        single k-edge.
        """
        if k not in self.window:
            raise KeyError(f"label {k} outside window")
        n = self.degree
        tau = Permutation.from_cycles(n + 2, [(n + 1, n + 2)])
        involutions = {}
        for label, inv in self.involutions.items():
            extended = Permutation(tuple(inv.images) + (n + 1, n + 2))
            involutions[label] = compose(extended, tau) if label == k else extended
        return Sggi(self.window, involutions, n + 2)


def verify_certificate(sggi: Sggi, cert: IpCertificate) -> bool:
    """Re-check a failing certificate on its own: three membership tests.

    It re-checks the engine's failing certificates (``report`` does so
    before it prints one) and the paper's sigma for the two-row graph,
    put in as the witness of the engine's certificate
    (``paper_cases.case_graph_x_refutation``).  True iff the witness lies
    in <rho_left> and in <rho_right> but not in <rho_meet>.  The orders
    are not recomputed.  A passing certificate has no witness to re-check
    and raises ``ValueError``.
    """
    if cert.ok:
        raise ValueError("only a failing certificate has a witness to re-check")
    witness = cert.witness
    return (sggi.section(cert.left).contains(witness)
            and sggi.section(cert.right).contains(witness)
            and not sggi.section(cert.meet).contains(witness))
