"""Correctness gate of the benchmark, run outside the timed region.

Every check report is compared with the report pinned in ``expected.json``
for its input: exit code, group order, Schläfli type, certificate and
structure, never timings.  Under a non-zero seed the vertices are
renumbered, so only seed-invariant fields are compared: the witness is left
out and the orbit-indexed structure fields are compared as multisets.

Independently of cprforge, ``sympy.combinatorics`` re-derives the group
order from the PRG text and re-checks every failing certificate: the
witness lies in <left> and in <right> and not in <meet>, and <meet> has the
reported expected order.
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")
PINNED_FIELDS = ("group_order", "schlafli", "certificate", "structure")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pinned(report: dict, code: int) -> dict:
    """The fields of a check report that the benchmark pins."""
    out = {"exit_code": code}
    out.update({key: report[key] for key in PINNED_FIELDS})
    return out


def _seed_invariant(fields: dict) -> dict:
    out = dict(fields)
    cert = out["certificate"]
    if cert is not None:
        out["certificate"] = {k: v for k, v in cert.items() if k != "witness"}
    s = dict(out["structure"])
    s["orbits"] = sorted(zip(s.pop("orbit_sizes"), s.pop("induced_orders")))
    match = s["named_match"]
    if match is not None:
        s["named_match"] = [match["name"], sorted(match["params"].values())]
    out["structure"] = s
    return out


def mismatches(fields: dict, expected: dict, renumbered: bool) -> list:
    """Names of the pinned fields that differ from the expected report."""
    if renumbered:
        fields, expected = _seed_invariant(fields), _seed_invariant(expected)
    return [key for key in expected if fields.get(key) != expected[key]]


def _parse_prg(text: str) -> tuple:
    """(n, {label: [(a, b), ...]}) read from PRG text without cprforge."""
    n = None
    edges = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "vertices":
            n = int(fields[1])
        elif fields[0] == "edge":
            label, a, b = (int(x) for x in fields[1:4])
            edges.setdefault(label, []).append((a - 1, b - 1))
    return n, edges


def _parse_cycles(text: str) -> list:
    """0-based cycles of a cycle string like "(1,2)(3,4)"."""
    body = text.strip()
    if body in ("", "()"):
        return []
    return [[int(x) - 1 for x in chunk.split(",")]
            for chunk in body[1:-1].split(")(")]


class SympyOracle:
    """Re-checks orders and certificates with ``sympy.combinatorics``."""

    def __init__(self):
        from sympy.combinatorics import Permutation, PermutationGroup
        self._perm = Permutation
        self._group = PermutationGroup

    def _section(self, n: int, edges: dict, labels) -> object:
        gens = [self._perm([list(e) for e in edges[label]], size=n)
                for label in labels]
        return self._group(gens or [self._perm([], size=n)])

    def problems(self, prg_text: str, fields: dict) -> list:
        """What the independent engine disagrees with in one report."""
        n, edges = _parse_prg(prg_text)
        out = []
        order = self._section(n, edges, sorted(edges)).order()
        if order != fields["group_order"]:
            out.append(f"group order {fields['group_order']} != sympy {order}")
        cert = fields["certificate"]
        if cert is None or cert["status"] != "fail":
            return out
        witness = self._perm(_parse_cycles(cert["witness"]), size=n)
        if not self._section(n, edges, cert["left"]).contains(witness):
            out.append("witness not in <left>")
        if not self._section(n, edges, cert["right"]).contains(witness):
            out.append("witness not in <right>")
        meet = self._section(n, edges, cert["meet"])
        if meet.contains(witness):
            out.append("witness in <meet>")
        if meet.order() != cert["expected_order"]:
            out.append(f"|<meet>| {meet.order()} != {cert['expected_order']}")
        return out


def sympy_oracle():
    """A ``SympyOracle``, or None when sympy cannot be imported."""
    try:
        return SympyOracle()
    except ImportError:
        return None
