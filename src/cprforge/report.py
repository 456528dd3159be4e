"""JSON check reports: schema "cprforge-report/1" plus the exit-code map.

Exit codes of the ``check`` command:
    0  string C-group
    2  sggi (string property holds) but the intersection property fails
    3  string property fails
    1  I/O or validation error (bad file, oversized intersection, ...), or
       a failing certificate that does not re-check (an internal error)

Orders are exact integers; timings are the only inexact fields and are
excluded from golden comparisons.
"""

from __future__ import annotations

import time

from .analysis import fingerprint
from .cgroup import Sggi, verify_certificate
from .errors import CprforgeError
from .perm_core import DEFAULT_INTERSECTION_CAP
from .prg import LabeledGraph

SCHEMA_ID = "cprforge-report/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_IP_FAIL = 2
EXIT_SP_FAIL = 3

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": SCHEMA_ID,
    "type": "object",
    "required": ["schema", "input", "degree", "window", "sggi", "schlafli",
                 "group_order", "string_c_group", "certificate", "structure",
                 "timings"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "input": {"type": "object"},
        "degree": {"type": "integer", "minimum": 0},
        "window": {
            "type": "array", "items": {"type": "integer"},
            "minItems": 2, "maxItems": 2,
        },
        "sggi": {"type": "boolean"},
        "schlafli": {
            "oneOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer", "minimum": 1}},
            ],
        },
        "group_order": {"type": "integer", "minimum": 1},
        "string_c_group": {"type": "boolean"},
        "certificate": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["status"],
                    "additionalProperties": False,
                    "properties": {
                        "status": {"enum": ["pass", "fail"]},
                        "left": {"type": "array", "items": {"type": "integer"}},
                        "right": {"type": "array", "items": {"type": "integer"}},
                        "meet": {"type": "array", "items": {"type": "integer"}},
                        "expected_order": {"type": "integer", "minimum": 1},
                        "actual_order": {"type": "integer", "minimum": 1},
                        "witness": {"type": "string"},
                    },
                },
            ],
        },
        "structure": {
            "type": "object",
            "required": ["orbit_sizes", "transitive", "primitive", "group_order",
                         "induced_orders", "factorization_check", "named_match"],
            "additionalProperties": False,
            "properties": {
                "orbit_sizes": {"type": "array", "items": {"type": "integer"}},
                "transitive": {"type": "boolean"},
                "primitive": {"oneOf": [{"type": "boolean"}, {"type": "null"}]},
                "group_order": {"type": "integer", "minimum": 1},
                "induced_orders": {"type": "array", "items": {"type": "integer"}},
                "factorization_check": {"type": "boolean"},
                "named_match": {
                    "oneOf": [
                        {"type": "null"},
                        {
                            "type": "object",
                            "required": ["name", "params"],
                            "additionalProperties": False,
                            "properties": {
                                "name": {"type": "string"},
                                "params": {"type": "object"},
                            },
                        },
                    ],
                },
            },
        },
        "timings": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}


def build_report(g: LabeledGraph, descriptor: dict, mode: str = "recursive",
                 cap: int = DEFAULT_INTERSECTION_CAP) -> tuple:
    """Run the full check pipeline on a graph; return (report dict, exit code).

    ``cap`` bounds the nodes of each intersection count and witness search.
    Raises the usual validation errors (IdentityGenerator,
    IntersectionTooLarge, RankTooLarge) for the caller to map to exit 1.
    A failing certificate is re-checked with ``verify_certificate`` first;
    one that does not re-check raises ``CprforgeError`` instead of being
    reported.
    """
    timings = {}

    t = time.perf_counter()
    sggi = Sggi.from_graph(g)
    group = sggi.group()
    timings["group_ms"] = (time.perf_counter() - t) * 1000.0

    t = time.perf_counter()
    verdict = sggi.is_string_c_group(mode=mode, cap=cap)
    timings["check_ms"] = (time.perf_counter() - t) * 1000.0
    cert = verdict.certificate
    if cert is not None and not cert.ok and not verify_certificate(sggi, cert):
        raise CprforgeError(
            f"internal error: the failing certificate does not re-check: "
            f"witness {cert.witness.cycle_string()} for kept labels "
            f"{list(cert.left)} vs {list(cert.right)}, meet {list(cert.meet)}")

    t = time.perf_counter()
    structure = fingerprint(group)
    timings["structure_ms"] = (time.perf_counter() - t) * 1000.0

    schlafli = list(sggi.schlafli_type()) if sggi.rank >= 2 else None
    report = {
        "schema": SCHEMA_ID,
        "input": descriptor,
        "degree": g.n,
        "window": [sggi.window.lo, sggi.window.hi],
        "sggi": bool(verdict.string_property),
        "schlafli": schlafli,
        "group_order": group.order,
        "string_c_group": verdict.is_string_c_group,
        "certificate": (verdict.certificate.to_json()
                        if verdict.certificate is not None else None),
        "structure": structure.to_json(),
        "timings": timings,
    }
    if verdict.is_string_c_group:
        code = EXIT_OK
    elif not verdict.string_property:
        code = EXIT_SP_FAIL
    else:
        code = EXIT_IP_FAIL
    return report, code
