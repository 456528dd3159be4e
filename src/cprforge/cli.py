"""Command-line surface: gen, check, glue, paper.

Exit codes of ``check``: 0 string C-group, 2 sggi but the intersection
property fails, 3 string property fails, 1 I/O or validation error.
The intersection cap comes from ``--cap`` alone; a cap below 1 is an
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import constructions
from .constructions import FamilySpec, build_family
from .errors import CprforgeError
from .paper_cases import CASES, run_cases
from .perm_core import DEFAULT_INTERSECTION_CAP
from .prg import LabeledGraph
from .report import EXIT_ERROR, EXIT_OK, build_report


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CprforgeError(f"cannot write {path}: {exc}")


def _write_graph(g: LabeledGraph, out_path: str | None) -> None:
    text = g.serialize()
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str) -> LabeledGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CprforgeError(f"cannot read {path}: {exc}")
    return LabeledGraph.parse(text)


def cmd_gen(args) -> int:
    params = {}
    for key in ("r", "h", "i", "k"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    g = build_family(FamilySpec(args.family, params))
    _write_graph(g, args.out)
    return 0


def cmd_check(args) -> int:
    g = _read_graph(args.path)
    if args.cap < 1:
        raise CprforgeError(f"--cap={args.cap}: the intersection cap must be at least 1")
    descriptor = {"path": args.path}
    report, code = build_report(g, descriptor, mode=args.mode, cap=args.cap)
    if args.json:
        _write_text(args.json, json.dumps(report, indent=2) + "\n")
    window = report["window"]
    print(f"{args.path}: degree {report['degree']}, window "
          f"[{window[0]}, {window[1]}], order {report['group_order']}")
    if report["string_c_group"]:
        print("string C-group: yes")
    elif not report["sggi"]:
        print("string property: FAILS")
    else:
        cert = report["certificate"]
        print(f"intersection property: FAILS at kept labels {cert['left']} vs "
              f"{cert['right']} (orders {cert['actual_order']} > "
              f"{cert['expected_order']}), witness {cert['witness']}")
    return code


def cmd_glue(args) -> int:
    inputs = [_read_graph(path) for path in args.inputs]
    if args.method == "theorem1":
        if len(inputs) != 2:
            raise CprforgeError("theorem1 gluing needs exactly two input graphs")
        out = constructions.glue_theorem1(inputs[0], inputs[1])
    elif args.method == "pendant":
        if len(inputs) != 1:
            raise CprforgeError("pendant gluing needs exactly one input graph")
        out = constructions.pendant_minus_one(inputs[0])
    else:
        if len(inputs) != 1:
            raise CprforgeError("conjecture gluing needs exactly one input graph")
        if args.i is None:
            raise CprforgeError("conjecture gluing needs --i")
        out = constructions.conjecture_glue(inputs[0], args.i)
    _write_graph(out, args.out)
    lo, hi = out.window()
    print(f"window [{lo}, {hi}]", file=sys.stderr)
    return 0


def cmd_paper(args) -> int:
    results = run_cases(args.case)
    failed = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"[{status}] {result.name}")
        for line in result.lines:
            print(f"    {line}")
        if not result.ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} cases passed")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call.

    ``parse_args`` reads the parser without changing it and returns a new
    namespace each time, so no option carries over from one call to the
    next.
    """
    parser = argparse.ArgumentParser(
        prog="cprforge",
        description="Permutation representation graphs and string C-group checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named graph family")
    gen.add_argument("family",
                     help="family name (e.g. simplex, graph-x, speccase)")
    gen.add_argument("--r", type=int, default=None)
    gen.add_argument("--h", type=int, default=None)
    gen.add_argument("--i", type=int, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="verify a PRG file")
    check.add_argument("path")
    check.add_argument("--mode", choices=("recursive", "full"), default="recursive")
    check.add_argument("--cap", type=int, default=DEFAULT_INTERSECTION_CAP,
                       help="cap on the nodes of each intersection count and "
                            "witness search, at least 1 (default %(default)s)")
    check.add_argument("--json", default=None, help="write the JSON report here")
    check.set_defaults(func=cmd_check)

    glue = sub.add_parser("glue", help="apply a gluing construction")
    glue.add_argument("--method", choices=("theorem1", "pendant", "conjecture"),
                      required=True)
    glue.add_argument("--i", type=int, default=None,
                      help="path length parameter for the conjecture method")
    glue.add_argument("inputs", nargs="+", help="input PRG files")
    glue.add_argument("--out", default=None, help="output path (default stdout)")
    glue.set_defaults(func=cmd_glue)

    paper = sub.add_parser("paper", help="run the reproduction suite")
    paper.add_argument("--case", default=None, choices=sorted(CASES),
                       help="run a single named case")
    paper.set_defaults(func=cmd_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is taken
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CprforgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
