"""The benchmark's reports and the paper suite's stdout stay byte for byte.

One SHA-256 covers the timing-free ``build_report`` output of each of the
20 benchmark inputs in its workload's mode, at seed 0 and at the seed-7
renumberings 1-4 that the benchmark's own ``renumber`` draws (100 reports),
followed by the stdout of ``cprforge paper``.  Verdicts, certificates,
witnesses and exit codes all feed it, so a change to the chain engine that
moves any of them moves the digest.  A change that means to move them
updates ``EXPECTED`` and says why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from cprforge.cli import main
from cprforge.report import build_report

from test_certificate_reference import BENCH_INPUTS, family_case

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"

EXPECTED = "39d750869e2116c9c62b8177c21de50c63e1f4d9f88551ae564d8a318aaafcb5"


def bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_reports_and_paper_stdout_digest(capsys):
    renumber = bench_workloads().renumber
    digest = hashlib.sha256()
    for mode, inputs in BENCH_INPUTS.items():
        for family, params in inputs:
            name, g = family_case(family, params)
            for seed, k in [(0, 0)] + [(7, k) for k in range(1, 5)]:
                report, code = build_report(renumber(g, seed, name, k),
                                            {"path": f"{name}-{k}.prg"}, mode=mode)
                del report["timings"]
                digest.update(json.dumps([mode, report, code], sort_keys=True).encode())
    capsys.readouterr()
    assert main(["paper"]) == 0
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == EXPECTED
