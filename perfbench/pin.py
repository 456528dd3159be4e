"""Regenerate ``expected.json``, the reports the benchmark pins.

    python3 perfbench/pin.py

Runs every workload's inputs once in canonical numbering (seed 0) and the
paper suite once, through ``cprforge.cli.main``, and writes the pinned
fields.  Re-pin only in a change that says why a report changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import verify
import workloads
from workloads import ROOT, WORKLOADS


def main() -> None:
    workloads.import_cprforge()
    from cprforge import cli
    os.environ.pop("CPRFORGE_CAP", None)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"pin-{os.getpid()}")
    report_path = os.path.join(work_dir, "report.json")
    expected = {"reports": {}, "paper": None}
    try:
        for workload in WORKLOADS.values():
            if not workload.seeded:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["paper"])
                if code != 0:
                    raise SystemExit(f"paper suite exited {code}:\n{out.getvalue()}")
                expected["paper"] = {"exit_code": code, "cases": [
                    line[len("[PASS] "):] for line in out.getvalue().splitlines()
                    if line.startswith("[PASS] ")]}
                continue
            workloads.write_inputs(workload, 0, work_dir)
            pins = expected["reports"].setdefault(workload.mode, {})
            for family, params in workload.inputs:
                name = workloads.input_name(family, params)
                argv = ["check", workloads.input_path(work_dir, name, 0),
                        "--json", report_path, "--mode", workload.mode]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                with open(report_path, encoding="utf-8") as fh:
                    pins[name] = verify.pinned(json.load(fh), code)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))
    with open(verify.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
