"""cprforge benchmark: one workload per fresh process, closed loop, one caller.

    python3 perfbench/run.py --workload ladder-pass --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Set-up runs ``workloads.py`` as a fresh interpreter ``SETUP_REPEATS`` times
(interpreter start, cprforge import, input generation) and reports the
median.  Each timed operation is one ``cprforge.cli.main([...])`` call, the
user's command minus interpreter start; a pass runs every operation of the
workload once, and passes repeat until ``--seconds`` have passed.  Outputs
are checked against the pinned reports after each pass, outside the timed
region, and certificates are re-checked with sympy at the end.

With ``--trace 1`` the run times untraced passes for half of ``--seconds``,
then installs the wrappers of ``layers.py`` and times traced passes for the
other half, all on renumbering 0; it reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import layers
import verify
import workloads
from workloads import POOL, ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 15
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten samples beyond it at n={n}"
    q = 100.0 * (n - 10) / n
    return f"p{q:.1f} {sorted(values)[n - 11]:.6g} (n={n})"


def environment() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git = sha.stdout.strip() if (
            sha.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT)
        ) else "none (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        git = "none (git not available)"
    return (f"git_sha={git} python={platform.python_version()} "
            f"nproc={os.cpu_count()}")


class Bench:
    """Runs and checks the operations of one workload."""

    def __init__(self, workload, seed: int, work_dir: str):
        from cprforge import cli
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.inputs = [workloads.input_name(f, p) for f, p in workload.inputs]
        self.pool = POOL if seed else 1
        self.expected = verify.load_expected()
        self.attempted = 0
        self.failed = 0
        self.checked = {}      # (input, k) -> fields that matched the pins, for sympy

    def _call(self, argv: list) -> tuple:
        """(seconds, exit code or None, stdout) of one cli.main call."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception:
            # an operation that raises is a failure, counted, not fatal
            traceback.print_exc(file=sys.stderr)
            code = None
        return time.perf_counter() - start, code, out.getvalue()

    def run_pass(self, k: int) -> tuple:
        """One pass on renumbering k: (operation times, failures)."""
        if not self.workload.seeded:
            dt, code, out = self._call(["paper"])
            return [dt], [self._check_paper(code, out)]
        report_path = os.path.join(self.work_dir, "report.json")
        k %= self.pool
        times, problems = [], []
        for name in self.inputs:
            argv = ["check", workloads.input_path(self.work_dir, name, k),
                    "--json", report_path, "--mode", self.workload.mode]
            with contextlib.suppress(FileNotFoundError):
                os.remove(report_path)
            dt, code, _ = self._call(argv)
            times.append(dt)
            problems.append(self._check_report(name, k, code, self._read(report_path)))
        return times, problems

    @staticmethod
    def _read(path: str):
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def _check_report(self, name, k, code, report) -> str | None:
        expected = self.expected["reports"][self.workload.mode][name]
        if code is None or report is None:
            return f"{name}: exit {code}, no report"
        fields = verify.pinned(report, code)
        bad = verify.mismatches(fields, expected, renumbered=self.seed != 0)
        if bad:
            return f"{name}#{k}: mismatch in {', '.join(bad)}"
        self.checked.setdefault((name, k), fields)
        return None

    def _check_paper(self, code, out: str) -> str | None:
        expected = self.expected["paper"]
        passed = [line.split("] ", 1)[1] for line in out.splitlines()
                  if line.startswith("[PASS] ")]
        total = len(expected["cases"])
        if code != expected["exit_code"] or passed != expected["cases"] \
                or f"{total}/{total} cases passed" not in out:
            return f"paper: exit {code}, passed {passed}"
        return None

    def measure(self, seconds: float, min_passes: int, renumber: bool) -> list:
        """Passes until ``seconds`` have passed: a list of operation-time lists."""
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            times, problems = self.run_pass(len(passes) if renumber else 0)
            passes.append(times)
            self.attempted += len(problems)
            for problem in filter(None, problems):
                self.failed += 1
                print(f"FAILED {problem}")
        return passes

    def independent_check(self) -> None:
        """Re-check orders and certificates of every checked report with sympy."""
        oracle = verify.sympy_oracle()
        if oracle is None:
            print("note: sympy is not importable; orders and certificates "
                  "were not re-checked independently")
            return
        for (name, k), fields in sorted(self.checked.items()):
            with open(workloads.input_path(self.work_dir, name, k), encoding="utf-8") as fh:
                problems = oracle.problems(fh.read(), fields)
            if problems:
                self.failed += 1
                print(f"FAILED {name}#{k} (sympy): {'; '.join(problems)}")
        print(f"sympy re-checked {len(self.checked)} reports")


def time_setup(workload, seed: int, work_dir: str) -> list:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload.name, "--seed", str(seed), "--out", work_dir]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls and rounds times up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"env: {environment()} CPRFORGE_CAP="
          f"{'unset' if 'CPRFORGE_CAP' not in os.environ else 'removed'}")
    os.environ.pop("CPRFORGE_CAP", None)
    seed = args.seed if workload.seeded else 0
    if not workload.seeded:
        print("seed: the paper suite has no generated inputs; --seed is recorded only")
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    try:
        setup = time_setup(workload, seed, work_dir)
        bench = Bench(workload, seed, work_dir)
        if args.trace:
            metrics = traced_run(bench, args.seconds)
        else:
            metrics = untraced_run(bench, args.seconds)
            metrics["setup_s"] = (statistics.median(setup), "s")
            print(f"setup_s: median {metrics['setup_s'][0]:.6g} s over "
                  f"{len(setup)} fresh interpreters")
        bench.independent_check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)    # kept while another run still uses it
    print(f"failed_ratio: {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:g}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def untraced_run(bench: Bench, seconds: float) -> dict:
    passes = bench.measure(seconds, MIN_PASSES, renumber=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(p) for p in passes]
    slowest = [max(p) for p in passes]
    print(f"wall_s: median {statistics.median(walls):.6g} s, {tail(walls)}, "
          f"{len(walls)} passes: {' '.join(f'{w:.4g}' for w in walls)}")
    print(f"slowest_op_s: median {statistics.median(slowest):.6g} s, "
          f"{tail(slowest)}")
    print(f"peak_rss_mb: {rss_mb:.6g} MB")
    return {"wall_s": (statistics.median(walls), "s"),
            "slowest_op_s": (statistics.median(slowest), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def traced_run(bench: Bench, seconds: float) -> dict:
    plain = bench.measure(seconds / 2, MIN_TRACED_PASSES, renumber=False)
    tracer = layers.Tracer()
    tracer.install()
    per_pass, traced = [], []
    try:
        deadline = time.perf_counter() + seconds / 2
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
            tracer.reset()
            traced += bench.measure(0, 1, renumber=False)
            per_pass.append(tracer.metrics())
    finally:
        tracer.uninstall()
    if tracer.absent:
        print(f"absent entry points (recorded as 0): {', '.join(tracer.absent)}")
    layer_values, unstable = layers.summarize(per_pass)
    if unstable:
        bench.failed += 1
        print(f"FAILED counts differ between identical traced passes: {unstable}")
    plain_wall = statistics.median(sum(p) for p in plain)
    traced_wall = statistics.median(sum(p) for p in traced)
    print(f"traced wall_s: median {traced_wall:.6g} s over {len(traced)} passes; "
          f"untraced {plain_wall:.6g} s over {len(plain)} passes")
    metrics = {name: (layer_values[name], unit) for name, unit in layers.LAYER_METRICS.items()}
    metrics["trace_overhead"] = (traced_wall / plain_wall, "ratio")
    metrics["trace.absent_entry_points"] = (len(tracer.absent), "count")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return metrics


def run_all(args) -> dict:
    """Every workload in its own fresh process; a table of every metric."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, entry in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:16} {metric:36} {entry['value']:>12.6g} {entry['unit']}")
        print(f"{name:16} {'failed_ratio':36} {one['failed']:>6}/{one['attempted']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        workloads.import_cprforge()
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
