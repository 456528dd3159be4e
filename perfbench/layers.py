"""Per-layer tracing by wrapping public cprforge entry points from outside.

``Tracer.install`` replaces each entry point in ``ENTRY_POINTS`` (and every
``from``-import of it inside the cprforge package) with a wrapper that
records a span: calls, total time of the outermost call, self time (its
duration minus the time covered by its direct child spans) and the number
of ``PermGroup`` constructions, i.e. chain builds, made inside it.  An entry
point that no longer exists is recorded as absent instead of failing.
``uninstall`` puts the originals back.

``PermGroup.element_tuples`` is a lazy generator driven by the caller's
loop, so it is counted (enumerations, elements yielded) but not timed: the
time spent producing elements stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter

# span name -> (module, attribute path)
ENTRY_POINTS = (
    ("perm_core.chain_build", "cprforge.perm_core", "PermGroup.__init__"),
    ("perm_core.membership", "cprforge.perm_core", "PermGroup.contains_tuple"),
    ("perm_core.intersection", "cprforge.perm_core", "intersection"),
    ("cgroup.from_graph", "cprforge.cgroup", "Sggi.from_graph"),
    ("cgroup.section", "cprforge.cgroup", "Sggi.section"),
    ("cgroup.string_property", "cprforge.cgroup", "Sggi.check_string_property"),
    ("cgroup.check_ip", "cprforge.cgroup", "Sggi.check_ip_recursive"),
    ("cgroup.check_ip", "cprforge.cgroup", "Sggi.check_ip_full"),
    ("analysis.fingerprint", "cprforge.analysis", "fingerprint"),
    ("analysis.splits", "cprforge.analysis", "find_splits"),
    ("prg.parse", "cprforge.prg", "LabeledGraph.parse"),
    ("report.build_report", "cprforge.report", "build_report"),
    ("cli.main", "cprforge.cli", "main"),
)
ENUMERATION = ("cprforge.perm_core", "PermGroup.element_tuples")
CASES = ("cprforge.paper_cases", "CASES")

CASE_NAMES = (
    "theorem1-simplex-grid", "graph-x-refutation", "section3-nonexamples",
    "family-orders", "speccase-generators", "oracle-equivalence",
    "duality-suite", "splits-primitivity", "engine-selfchecks",
)

# metric name -> unit, in report order
LAYER_METRICS = {
    "perm_core.chain_builds": "count",
    "perm_core.chain_build_s": "s",
    "cgroup.section_calls": "count",
    "cgroup.section_misses": "count",
    "cgroup.section_hit_ratio": "ratio",
    "perm_core.enumerations": "count",
    "perm_core.elements_scanned": "count",
    "perm_core.membership_tests": "count",
    "perm_core.membership_s": "s",
    "cgroup.check_ip_self_s": "s",
    "analysis.fingerprint_s": "s",
    "analysis.fingerprint_chain_builds": "count",
    "prg.parse_s": "s",
    "prg.parse_calls": "count",
    "cgroup.from_graph_s": "s",
    "cgroup.string_property_s": "s",
    "report.self_s": "s",
    "cli.self_s": "s",
    "perm_core.intersection_calls": "count",
    "perm_core.intersection_s": "s",
    "analysis.splits_s": "s",
    **{f"paper_cases.{case}_s": "s" for case in CASE_NAMES},
}
# integer counts that must repeat exactly on identical input
EXACT_COUNTS = ("perm_core.chain_builds", "cgroup.section_misses",
                "perm_core.elements_scanned", "perm_core.membership_tests")

CHAIN = "perm_core.chain_build"


def _resolve(module: str, path: str):
    """(owner, attribute name, raw attribute) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    def __init__(self):
        self.absent = []
        self._patches = []     # (owner, attr, original), in install order
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.builds_inside = Counter()
        self.spans_with_builds = Counter()
        self.elements = 0
        self._stack = []       # open spans: [start, child time]
        self._depth = Counter()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            builds = tracer.calls[CHAIN]
            depth = tracer._depth
            depth[name] += 1
            frame = [clock(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                tracer._stack.pop()
                depth[name] -= 1
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[1]
                if not depth[name]:
                    tracer.total[name] += duration
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                built = tracer.calls[CHAIN] - builds
                if built:
                    tracer.builds_inside[name] += built
                    tracer.spans_with_builds[name] += 1
        return wrapper

    def _counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls["perm_core.enumeration"] += 1
            seen = 0
            try:
                for item in fn(*args, **kwargs):
                    seen += 1
                    yield item
            finally:
                tracer.elements += seen
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, label: str, module: str, path: str, wrap) -> None:
        found = _resolve(module, path)
        if found is None:
            self.absent.append(label)
            return
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        # functions imported by name into other cprforge modules
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("cprforge") or mod is owner:
                continue
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, name, raw))
                    setattr(mod, name, replacement)

    def install(self) -> None:
        for name, module, path in ENTRY_POINTS:
            self._patch(f"{module}.{path}", module, path,
                        functools.partial(self._span, name))
        self._patch(".".join(ENUMERATION), *ENUMERATION, self._counting)
        found = _resolve(*CASES)
        cases = found[2] if found else {}
        for case in CASE_NAMES:
            if case in cases:
                self._patches.append((cases, case, cases[case]))
                cases[case] = self._span(f"paper_cases.{case}", cases[case])
            else:
                self.absent.append(f"{'.'.join(CASES)}[{case!r}]")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict:
        """Layer metrics of everything recorded since the last reset."""
        sections = self.calls["cgroup.section"]
        misses = self.spans_with_builds["cgroup.section"]
        out = {
            "perm_core.chain_builds": self.calls[CHAIN],
            "perm_core.chain_build_s": self.total[CHAIN],
            "cgroup.section_calls": sections,
            "cgroup.section_misses": misses,
            "cgroup.section_hit_ratio": (sections - misses) / sections if sections else 0.0,
            "perm_core.enumerations": self.calls["perm_core.enumeration"],
            "perm_core.elements_scanned": self.elements,
            "perm_core.membership_tests": self.calls["perm_core.membership"],
            "perm_core.membership_s": self.total["perm_core.membership"],
            "cgroup.check_ip_self_s": self.self_time["cgroup.check_ip"],
            "analysis.fingerprint_s": self.total["analysis.fingerprint"],
            "analysis.fingerprint_chain_builds": self.builds_inside["analysis.fingerprint"],
            "prg.parse_s": self.total["prg.parse"],
            "prg.parse_calls": self.calls["prg.parse"],
            "cgroup.from_graph_s": self.total["cgroup.from_graph"],
            "cgroup.string_property_s": self.total["cgroup.string_property"],
            "report.self_s": self.self_time["report.build_report"],
            "cli.self_s": self.self_time["cli.main"],
            "perm_core.intersection_calls": self.calls["perm_core.intersection"],
            "perm_core.intersection_s": self.total["perm_core.intersection"],
            "analysis.splits_s": self.total["analysis.splits"],
        }
        for case in CASE_NAMES:
            out[f"paper_cases.{case}_s"] = self.total[f"paper_cases.{case}"]
        return out


def summarize(per_pass: list) -> tuple:
    """(metrics, counts that did not repeat): the median of each timing over
    the traced passes and the first pass's counts, which must repeat."""
    first = per_pass[0]
    out = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            out[name] = float(statistics.median(p[name] for p in per_pass))
        else:
            out[name] = first[name]
    unstable = [name for name in EXACT_COUNTS
                if any(p[name] != first[name] for p in per_pass)]
    return out, unstable
