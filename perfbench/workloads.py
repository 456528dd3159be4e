"""Workload definitions and input generation for the cprforge benchmark.

Every input is built from ``cprforge.constructions`` and written to a PRG
file.  With seed 0 each input keeps its canonical numbering.  A non-zero
seed draws, for each input, a pool of ``POOL`` random vertex renumberings;
untraced pass k checks renumbering k mod ``POOL`` of every input, so one run
averages over several chain base orders instead of resting on one.  A
renumbering keeps the verdict, the group order and the failing label sets,
and moves the chain base order and the witness.

Run as a script, it is the benchmark's set-up step: interpreter start,
cprforge import and input generation, timed from outside by ``run.py``::

    python3 perfbench/workloads.py --workload ladder-pass --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Renumberings per input for a non-zero seed.
POOL = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str | None          # check mode, None for the paper suite
    inputs: tuple             # (family, params) pairs; empty for the paper suite

    @property
    def seeded(self) -> bool:
        return bool(self.inputs)


WORKLOADS = {w.name: w for w in (
    Workload(
        "ladder-pass",
        "chain-bound regime: passing ladders where rebuilding each interval "
        "section's stabilizer chain is nearly all of the check time",
        "recursive",
        (("simplex", {"r": 8}), ("simplex", {"r": 10}), ("simplex", {"r": 12}),
         ("simplex", {"r": 14}), ("lemme1", {"r": 5}), ("lemme1", {"r": 6}),
         ("lemme1", {"r": 7}), ("wreathsimp", {"r": 6}))),
    Workload(
        "refute-two-row",
        "enumeration-bound regime: failing two-row graphs where scanning and "
        "sifting the smaller section dominates and chain builds are minor",
        "recursive",
        (("graph_x", {"r": 5, "h": 1}), ("graph_x", {"r": 6, "h": 2}),
         ("graph_x", {"r": 7, "h": 3}), ("graph_x", {"r": 8, "h": 3}))),
    Workload(
        "oracle-full",
        "exhaustive oracle: every subset pair, many small cached sections and "
        "the sym-product fast path; the only workload that runs check_ip_full",
        "full",
        (("simplex", {"r": 7}), ("simplex", {"r": 8}), ("lemme1", {"r": 6}),
         ("wreathsimp", {"r": 6}), ("graph_x", {"r": 6, "h": 2}),
         ("counterexample1", {"r": 6, "h": 4}),
         ("workswithsimplices", {"i": 3, "r": 5}), ("speccase", {"r": 4}))),
    Workload(
        "paper-suite",
        "the nine-case reproduction suite: the only user of intersection, "
        "splits, the gluing constructions and the closure oracle; no seed input",
        None, ()),
)}


def input_name(family: str, params: dict) -> str:
    return f"{family}({','.join(str(v) for v in params.values())})"


def import_cprforge():
    """Import cprforge from this checkout's ``src``, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "cprforge")):
        raise SystemExit(f"perfbench: no cprforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import cprforge.cli
    if not os.path.abspath(cprforge.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported cprforge from {cprforge.__file__}, "
                         f"not from {SRC}")
    return cprforge


def renumber(g, seed: int, name: str, k: int):
    """The graph with its vertices renumbered by a permutation drawn from
    (seed, input, k); seed 0 returns the graph unchanged."""
    if seed == 0:
        return g
    from cprforge.prg import LabeledGraph
    perm = list(range(1, g.n + 1))
    random.Random(f"{seed}/{name}/{k}").shuffle(perm)
    return LabeledGraph(g.n, [(label, perm[a - 1], perm[b - 1])
                              for label, a, b in g.edges])


def input_path(out_dir: str, name: str, k: int) -> str:
    return os.path.join(out_dir, f"{name}-{k}.prg")


def write_inputs(workload: Workload, seed: int, out_dir: str) -> None:
    """Write every renumbering of every input as ``<name>-<k>.prg``."""
    from cprforge.constructions import FamilySpec, build_family
    os.makedirs(out_dir, exist_ok=True)
    pool = POOL if seed else 1
    for family, params in workload.inputs:
        name = input_name(family, params)
        g = build_family(FamilySpec(family, params))
        for k in range(pool):
            with open(input_path(out_dir, name, k), "w", encoding="utf-8") as fh:
                fh.write(renumber(g, seed, name, k).serialize())


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import_cprforge()
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
