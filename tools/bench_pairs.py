"""Benchmark this source tree against another in alternating pairs.

    python3 tools/bench_pairs.py OTHER_TREE [--seeds S [S ...]] [--out FILE]

OTHER_TREE is the parent, the tree the change is measured against (a
``git archive`` of its commit, say).  For each workload of
``BENCHMARK.json`` it makes 10 pairs of runs of the benchmark's command, ``perfbench/run.py --workload W --seed S --seconds
run_seconds --trace 0``, each side in its own tree with that tree's
perfbench, one process at a time.  Which side runs first alternates from
pair to pair, and the pairs are split evenly over the seeds, in order
(pairs 0-4 at the first of two seeds and 5-9 at the second).

Prints, per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the pairs in which the change was better and
the parent's interquartile range; quartiles are the inclusive ones
(``statistics.quantiles``, numpy's linear percentiles).  With --out it
writes the runs, in the order they were made, and that summary as JSON,
in the layout of the repository's ``BENCH_*.json`` files, with the two
trees' paths; what the trees are, the claim and the reading of the
results are the author's to add.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the pairs a claim needs, and every workload, for the no-regression check
PAIRS = 10
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def quartiles(xs):
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    lo, mid, hi = statistics.quantiles(xs, n=4, method="inclusive")
    return lo, mid, hi


def _pairs(runs, workload):
    """The pairs of workload whose two sides both ran, as {side: run}."""
    sides = {}
    for r in runs:
        if r["workload"] == workload:
            sides.setdefault(r["pair"], {})[r["side"]] = r
    return [p for p in sides.values() if len(p) == 2]


def summarize(runs, metrics):
    """{workload: {metric: summary}} over runs, the dicts ``main`` collects;
    metrics are BENCHMARK.json's end-to-end entries (name, better).  Only
    pairs whose two sides ran count; the change wins a pair when its value
    is better than the parent's, strictly."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = _pairs(runs, workload)
        out[workload] = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            p_lo, p_mid, p_hi = quartiles(parent)
            c_mid = statistics.median(change)
            out[workload][name] = {
                "parent_median": round(p_mid, 6),
                "change_median": round(c_mid, 6),
                "parent_iqr": round(p_hi - p_lo, 6),
                f"change_{metric['better']}_in_pairs": sum(
                    (c < p) if lower else (c > p)
                    for p, c in zip(parent, change)),
                "pairs": len(pairs),
                "relative": round(c_mid / p_mid - 1, 4)}
    return out


def report(runs, metrics):
    """The lines printed for a summary: medians, quartiles, pairs won."""
    lines = []
    better = {m["name"]: m["better"] for m in metrics}
    for workload, by_metric in summarize(runs, metrics).items():
        for name, s in by_metric.items():
            q = {side: quartiles([p[side][name]
                                  for p in _pairs(runs, workload)])
                 for side in ("parent", "change")}
            won = s[f"change_{better[name]}_in_pairs"]
            lines.append(
                f"{workload:14} {name:13} parent {q['parent'][1]:.6g} "
                f"[{q['parent'][0]:.6g}, {q['parent'][2]:.6g}]  change "
                f"{q['change'][1]:.6g} [{q['change'][0]:.6g}, "
                f"{q['change'][2]:.6g}]  {s['relative']:+.1%}  better in "
                f"{won} of {s['pairs']}  parent IQR {s['parent_iqr']:.6g}")
    return lines


def schedule(workloads, pairs, seeds):
    """(workload, pair, seed, side) of every run, in the order they are
    made: pair by pair, the pairs split evenly over the seeds in order,
    and the parent first in the even pairs, the change in the odd ones."""
    for workload in workloads:
        for pair in range(pairs):
            seed = seeds[pair * len(seeds) // pairs]
            sides = ("parent", "change")
            for side in sides if pair % 2 == 0 else sides[::-1]:
                yield workload, pair, seed, side


def run_side(tree, workload, seed):
    """One benchmark run in tree: its verdict fields and metric values."""
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{k: round(m["value"], 6) for k, m in result["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", help="the parent tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3])
    parser.add_argument("--out", help="write the runs and summary here")
    args = parser.parse_args(argv)
    trees = {"parent": Path(args.other_tree).resolve(), "change": ROOT}
    metrics = BENCHMARK["end_to_end"]

    runs = []
    for workload, pair, seed, side in schedule(WORKLOADS, PAIRS, args.seeds):
        runs.append({"workload": workload, "seed": seed, "side": side,
                     "pair": pair, **run_side(trees[side], workload, seed)})
        print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    print("\n".join(report(runs, metrics)))

    if args.out:
        import numpy
        command = " ".join(BENCHMARK["command"]) + (
            " --workload WORKLOAD --seed SEED --seconds "
            f"{BENCHMARK['run_seconds']} --trace 0")
        seeds = ", ".join(map(str, args.seeds))
        record = {
            "command": command,
            "parent": str(trees["parent"]),
            "change": str(trees["change"]),
            "machine": f"{os.cpu_count()} cores, Python "
                       f"{platform.python_version()}, numpy "
                       f"{numpy.__version__}; PYTHONDONTWRITEBYTECODE="
                       f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')}",
            "order": f"runs are listed in the order they were made: "
                     f"{PAIRS} pairs each of {', '.join(WORKLOADS)}"
                     f", split evenly over seeds {seeds} in that order; "
                     "each side ran in its own tree, one process at a time, "
                     "alternating which side ran first in a pair",
            "summary": summarize(runs, metrics),
            "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
