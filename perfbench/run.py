"""The latbounds benchmark: one workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Each round launches a fresh
interpreter (perfbench/child.py) that imports latbounds from ./src, reads
and plans the workload's manifest, runs every check and writes the report,
one process at a time.  Rounds repeat until S seconds have passed, and at
least MIN_ROUNDS times (fewer only if that would pass DEADLINE_S); every
metric is the median over the rounds.

--trace 0 reports the end-to-end metrics of untraced rounds:
  setup_s       launch of the interpreter until the manifest is planned
  run_s         every planned check executed and the report written
  peak_rss_mib  peak resident memory of the round's process
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of tracing.LAYER_METRICS; trace.overhead_s is the traced run_s
minus the untraced one.

After the rounds, outside the timed region, every record is checked
against the computations of oracles.py, every round's report must be
byte-identical to the first, and the acceptance report to the one
``latbounds verify`` writes.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 3
DEADLINE_S = 120
CHILD_TIMEOUT_S = 150
# One BLAS thread: steadier timings on a shared machine, and a single
# process is what a CLI user runs.
BLAS_THREADS = "1"

sys.path.insert(0, HERE)
from tracing import LAYER_METRICS  # noqa: E402
from workloads import ACCEPTANCE, NAMES, write_manifest  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_round(manifest_path, traced, tag):
    """One fresh interpreter; returns its result dict, or None if it died."""
    report = os.path.join(OUT, f"{tag}-report.json")
    result = os.path.join(OUT, f"{tag}-result.json")
    trace = os.path.join(OUT, f"{tag}-spans.jsonl") if traced else "-"
    for path in (report, result):
        if os.path.exists(path):
            os.remove(path)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), manifest_path,
             report, result, trace],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result):
        print(f"round exited {proc.returncode}:\n"
              f"{proc.stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
        return None
    with open(result) as fh:
        res = json.load(fh)
    with open(report, "rb") as fh:
        res["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    res["setup_s"] = res["planned_at"] - launched
    return res


def cli_report_sha256(manifest_path):
    """sha256 of the report `latbounds verify` writes for this manifest.

    The CLI's output is a function of the sources and the manifest, so it
    is kept under a key made of both and run again only when they change.
    """
    key = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                key.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    key.update(fh.read())
    with open(manifest_path, "rb") as fh:
        key.update(fh.read())
    path = os.path.join(OUT, f"cli-report-{key.hexdigest()[:16]}.json")
    if not os.path.exists(path):
        try:
            subprocess.run([sys.executable, "-m", "latbounds", "verify",
                            manifest_path, "--output", path + ".tmp"],
                           env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if not os.path.exists(path + ".tmp"):
            return None
        os.replace(path + ".tmp", path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def verdicts(workload, manifest, rounds):
    """(attempted, failed, problems) over every round, oracles included."""
    import oracles

    n_checks = len(manifest["checks"])
    attempted = n_checks * len(rounds)
    failed = 0
    problems = []
    checked = {}  # oracle verdicts by record contents: rounds repeat them
    first = next((r for r in rounds if r is not None), None)
    for res in rounds:
        if res is None:
            failed += n_checks
            problems.append("a round did not finish")
            continue
        key = json.dumps([res["records"], res["tables"]], sort_keys=True)
        if key not in checked:
            checked[key] = oracles.check(workload, manifest, res["records"],
                                         res["tables"])
        wrong = checked[key]
        for idx, rec in enumerate(res["records"]):
            if "error" in rec or rec["verdict"] != "PASS" or idx in wrong:
                failed += 1
        problems += [f"check {idx}: {why}" for idx, why in sorted(wrong.items())]
        if res["report_sha256"] != first["report_sha256"]:
            problems.append("report differs between rounds")
    if workload == "acceptance" and first is not None:
        cli_sha = cli_report_sha256(os.path.join(ROOT, ACCEPTANCE))
        if cli_sha != first["report_sha256"]:
            problems.append("report differs from `latbounds verify`")
    return attempted, failed, sorted(set(problems))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "latbounds", "cli.py"), ACCEPTANCE):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from the "
                  "root of a latbounds source tree", file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)
    manifest_path = write_manifest(args.workload, args.seed, ROOT, OUT)
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    modes = (False, True) if args.trace else (False,)
    rounds = {mode: [] for mode in modes}
    tag = f"{args.workload}-seed{args.seed}"
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for mode in modes:
            rounds[mode].append(run_round(manifest_path, mode,
                                          tag + ("-traced" if mode else "")))
        now = time.monotonic()
        if len(rounds[False]) >= MIN_ROUNDS and now - start >= args.seconds:
            break
        # on a machine slowed far below the reference, stop early rather
        # than overrun the time a run may take
        if now - start + (now - began) > DEADLINE_S:
            break

    every = [res for mode in modes for res in rounds[mode]]
    attempted, failed, problems = verdicts(args.workload, manifest, every)
    done = {mode: [r for r in rounds[mode] if r is not None] for mode in modes}
    for line in problems:
        print("problem:", line)

    metrics = {}
    if done[False] and (not args.trace or done[True]):
        if args.trace:
            for name, (unit, _) in LAYER_METRICS.items():
                if name != "trace.overhead_s":
                    value = statistics.median(r["layers"][name] for r in done[True])
                    metrics[name] = {"value": value, "unit": unit}
            metrics["trace.overhead_s"] = {
                "value": (statistics.median(r["run_s"] for r in done[True])
                          - statistics.median(r["run_s"] for r in done[False])),
                "unit": "s"}
        else:
            per_round = {"setup_s": [r["setup_s"] for r in done[False]],
                         "run_s": [r["run_s"] for r in done[False]],
                         "peak_rss_mib": [r["peak_rss_kib"] / 1024.0
                                          for r in done[False]]}
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": statistics.median(per_round[name]),
                                 "unit": unit}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds = {len(every)}, checks attempted = "
          f"{attempted}, failed = {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
