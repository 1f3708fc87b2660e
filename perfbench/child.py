"""One timed round of a workload, in a fresh interpreter.

    python3 perfbench/child.py MANIFEST REPORT RESULT TRACE_FILE|-

Drives the manifest through the entry points ``latbounds verify`` uses
(read_manifest, plan_manifest and the plans it returns), writes the report
as the CLI writes it, and writes timings, the in-memory records and the
transform tables built to RESULT as JSON.  With a TRACE_FILE the public
functions of each module are wrapped and the spans written there at the
end; with ``-`` only ``build_transform_table`` is rebound, to keep the
tables it returns for the checks made after the round.
"""

import json
import os
import resource
import sys
import time

from tracing import Tracer, rebind


def main(manifest_path, report_path, result_path, trace_path):
    tracer = Tracer()
    tracer.span("cli.import", __import__, "latbounds.cli")
    import latbounds.cli as cli
    from latbounds import transform

    tables = []
    if trace_path != "-":
        tracer.install()
    build = transform.build_transform_table

    def keep_table(*args, **kwargs):
        table = build(*args, **kwargs)
        tables.append(table.to_dict())
        return table

    rebind(build, keep_table)

    def read_and_plan():
        manifest = cli.read_manifest(manifest_path)
        base_dir = os.path.dirname(os.path.abspath(manifest_path))
        return manifest, cli.plan_manifest(manifest, base_dir)

    manifest, plans = tracer.span("cli.plan", read_and_plan)
    planned_at = time.monotonic()
    run_start = time.perf_counter()
    records = tracer.span("cli.run", execute, cli, manifest, plans,
                          report_path)
    run_s = time.perf_counter() - run_start

    result = {"planned_at": planned_at, "run_s": run_s,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "records": records, "tables": tables}
    if trace_path != "-":
        result["layers"] = tracer.layer_metrics()
        tracer.write(trace_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def execute(cli, manifest, plans, report_path):
    """Run every plan and write the report exactly as ``latbounds verify``
    does; a check that raises is kept as {"error": ...} and left out of
    the report."""
    records = []
    for run in plans:
        try:
            records.append(run())
        except Exception as exc:  # a failed check is counted, not fatal
            records.append({"error": f"{type(exc).__name__}: {exc}"})
    done = [rec for rec in records if "error" not in rec]
    counts = {cli.PASS: 0, cli.FAIL: 0, cli.INCONCLUSIVE: 0}
    for rec in done:
        counts[rec["verdict"]] += 1
    budgets = manifest.get("budgets", {})
    report = {
        "seed": int(manifest.get("seed", 0)),
        "budgets": {"nodes": int(budgets.get("nodes", cli.DEFAULT_NODE_BUDGET)),
                    "grid": int(budgets.get("grid", cli.DEFAULT_GRID_BUDGET))},
        "records": done,
        "summary": {"checks": len(done), "pass": counts[cli.PASS],
                    "fail": counts[cli.FAIL],
                    "inconclusive": counts[cli.INCONCLUSIVE]},
    }
    with open(report_path, "w") as fh:
        json.dump(cli._round12(report), fh, indent=2)
        fh.write("\n")
    return records


if __name__ == "__main__":
    main(*sys.argv[1:5])
