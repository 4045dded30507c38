"""Condense perfbench run records into one BENCH_<pr>.json.

    python3 bench/snapshot.py --pr <label> [--out BENCH_<label>.json] [RECORD ...]

A RECORD is a ``record-<workload>-seed<n>-trace<t>.json`` that
``perfbench/run.py`` leaves in ``.perfbench_out/``; with none named, every
record there is read.  A run overwrites its record, so copies kept from
several runs of one workload and seed can be named together: they are
pooled.  For each workload and seed the snapshot holds, over runs, the
median and quartiles of every end-to-end metric (``--trace 0`` records, each
value already a median over the run's workers) and the median of every
layer self time (``--trace 1`` records).  All records must share one git
sha, dirty flag and set of versions.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _summary(values):
    """Median and quartiles of a list of run values, with the values."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def snapshot(records, pr):
    """The BENCH dictionary of a list of loaded run records."""
    if not records:
        raise ValueError("no run records")
    first = records[0]
    for rec in records[1:]:
        for key in ("git", "versions"):
            if rec[key] != first[key]:
                raise ValueError(f"records differ in {key}: {first[key]} vs {rec[key]}")
    pooled = {}
    for rec in records:
        entry = pooled.setdefault(rec["workload"], {}).setdefault(f"seed{rec['seed']}", {})
        metrics = rec["metrics"].items()
        if rec["trace"]:
            metrics = [(name, m) for name, m in metrics if name.endswith(".self_s")]
        part = entry.setdefault("layers" if rec["trace"] else "end_to_end", {})
        for name, m in metrics:
            part.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        entry["failed_ratio"] = max(entry.get("failed_ratio", 0.0), rec["failed_ratio"])
    for seeds in pooled.values():
        for entry in seeds.values():
            for part in ("end_to_end", "layers"):
                for name, m in entry.get(part, {}).items():
                    entry[part][name] = {"unit": m["unit"], **_summary(m["values"])}
    return {"pr": pr, "git": first["git"], "versions": first["versions"],
            "workloads": {w: pooled[w] for w in sorted(pooled)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True,
                    help="label of the snapshot: a change, or <change>_parent for its parent")
    ap.add_argument("--out", help="output path (default BENCH_<pr>.json at the repo root)")
    ap.add_argument("records", nargs="*",
                    help="run records (default .perfbench_out/record-*.json)")
    args = ap.parse_args(argv)
    paths = args.records or sorted(glob.glob(os.path.join(ROOT, ".perfbench_out", "record-*.json")))
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    try:
        bench = snapshot(records, args.pr)
    except ValueError as exc:
        print(f"snapshot: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
