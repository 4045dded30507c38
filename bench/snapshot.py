"""Condense perfbench run records into one BENCH_<pr>.json.

    python3 bench/snapshot.py --pr <label> [--out BENCH_<label>.json]
                              [--against BENCH_<label>_parent.json] [RECORD ...]

A RECORD is a ``record-<workload>-seed<n>-trace<t>.json`` that
``perfbench/run.py`` leaves in ``.perfbench_out/``; with none named, every
record there is read.  A run overwrites its record, so copies kept from
several runs of one workload and seed can be named together: they are
pooled.  For each workload and seed the snapshot holds, over runs, the
median and quartiles of every end-to-end metric (``--trace 0`` records, each
value already a median over the run's workers) and the median of every
layer self time (``--trace 1`` records).  All records must share one git
sha, dirty flag and set of versions.

With ``--against`` a parent snapshot, one line per workload, seed and
end-to-end metric compares the two: the parent's median [q1, q3], the
change's, the change in per cent, the pairs by run index (the order the
records are named in; ``+`` the change won, ``-`` it lost, ``=`` a tie) and
whether a gain may be claimed: at least ten pairs, the change winning at
least nine tenths of them, ties counting for neither, and the medians apart
by more than the parent's quartile distance.  Which way is better comes from
BENCHMARK.json.  Standard library only.
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


def _better():
    """{metric: "lower" | "higher"} of the end-to-end metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def compare(parent, change, better):
    """Lines comparing each end-to-end metric of two snapshots, run by run."""
    lines = []
    for workload, seeds in change["workloads"].items():
        for seed, entry in seeds.items():
            for name, new in entry.get("end_to_end", {}).items():
                head = f"{workload} {seed} {name} [{new['unit']}]:"
                old = parent["workloads"].get(workload, {}).get(seed, {}).get(
                    "end_to_end", {}).get(name)
                if old is None:
                    lines.append(f"{head} no parent runs")
                    continue
                sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
                pairs = "".join("+" if sign * (c - p) > 0 else "-" if sign * (c - p) < 0 else "="
                                for p, c in zip(old["runs"], new["runs"]))
                gap = sign * (new["median"] - old["median"])
                gain = (len(pairs) >= 10 and pairs.count("+") >= 0.9 * len(pairs)
                        and gap > old["q3"] - old["q1"])
                pct = 100.0 * (new["median"] / old["median"] - 1.0)
                lines.append(
                    f"{head} {old['median']:.4g} [{old['q1']:.4g}, {old['q3']:.4g}] -> "
                    f"{new['median']:.4g} [{new['q1']:.4g}, {new['q3']:.4g}] {pct:+.1f}%, "
                    f"wins {pairs.count('+')}/{len(pairs)} {pairs}, "
                    f"gain {'holds' if gain else 'not shown'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True,
                    help="label of the snapshot: a change, or <change>_parent for its parent")
    ap.add_argument("--out", help="output path (default BENCH_<pr>.json at the repo root)")
    ap.add_argument("--against", help="a parent BENCH file to compare the snapshot with")
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
        if args.against:
            with open(args.against) as fh:
                parent = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"snapshot: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(out)
    if args.against:
        print("\n".join(compare(parent, bench, _better())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
