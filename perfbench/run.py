"""heatctrl benchmark: one workload, several fresh worker processes, medians.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Each worker process (worker.py) imports heatctrl from ``src``, sets up the
workload's inputs from the seed and runs one pass of its requests, checking
every output.  Workers run one after another, never two at once, each pinned
to one core with the BLAS/OpenMP pools capped at one thread.  A worker starts
while the run is inside ``--seconds``; a run makes at least three.
A fresh process per pass keeps set-up time and peak RSS owned by one pass, and
keeps a cache inside heatctrl from carrying one pass's work into the next.

``--trace 0`` reports the end-to-end metrics: the medians over workers of
pass and set-up CPU time scaled to a reference core speed (a meter process,
meter.py, shares the worker's core and measures how fast it ran), and the
least peak RSS of any worker.  The pass and set-up times as measured are printed beside them.
``--trace 1`` runs no meter, alternates untraced and traced workers and
reports the per-layer metrics of the traced ones (spans.py), with the
tracing overhead: traced over untraced median pass wall time.  The metric
names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (``--workload all`` prints one such block per
workload, in turn).  The exit status is 0 when every output
passed its check, 1 when one failed, and 2, with no result printed, when the
benchmark could not run at all (no heatctrl sources, a worker crashed).
A run record (git sha, versions, cores, thread caps, seed, every worker's
outputs) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep", "moments", "transmute")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # every run, its workers included, ends within this
METER_NICE = 10  # the meter gets about a tenth of the worker's core
MIN_METER_SAMPLES = 20
# The meter's kernel time on an undisturbed core of the 2-core Xeon VM
# (Sapphire Rapids, KVM) the benchmark was written on: the 5th percentile of
# its kernel times there.  pass_s and setup_s are CPU times on a core of
# that speed.
REFERENCE_KERNEL_S = 0.32e-3


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_record():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": "unknown (not a git checkout)", "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"sha": f"unknown ({exc})", "dirty": None}
    return {"sha": sha.stdout.strip() or "unknown", "dirty": bool(status.stdout.strip())}


class _Worker:
    """One worker process, one set-up and one pass, pinned to one core.

    With ``metered`` a meter process (meter.py) runs beside it on the same
    core, at a lower priority, from before the worker starts until it ends.
    """

    def __init__(self, index, workload, seed, traced, metered, env):
        self.index = index
        self.traced = traced
        self.dir = os.path.join(OUT, workload, f"worker{index}")
        os.makedirs(self.dir)
        self.result = os.path.join(self.dir, "result.json")
        self.log = os.path.join(self.dir, "worker.log")
        self.meter_out = os.path.join(self.dir, "meter.json")
        cores = sorted(os.sched_getaffinity(0))
        core = cores[index % len(cores)]
        self.meter = self.proc = None
        if metered:
            def meter_init():
                os.sched_setaffinity(0, {core})
                os.nice(METER_NICE)
            self.meter = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "meter.py"), "--out", self.meter_out],
                env=env, stdout=subprocess.PIPE, text=True, preexec_fn=meter_init)
        try:
            if metered:
                ready, _, _ = select.select([self.meter.stdout], [], [], 60.0)
                if not ready or self.meter.stdout.readline().strip() != "ready":
                    raise BenchError(f"meter of worker {index} did not start")
            self.started = time.monotonic()
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", str(int(traced)), "--result", self.result,
                   "--work-dir", self.dir, "--spawned-at", repr(self.started)]
            with open(self.log, "w") as fh:
                self.proc = subprocess.Popen(
                    cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                    preexec_fn=lambda: os.sched_setaffinity(0, {core}))
        except BaseException:
            self.stop()
            raise

    def stop(self):
        """Kill the worker if it still runs, stop the meter, wait for both."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.meter is not None and self.meter.poll() is None:
            self.meter.terminate()
            try:
                self.meter.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.meter.kill()
                self.meter.wait()
        if self.meter is not None:
            self.meter.stdout.close()

    def finish(self):
        elapsed = time.monotonic() - self.started
        if self.proc.returncode != 0 or not os.path.exists(self.result):
            with open(self.log) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker {self.index} exited with {self.proc.returncode}:\n{tail}")
        with open(self.result) as fh:
            out = json.load(fh)
        out["elapsed_s"] = elapsed
        out["traced"] = self.traced
        if self.meter is not None:
            if self.meter.returncode != 0 or not os.path.exists(self.meter_out):
                raise BenchError(f"meter of worker {self.index} exited with "
                                 f"{self.meter.returncode}")
            with open(self.meter_out) as fh:
                samples = json.load(fh)
            out["meter"] = {key: [dt for end, dt in samples if lo <= end <= hi]
                            for key, (lo, hi) in (("setup", out["setup_window"]),
                                                  ("pass", out["pass_window"]))}
        return out


def _run_workers(workload, seed, seconds, trace, env):
    """Workers one after another, each started while the run is inside ``seconds``."""
    t0 = time.monotonic()
    done = []
    while len(done) < MIN_PASSES or (
            time.monotonic() - t0 + done[-1]["elapsed_s"] <= seconds):
        # with --trace 1 every other pass is traced, and none is metered
        w = _Worker(len(done), workload, seed, bool(trace) and len(done) % 2 == 1,
                    not trace, env)
        try:
            w.proc.wait(timeout=max(1.0, t0 + RUN_LIMIT_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker still running after {RUN_LIMIT_S:.0f} s")
        finally:
            w.stop()
        done.append(w.finish())
    return done


def _reference_times(workers):
    """Scale each worker's set-up and pass CPU time to the reference core speed.

    The meter's kernel is a fixed amount of work.  Its mean CPU time in a
    window, over REFERENCE_KERNEL_S, is how much slower than the reference the
    core ran in that window; the worker's CPU time in the window is divided by
    it.
    """
    for w in workers:
        for part in ("setup", "pass"):
            samples = w["meter"][part]
            if len(samples) < MIN_METER_SAMPLES:
                raise BenchError(f"the meter ran {len(samples)} times in a {part} window; "
                                 f"too few to measure the core's speed")
            w[f"{part}_meter_mean_s"] = statistics.fmean(samples)
            w[f"{part}_slowdown"] = w[f"{part}_meter_mean_s"] / REFERENCE_KERNEL_S
        w["setup_s"] = w["setup_cpu_s"] / w["setup_slowdown"]
        w["pass_s"] = w["pass_cpu_s"] / w["pass_slowdown"]
        del w["meter"]


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "heatctrl", "__init__.py")):
        raise BenchError(f"no heatctrl sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    shutil.rmtree(os.path.join(OUT, workload), ignore_errors=True)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # with randomized str hashing the allocation order, and with it the peak
    # RSS of one and the same pass, flips between two values some 7 % apart
    env["PYTHONHASHSEED"] = "0"
    workers = _run_workers(workload, seed, seconds, trace, env)

    plain = [w for w in workers if not w["traced"]]
    traced = [w for w in workers if w["traced"]]
    if trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = _layer_metrics(plain, traced)
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        _reference_times(workers)
        values = {key: statistics.median(w[key] for w in plain)
                  for key in ("pass_s", "setup_s", "wall_s", "cpu_s")}
        # one and the same pass peaks at 215, 218 or 235 MB on transmute, as
        # the kernel and allocator place its pages; the least is its own need
        values["peak_rss_mb"] = min(w["peak_rss_mb"] for w in plain)
    unknown = [name for name, _ in names if name not in values]
    if unknown:
        raise BenchError(f"BENCHMARK.json lists metrics this run does not make: {unknown}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    # as measured, on a core shared with the meter; printed, not bounded
    measured = {} if trace else {name: values[name] for name in ("wall_s", "cpu_s")}

    outputs = [o for w in workers for o in w["outputs"]]
    failed = [o for o in outputs if not o["ok"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git": _git_record(), "versions": workers[0]["versions"], "nproc": nproc,
        "thread_caps": {name: env[name] for name in THREAD_VARS},
        "workers": workers, "metrics": metrics,
        "failed_ratio": len(failed) / len(outputs),
    }
    with open(os.path.join(OUT, f"record-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload}  seed {seed}  trace {trace}  workers {len(workers)} "
          f"({len(traced)} traced)")
    print(f"git {record['git']['sha']}  dirty {record['git']['dirty']}")
    print("versions " + "  ".join(f"{k} {v}" for k, v in record["versions"].items())
          + f"  nproc {nproc}  thread caps 1")
    for name, detail in sorted({(o["name"], o["detail"]) for o in failed}):
        print(f"FAILED {name}: {detail}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in measured.items():
        print(f"{name + ' (as measured)':48s} {value:.6g} s")
    print(f"{'failed_ratio':48s} {record['failed_ratio']:.6g} ({len(failed)}/{len(outputs)})")
    print(json.dumps({"correct": not failed, "attempted": len(outputs),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def _layer_metrics(plain, traced):
    """Medians of the traced workers' layer times; counts must agree exactly."""
    layers = [w["layers"] for w in traced]
    out = {}
    for key in layers[0]:
        vals = [lay[key] for lay in layers]
        if key.endswith(("self_s", "_share")):
            out[key] = statistics.median(vals)
        elif len(set(vals)) == 1:
            out[key] = vals[0]
        else:
            raise BenchError(f"computed count {key} differs between passes: {vals}")
    for w in traced:
        if w.get("unwrapped"):
            print(f"note: not traced (entry point missing): {w['unwrapped']}", file=sys.stderr)
    out["trace.overhead"] = (statistics.median(w["wall_s"] for w in traced)
                             / statistics.median(w["wall_s"] for w in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        return max([run(w, args.seed, args.seconds, args.trace) for w in workloads])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
