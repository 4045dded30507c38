"""Core-speed meter: a fixed kernel timed over and over beside a worker.

    python3 perfbench/meter.py --out samples.json

run.py starts the meter on the worker's core, at a lower priority, before
the worker, and stops it with SIGTERM after the worker ends.  The meter prints
``ready`` once it is warm, then times one fixed kernel (an interpreter loop
and two numpy exponentials, about 0.3 ms) again and again with the thread's CPU
clock.  On SIGTERM it writes ``[[end, cpu_s], ...]``: the monotonic time each
kernel ended and the CPU time it took.

On a shared host a core's speed changes from one moment to the next: another
tenant's load on the same physical core slows every instruction, without any
sign to the guest.  Because the scheduler alternates the meter and the worker
every few milliseconds, the meter's kernel times sample the same slow-downs as
the worker's pass.  run.py uses their mean to scale the worker's CPU time to a
reference core speed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import numpy as np

_X = np.random.default_rng(0).random(20_000)


def kernel():
    s = 0
    for i in range(5_000):
        s += i * i
    np.exp(_X)
    np.exp(_X)
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    for _ in range(20):
        kernel()
    print("ready", flush=True)

    samples = []
    while not stopped:
        t0 = time.thread_time()
        kernel()
        samples.append((time.monotonic(), time.thread_time() - t0))
    with open(args.out, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
