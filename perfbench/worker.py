"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays what one
``wordpack`` CLI invocation pays: the import, and cold module caches such as
``search._canonical_array`` and ``superpattern._universe_cached``.  The last
line of standard output is one JSON object with the pass's measurements.

    python3 perfbench/worker.py --workload dfs --seed 1 --mode run \
        --spawned <time.perf_counter() of the parent just before the start>

``--mode setup`` stops after set-up, ``run`` runs every job and ``trace``
also records spans and reports the per-layer metrics.

``--spawned`` lets the pass measure its own set-up time from the moment the
parent started it.  ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux,
one clock for every process of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    import wordpack
    from harness import Runner, Tracer, layer_metrics
    from workloads import WORKLOADS, layer_floor

    tracer = Tracer(args.mode == "trace")
    rng = random.Random(f"{args.workload}/{args.seed}")
    jobs = WORKLOADS[args.workload](rng, tracer) + layer_floor(tracer)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"setup_s": start - args.spawned}))
        return
    runner = Runner(tracer)
    for job in jobs:
        runner.run(job)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "setup_s": start - args.spawned,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "latencies": runner.latencies,
        "failures": runner.failures,
        "versions": {"wordpack": wordpack.__version__, "numpy": numpy.__version__},
    }
    if tracer.enabled:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.spans)
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
