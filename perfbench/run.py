"""wordpack benchmark: one command, four seeded workloads, every output checked.

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds ``src/wordpack``.  Nothing is
built: the passes import the package from ``src``.

A run is a closed loop with one caller.  It starts fresh interpreters one
after another (``worker.py``), each running the workload's whole job list
once, until ``--seconds`` have gone by; every run makes at least two passes.
A fresh interpreter per pass keeps every module cache cold, as in one CLI
invocation, and measures set-up once per pass.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
seven set-ups: one per pass, the rest from starts that stop after set-up.
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are means over the passes.
``job_p50_ms`` and ``job_p90_ms`` are percentiles over the jobs of each
job's median latency over the passes (every workload runs at least 100
jobs, so ten lie beyond the 90th percentile).  A shared machine runs in
fast and slow spells, from milliseconds to minutes long and about 1.5x
apart; a median over a dozen passes jumps between the two when they come
in about equal numbers, and a mean moves smoothly, while a job's median
over the passes keeps one slow pass from moving its latency.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, medians over the traced passes, plus
``trace.overhead_s``: the traced minus the untraced mean ``wall_s``.
Traced passes write their spans to ``.perfbench-traces/`` at the root of
the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment, each metric with its unit, and the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import mean, median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import tail_percentile  # noqa: E402

#: BENCHMARK.json names the workloads, with why each was chosen, and the
#: metrics with their units; this script and the harness follow it.
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")

MIN_PASSES = 2
SETUPS = 7  # set-ups measured per run: one per pass, the rest by set-up-only starts
PASS_TIMEOUT_S = 150
TRACE_DIR = ".perfbench-traces"


def load_spec() -> dict:
    with open(SPEC_FILE) as fh:
        return json.load(fh)


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("WORDPACK_THREADS", None)  # the jobs set their own thread counts
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # numpy's BLAS pool would add threads the workloads never use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(workload: str, seed: int, mode: str, index: int, env: Dict[str, str]) -> dict:
    """One fresh interpreter: ``mode`` is "setup" (set up, then exit),
    "run" or "trace" (set up, then run every job)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if mode == "trace":
        os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(ROOT, TRACE_DIR, f"{workload}-seed{seed}-pass{index}.jsonl")]
    cmd += ["--spawned", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=PASS_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} {index} of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout's git directory, if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if os.path.exists(os.path.join(git, name)):
            with open(os.path.join(git, name)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(passes: List[dict], setups: List[float]) -> Dict[str, float]:
    """Means over the passes, but job percentiles over each job's median."""
    per_job = list(zip(*(p["latencies"] for p in passes)))
    if any(len(p["latencies"]) != len(per_job) for p in passes):
        raise ValueError("the passes ran different job lists")
    latencies = [median(times) for times in per_job]
    p90 = tail_percentile(latencies, 0.9)
    if p90 is None:
        raise ValueError("the workload has too few jobs to name a 90th percentile")
    return {
        "setup_s": median(setups),
        "wall_s": mean([p["wall_s"] for p in passes]),
        "cpu_s": mean([p["cpu_s"] for p in passes]),
        "job_p50_ms": 1e3 * median(latencies),
        "job_p90_ms": 1e3 * p90,
        "peak_rss_mb": mean([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(untraced: List[dict], traced: List[dict], names: List[str]) -> Dict[str, float]:
    out = {name: median([p["layers"][name] for p in traced])
           for name in names if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (mean([p["wall_s"] for p in traced])
                               - mean([p["wall_s"] for p in untraced]))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "wordpack", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/wordpack under {ROOT}; run from a wordpack checkout\n")
        return 2
    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(whys))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = worker_env()
    # compile the package's bytecode once, so no pass pays for it
    subprocess.run([sys.executable, "-c", "import wordpack"], cwd=ROOT, env=env,
                   check=True, timeout=PASS_TIMEOUT_S)

    passes: List[Tuple[bool, dict]] = []
    setups: List[float] = []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.perf_counter()
            result = start_worker(args.workload, args.seed, "trace" if traced else "run",
                                  len(passes), env)
            passes.append((traced, result))
            setups.append(result["setup_s"])
            last = time.perf_counter() - t0
            if len(passes) >= MIN_PASSES and time.perf_counter() - start + last > args.seconds:
                break
        while not args.trace and len(setups) < SETUPS:
            setups.append(start_worker(args.workload, args.seed, "setup", len(setups), env)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    results = [r for _, r in passes]
    attempted = sum(len(r["latencies"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    print("# env " + json.dumps({
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": [round(r["wall_s"], 4) for r in results],
        "setups": len(setups),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": results[0]["versions"]["numpy"],
        "wordpack": results[0]["versions"]["wordpack"],
        "commit": git_commit(),
    }, sort_keys=True))

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer([r for t, r in passes if not t], [r for t, r in passes if t], list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        try:
            values = end_to_end(results, setups)
        except ValueError as exc:
            sys.stderr.write(f"perfbench: {exc}\n")
            return 1
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} jobs attempted)")
    for name, reason in failures[:20]:
        sys.stderr.write(f"perfbench: FAILED {name}: {reason}\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
