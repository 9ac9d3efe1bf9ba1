"""Benchmark of orlicz-calc: one command, five workloads, checked outputs.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload in turn

Each workload runs in its own fresh Python process (``worker.py``), one
child process at a time, with BLAS threads pinned to one and the checkout's
``src`` first on PYTHONPATH.  ``setup_s`` is the median over several fresh
processes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Raw outputs and trace dumps go to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
WORKLOADS = ("decide", "optimal", "witness", "probe", "cli-cold")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, env: dict) -> dict:
    """Run a child to completion and parse the JSON on its last line."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_probes(workload: str, seed: int, env: dict) -> list:
    """Fresh processes that only import the package and build the inputs.
    The cli-cold worker times its own cold CLI imports instead."""
    if workload == "cli-cold":
        return []
    return [run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                       "--seed", str(seed), "--setup-only"], env)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = child_env()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    samples = [] if trace else setup_probes(workload, seed, env)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        argv += ["--trace-dump", str(stem) + ".trace.json"]
    out = run_child(argv, env)
    metrics = out["metrics"]
    if not trace:
        samples += out["setup_samples_s"]
        metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s"},
                   **metrics}
        out["setup_samples_s"] = samples
    out["metrics"] = metrics
    (Path(str(stem) + ".json")).write_text(json.dumps(out, indent=1))
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "orlicz_calc" / "__init__.py").is_file():
        print(f"no orlicz_calc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for this process and every child: the op and the speed kernel
    # timed around it share it, and nothing migrates mid-op
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                          args.trace)))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace)
            print(workload, json.dumps(results[workload]), flush=True)
        print(json.dumps({"workloads": results}))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
