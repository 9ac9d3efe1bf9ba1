"""Run one workload in this (fresh) process and print one JSON line.

    python3 perfbench/worker.py --workload decide --seed 1 --seconds 15 --trace 0
    python3 perfbench/worker.py --workload decide --seed 1 --setup-only

Set-up is timed from before the package import to the end of building the
inputs.  The timed pass then runs whole rounds of the workload's ops, each
round in a seed-shuffled order, until one more round would pass
``--seconds`` (at least one round).  Outputs are checked after each round,
outside the timed pass.  Started by ``run.py``, which pins BLAS threads and
puts the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-dump", help="write the recorded spans to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    import orlicz_calc

    if args.trace or args.workload == "cli-cold":
        import orlicz_calc.cli  # noqa: F401
    if Path(orlicz_calc.__file__).resolve().parent != ROOT / "src" / "orlicz_calc":
        print(f"orlicz_calc was imported from {orlicz_calc.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    import layers
    import speed
    import workloads
    from tracer import Tracer

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(layers.TARGETS)
    env = workloads.Env(args.seed, tracer)
    child_env = dict(os.environ)

    def make_plan():
        if args.workload == "cli-cold":
            return build(env, child_env)
        return build(env)

    plan = make_plan()
    setup_s = time.perf_counter() - start
    setup_s *= speed.K_REF_S / speed.burst(0.1)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "cli-cold":
        # set-up of a CLI user: a cold process that only imports the CLI
        setup_samples = [] if tracer else [
            workloads.cold_process_s("import orlicz_calc.cli", child_env)
            for _ in range(7)]
    else:
        setup_samples = [setup_s]

    rng = random.Random(args.seed)
    op_times: dict[str, list[float]] = {}
    failures: dict[str, str] = {}
    unexpected: dict[str, str] = {}
    layer_sum: dict[str, float] = {}
    outcomes: dict[str, float] = {}
    reuse_distinct = 0
    attempted = failed = rounds = 0
    timed = 0.0
    while True:
        order = list(plan.ops)
        rng.shuffle(order)
        if tracer is not None:
            tracer.reset()
        results = {}
        durations = []
        kernels = [speed.burst(speed.FIRST_BURST_S)]
        for op in order:
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # counted as a failed op, never fatal
                res = workloads.OpError(exc)
            durations.append(time.perf_counter() - t0)
            results[op.name] = res
            kernels.append(speed.burst(speed.BURST_SHARE * durations[-1]))
        for op, scaled in zip(order, speed.normalise(durations, kernels)):
            op_times.setdefault(op.name, []).append(scaled)
        timed += sum(durations)
        rounds += 1
        if tracer is not None:
            for key, value in {**tracer.metrics(), **tracer.extra}.items():
                layer_sum[key] = layer_sum.get(key, 0.0) + value
            reuse_distinct += len(tracer.seen.get("a_gamma", ()))
        for name, msg in plan.check(results).items():
            attempted += 1
            if msg:
                failed += 1
                failures[name] = msg
                if name not in workloads.KNOWN_FAULTS:
                    unexpected[name] = msg
        if plan.outcomes is not None:
            outcomes = plan.outcomes(results)
        if timed + timed / rounds > args.seconds:
            break
        plan = make_plan()

    all_times = [t for ts in op_times.values() for t in ts]
    scaled_s = sum(all_times)
    if args.workload == "cli-cold" and tracer is None:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is None:
        metrics = {
            "ops_per_s": (attempted / scaled_s, "op/s"),
            "op_ms_p50": (1e3 * statistics.median(all_times), "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        tracer.uninstall()
        per_round = {k: v / rounds for k, v in layer_sum.items()}
        calls = per_round.get("transforms.a_gamma.calls", 0.0)
        per_round["transforms.a_gamma.reuse_ratio"] = (
            reuse_distinct / rounds / calls if calls else 0.0)
        per_round.update(outcomes)
        per_round["trace.ops_per_s"] = attempted / scaled_s
        if args.workload == "cli-cold":
            per_round["process.python_ms"] = 1e3 * workloads.median_cold_process_s(
                "pass", child_env)
            per_round["process.numpy_import_ms"] = 1e3 * workloads.median_cold_process_s(
                "import numpy", child_env)
        metrics = {name: (float(per_round.get(name, 0.0)), unit)
                   for name, (unit, _) in layers.per_layer_metrics().items()}
        if args.trace_dump:
            Path(args.trace_dump).write_text(json.dumps(tracer.dump()))

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": setup_samples,
        "rounds": rounds,
        "timed_s": timed,
        "failures": failures,
        "unexpected_failures": unexpected,
        "op_ms": {k: [1e3 * t for t in ts] for k, ts in op_times.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
