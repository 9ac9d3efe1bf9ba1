"""A/B benchmark of this checkout against a parent commit, in alternating pairs.

    python3 tools/ab.py --parent REF --workload cli-cold --seed 5 --out BENCH_<n>.json

Each side is unpacked with ``git archive REF | tar -x`` into a temporary
directory (plain files, no worktree metadata, no cached bytecode).  The change
is the tracked files of this checkout as they are on disk (``git stash
create``, which moves no ref; ``git add`` new files first).  For each
workload and seed, ``perfbench/run.py --trace 0`` then runs ``PAIRS`` times
on each side at its own default length, one process at a time, the parent
first in even pairs and the change first in odd ones, so that drift in the
machine's speed falls on both sides alike.

The output file holds, per workload, seed and end-to-end metric of
``BENCHMARK.json``: both sides' medians and quartiles, the number of pairs the
change won, and whether the gain is clear (at least 10 pairs, won in at
least 9 of 10, the medians further apart than the parent's quartiles, and no
larger share of failed ops than the parent's); per side the failed and
attempted ops with their share and whether every run was ``correct``; every
run's raw metrics; and the machine (cores, Python, numpy and
``PYTHONDONTWRITEBYTECODE``, which decides whether cold processes compile
every module they import).
``--workload`` and ``--seed`` may be repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# pairs per workload and seed: a gain is claimed on at least 9 wins of 10
PAIRS = 10


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics() -> dict:
    """name -> {unit, better, bound} from ``BENCHMARK.json``."""
    return {m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for m in _benchmark()["end_to_end"]}


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _improves(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(pairs: list, metrics: dict) -> dict:
    """Summary of ``pairs``, each ``{"first": side, "parent": run, "change": run}``
    where a run is the last JSON line of ``perfbench/run.py``."""
    out = {"pairs": len(pairs), "metrics": {}}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        out[side] = {"correct": all(r["correct"] for r in runs), "failed": failed,
                     "attempted": attempted,
                     "failed_share": failed / attempted if attempted else 1.0}
    fails_no_more = out["change"]["failed_share"] <= out["parent"]["failed_share"]
    for name, meta in metrics.items():
        if not all(name in p[side]["metrics"] for p in pairs for side in SIDES):
            continue
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        row = {"unit": meta["unit"], "better": meta["better"], "bound": meta["bound"]}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            row[side] = {"median": med, "q1": q1, "q3": q3}
        row["change_won"] = sum(_improves(c, p, meta["better"])
                                for p, c in zip(values["parent"], values["change"]))
        p_med, c_med = row["parent"]["median"], row["change"]["median"]
        row["relative_change"] = (c_med - p_med) / p_med if p_med else None
        row["clear_gain"] = (len(pairs) >= PAIRS and fails_no_more
                             and 10 * row["change_won"] >= 9 * len(pairs)
                             and _improves(c_med, p_med, meta["better"])
                             and abs(c_med - p_med) > row["parent"]["q3"] - row["parent"]["q1"])
        out["metrics"][name] = row
    return out


def machine() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(ref: str, dest: Path) -> None:
    """The files of commit ``ref``, as ``git archive`` gives them, under ``dest``."""
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run_once(root: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(roots: dict, workload: str, seed: int) -> list:
    pairs = []
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], workload, seed)
            ops = pair[side]["metrics"].get("ops_per_s", {}).get("value")
            print(f"{workload} seed {seed} pair {i + 1}/{PAIRS} {side}: {ops} op/s",
                  file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--workload", action="append", help="repeatable; default: all five")
    p.add_argument("--seed", type=int, action="append", help="repeatable; default: 5")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in _benchmark()["workloads"]]
    seeds = args.seed or [5]
    metrics = end_to_end_metrics()
    refs = {"parent": args.parent, "change": _git("stash", "create") or "HEAD"}
    report = {
        "parent": args.parent,
        "parent_commit": _git("rev-parse", refs["parent"]),
        "change_commit": _git("rev-parse", refs["change"]),
        "settings": {"pairs": PAIRS, "seeds": seeds,
                     "run": "perfbench/run.py --workload W --seed S --trace 0",
                     "order": "parent first in even pairs, change first in odd ones"},
        "machine": machine(),
        "results": [],
    }
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        roots = {side: tmp / side for side in SIDES}
        for side, root in roots.items():
            root.mkdir()
            unpack(refs[side], root)
        for workload in workloads:
            for seed in seeds:
                pairs = run_pairs(roots, workload, seed)
                report["results"].append({"workload": workload, "seed": seed,
                                          **summarize(pairs, metrics), "runs": pairs})
                # written after every block, so that a cut run keeps what it measured
                Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
