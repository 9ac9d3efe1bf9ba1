"""One sha256 per op result of the decide, optimal, witness and probe workloads.

    python3 tools/op_digest.py --out before.json            # write the digests
    python3 tools/op_digest.py --against before.json        # list the ops that moved

Builds each workload of ``perfbench/workloads.py`` at ``--seed`` (default 5),
runs one round of its ops in the seed-shuffled order of ``perfbench/worker.py``
and hashes every result by its bits: floats by their IEEE bytes, arrays by
dtype, shape and bytes, dataclasses field by field.  A ``YoungFn`` is hashed
by its table, its plateau ends, and its monotone view and inverse at 97
points.  An op that raises is hashed by its error message.  With
``--against FILE`` the ops whose digest differs from FILE's are printed, and
the exit code is 1 if any did (2 if the files hold different op names or
seeds).  Stderr also gets the number of ``YoungFn._monotone_eval`` calls the
ops of the round made and the points they passed (the hashing's own reads
are not counted); ``--out`` writes them to its file too, and ``--against``
prints them as "FILE's -> this tree's".  Nothing under ``perfbench/`` is
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from orlicz_calc.grid import GridFn  # noqa: E402
from orlicz_calc.young import YoungFn  # noqa: E402

WORKLOADS = ("decide", "optimal", "witness", "probe")
# where a YoungFn's view and inverse are read
PROBE = np.geomspace(1e-12, 1e12, 97)


def _feed(h, x) -> None:
    """Add x to the hash h by type tag and bits."""
    if isinstance(x, np.generic):
        x = x.item()
    if x is None:
        h.update(b"N")
    elif isinstance(x, bool):
        h.update(b"T" if x else b"F")
    elif isinstance(x, int):
        h.update(b"i" + str(x).encode() + b";")
    elif isinstance(x, float):
        h.update(b"f" + struct.pack("<d", x))
    elif isinstance(x, str):
        h.update(b"s" + str(len(x)).encode() + b":" + x.encode())
    elif isinstance(x, np.ndarray):
        a = np.ascontiguousarray(x)
        h.update(f"a{a.dtype.str}{a.shape}".encode() + a.tobytes())
    elif isinstance(x, (tuple, list)):
        h.update(b"l" + str(len(x)).encode() + b":")
        for item in x:
            _feed(h, item)
    elif isinstance(x, dict):
        h.update(b"d" + str(len(x)).encode() + b":")
        for key in sorted(x, key=repr):
            _feed(h, key)
            _feed(h, x[key])
    elif isinstance(x, YoungFn):
        h.update(b"Y")
        with np.errstate(all="ignore"):
            view, inverse = x._monotone_eval(PROBE), x.inverse_many(PROBE)
        for part in (x.table, x.zero_plateau_end, x.finite_sup, view, inverse):
            _feed(h, part)
    elif isinstance(x, GridFn):
        h.update(b"G")
        _feed(h, x.t)
        _feed(h, x.y)
    elif dataclasses.is_dataclass(x):
        h.update(b"D" + type(x).__name__.encode() + b":")
        for f in dataclasses.fields(x):
            _feed(h, f.name)
            _feed(h, getattr(x, f.name))
    elif isinstance(x, workloads.OpError):
        h.update(b"E")
        _feed(h, x.message)
    else:
        raise TypeError(f"no digest for {type(x).__name__}")


def digest(x) -> str:
    h = hashlib.sha256()
    _feed(h, x)
    return h.hexdigest()


def op_digests(seed: int, evals: dict | None = None) -> dict[str, str]:
    """op name -> the digest of its result, one round of each workload.

    ``evals``, when given, gets the "calls" and "points" of
    ``YoungFn._monotone_eval`` made inside the ops.
    """
    tally = {"calls": 0, "points": 0}
    view = YoungFn._monotone_eval

    def counted(self, t):
        tally["calls"] += 1
        tally["points"] += np.size(t)
        return view(self, t)

    out = {}
    for name in WORKLOADS:
        plan = workloads.WORKLOADS[name](workloads.Env(seed))
        order = list(plan.ops)
        random.Random(seed).shuffle(order)
        for op in order:
            YoungFn._monotone_eval = counted
            try:
                res = op.call()
            except Exception as exc:  # a raised error is a result too
                res = workloads.OpError(exc)
            finally:
                YoungFn._monotone_eval = view
            out[op.name] = res
    if evals is not None:
        evals.update(tally)
    return {k: digest(v) for k, v in sorted(out.items())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--out", help="write the digests to this JSON file")
    p.add_argument("--against", help="compare with the digests in this JSON file")
    args = p.parse_args(argv)
    evals: dict = {}
    doc = {"seed": args.seed, "digests": op_digests(args.seed, evals), "evals": evals}
    old = json.loads(Path(args.against).read_text()) if args.against else {}
    counts = {k: f"{old['evals'][k]} -> {v}" if "evals" in old else v
              for k, v in evals.items()}
    print(f"_monotone_eval: {counts['calls']} calls on {counts['points']} points "
          "in the ops of the round", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if not args.against:
        if not args.out:
            print(json.dumps(doc, indent=1))
        return 0
    if old["seed"] != doc["seed"] or old["digests"].keys() != doc["digests"].keys():
        print(f"{args.against} holds other ops or another seed", file=sys.stderr)
        return 2
    moved = [k for k, v in doc["digests"].items() if old["digests"][k] != v]
    for name in moved:
        print(name)
    print(f"{len(moved)} of {len(doc['digests'])} op results moved", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
