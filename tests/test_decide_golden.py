"""Golden ``bounded`` verdicts, compared bit for bit.

Every ``reduction.bounded`` call of the 14x14 family battery of
``conftest.py``, closed form and callable, at (n, gamma) = (3, 1) and
(1, 0.5): 784 verdicts.  Each line of ``data/decide_golden.jsonl`` holds the
verdict's ``holds``, criterion and flags, and its constant and worst_t as
``float.hex`` strings.  A change to a transform, a criterion or the constant
ladder shows here as every bit it moves.  A change that is meant to alter
verdicts regenerates the file with

    PYTHONPATH=src python tests/test_decide_golden.py

which prints each moved key with its old and new ``holds`` and flags, and
says so; any other difference is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from orlicz_calc import reduction, young
from orlicz_calc.young import GammaContext

from conftest import battery

GOLDEN = Path(__file__).parent / "data" / "decide_golden.jsonl"
CONTEXTS = ((3, 1.0), (1, 0.5))
FORMS = ("closed", "callable")


def _record(v: reduction.Verdict) -> dict:
    return dict(holds=v.holds, criterion=v.criterion_used, flags=list(v.flags),
                constant=float.hex(v.constant), worst_t=float.hex(v.worst_t))


def verdicts(form: str, n: int, gamma: float):
    """(key, record) of every battery pair in one form and context, on fresh
    instances, in battery order."""
    fams = battery()
    ctx = GammaContext(n, gamma)
    if form == "closed":
        ys = {k: young.from_family(f, label=k) for k, f in fams.items()}
    else:
        ys = {k: young.from_callable(f.value, label=k) for k, f in fams.items()}
    for a in fams:
        for b in fams:
            key = f"{form}@{n},{gamma:g}:{a}->{b}"
            yield key, _record(reduction.bounded(ys[a], ys[b], ctx))


def _golden() -> dict:
    with GOLDEN.open() as fh:
        rows = [json.loads(line) for line in fh]
    return {row.pop("key"): row for row in rows}


@pytest.mark.parametrize("n,gamma", CONTEXTS, ids=lambda x: f"{x:g}")
@pytest.mark.parametrize("form", FORMS)
def test_decide_golden(form, n, gamma):
    golden = _golden()
    got = dict(verdicts(form, n, gamma))
    assert len(got) == 14 * 14
    diff = [k for k in got if got[k] != golden[k]]
    assert not diff, f"{len(diff)} verdicts moved, first {diff[0]}: " \
                     f"{got[diff[0]]} against {golden[diff[0]]}"


def main() -> int:
    """Print each key whose verdict moves, with its old and new ``holds`` and
    flags, then rewrite the golden file."""
    old = _golden() if GOLDEN.exists() else {}
    rows = [(key, rec) for form in FORMS for n, gamma in CONTEXTS
            for key, rec in verdicts(form, n, gamma)]
    for key, rec in rows:
        was = old.get(key)
        if was is None:
            print(f"{key}: new, holds {rec['holds']} {rec['flags']}")
        elif was != rec:
            print(f"{key}: holds {was['holds']} -> {rec['holds']}, "
                  f"flags {was['flags']} -> {rec['flags']}")
    with GOLDEN.open("w") as fh:
        for key, rec in rows:
            fh.write(json.dumps(dict(key=key, **rec)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
