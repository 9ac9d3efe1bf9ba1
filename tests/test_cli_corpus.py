"""Golden CLI corpus: exit codes and stdout, byte for byte.

The corpus replays the README commands and the ``conftest.py`` family
battery (written in the DSL) through ``cli.main`` in-process and compares
each exit code and stdout text with ``data/cli_corpus.jsonl``.  A change
that is meant to alter CLI output regenerates the file with

    PYTHONPATH=src python tests/test_cli_corpus.py

and says so; any other difference is a regression.
"""

from __future__ import annotations

import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from orlicz_calc import cli

CORPUS = Path(__file__).parent / "data" / "cli_corpus.jsonl"

README_COMMANDS = (
    ("target", "Lp(2)", "--n", "3", "--gamma", "1"),
    ("domain", "Linf", "--n", "3", "--gamma", "1"),
    ("bounded", "L1", "Pow @0 t^1.5 l(t)^-2 @inf t^1.2", "--n", "3", "--gamma", "1"),
    ("boyd", "Zygmund(2,1,2,1)"),
    ("conjugate", "Lp(2)", "--format", "csv"),
    ("probe", "Lp(2)", "Lp(6)", "--n", "3", "--gamma", "1"),
)

# the conftest.py family battery, in the same order
BATTERY = (
    "L1",
    "Lp(1.5)",
    "Lp(2)",
    "Lp(3)",
    "Lp(6)",
    "Linf",
    "Zygmund(2,1,2,1)",
    "Zygmund(2,-1,2,-1)",
    "Zygmund(1.5,-2,1.5,-2)",
    "Zygmund(3,-2,3,-2)",
    "Zygmund(1,-0.5,1,0.5)",
    "ExpType(-1,1)",
    "Pow @0 t^2 exp(-1 sqrtlog) @inf t^2 exp(+1 sqrtlog)",
    "Pow @0 t^2 @inf t^4",
)

CONTEXTS = (("3", "1"), ("1", "0.5"))


def commands() -> list[tuple[str, ...]]:
    out = list(README_COMMANDS)
    for n, gamma in CONTEXTS:
        for command in ("target", "domain", "boyd", "conjugate"):
            out.extend((command, spec, "--n", n, "--gamma", gamma) for spec in BATTERY)
    n, gamma = CONTEXTS[0]
    out.extend(("bounded", a, b, "--n", n, "--gamma", gamma)
               for a, b in itertools.product(BATTERY, BATTERY))
    return out


def run(argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": buf.getvalue()}


def test_cli_output_matches_corpus():
    expected = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert [e["argv"] for e in expected] == [list(c) for c in commands()]
    mismatches = []
    for entry in expected:
        got = run(entry["argv"])
        if got != entry:
            mismatches.append(" ".join(entry["argv"]))
    assert not mismatches, f"{len(mismatches)} commands differ: {mismatches[:10]}"


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w") as fh:
        for argv in commands():
            fh.write(json.dumps(run(argv)) + "\n")
    print(f"wrote {len(commands())} entries to {CORPUS}", file=sys.stderr)
