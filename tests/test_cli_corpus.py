"""Golden CLI corpus: exit codes and stdout, byte for byte.

The corpus replays the README commands, the ``conftest.py`` family
battery (written in the DSL), acceptance test_10's probe pairs, the
critical l(t)-gap pairs, the CSV outputs, the critical l(l(t)) pairs and
the domains of l(l(t)) factors at and below q* through ``cli.main``
in-process and compares each exit code and stdout text with
``data/cli_corpus.jsonl``.  A change
that is meant to alter CLI output regenerates the file with

    PYTHONPATH=src python tests/test_cli_corpus.py

which prints each command that moved (and where) or is new, and says so;
any other difference is a regression.
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

# the two CSV grid outputs of the optimal spaces
CSV_COMMANDS = (
    ("target", "Lp(2)", "--format", "csv"),
    ("domain", "Linf", "--format", "csv"),
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

# l(t) gaps of 0.04 and 0.01 above the optimal target, at one end: false
LOG_GAP_PAIRS = (
    ("Lp(2)", "Zygmund(6,0,6,0.04)"),
    ("Lp(2)", "Zygmund(6,0.04,6,0)"),
    ("Lp(2)", "Zygmund(6,0,6,0.01)"),
    ("Lp(1.5)", "Zygmund(3,0,3,0.04)"),
)

# the critical l(l(t)) level at (3, 1): B's l(t) exponent -1 at q* = 1.5,
# exactly and within rounding; A's l(l(t)) power 0.6 lies below the
# domain's 2/3 at infinity, 0.7 above it
LOGLOG_B = ("Pow @0 t^1.5 l(t)^-2 @inf t^1.5 l(t)^-1",
            "Pow @0 t^1.5 l(t)^-2 @inf t^1.5 l(t)^-0.9999999999995")
LOGLOG_PAIRS = (
    ("Pow @0 t^1 l(t)^-0.5 @inf t^1 ll(t)^0.6", LOGLOG_B[0]),
    ("Pow @0 t^1 l(t)^-0.5 @inf t^1 ll(t)^0.7", LOGLOG_B[0]),
    ("Pow @0 t^1 l(t)^-0.5 @inf t^1 ll(t)^0.6", LOGLOG_B[1]),
)

# l(l(t)) factors at (3, 1): below q* = 1.5 the domain is exactly t at
# infinity, at q* it is t l(t)^(2/3) l(l(t))^(1/3)
LOGLOG_DOMAINS = ("Pow @0 t^2 @inf t^1.2 ll(t)^1", "Pow @0 t^2 @inf t^1.5 ll(t)^0.5")

# acceptance test_10's twelve (A, B, n, gamma), probed with the default family
PROBE_PAIRS = (
    ("Lp(1.3333333333333333)", "Lp(4)", "2", "1"),
    ("Lp(2)", "Lp(6)", "3", "1"),
    ("Lp(1.5)", "Lp(3)", "3", "1"),
    ("Lp(2.5)", "Lp(15)", "3", "1"),
    ("Zygmund(2,1,2,1)", "Zygmund(6,3,6,3)", "3", "1"),
    ("Lp(3)", "Linf", "3", "1"),
    ("L1", "Pow @0 t^2 @inf t^1.2", "3", "1"),
    ("Lp(1.2)", "Lp(6)", "3", "1"),
    ("Lp(2)", "Lp(30)", "3", "1"),
    ("L1", "Lp(1.5)", "3", "1"),
    ("L1", "Lp(3)", "3", "1"),
    ("Lp(1.2)", "Linf", "3", "1"),
)


def commands() -> list[tuple[str, ...]]:
    out = list(README_COMMANDS)
    for n, gamma in CONTEXTS:
        for command in ("target", "domain", "boyd", "conjugate"):
            out.extend((command, spec, "--n", n, "--gamma", gamma) for spec in BATTERY)
    n, gamma = CONTEXTS[0]
    out.extend(("bounded", a, b, "--n", n, "--gamma", gamma)
               for a, b in itertools.product(BATTERY, BATTERY))
    out.extend(("probe", a, b, "--n", n, "--gamma", gamma) for a, b, n, gamma in PROBE_PAIRS)
    out.extend(("bounded", a, b, "--n", "3", "--gamma", "1") for a, b in LOG_GAP_PAIRS)
    out.extend(CSV_COMMANDS)
    out.extend(("domain", b, "--n", "3", "--gamma", "1") for b in LOGLOG_B)
    out.extend(("bounded", a, b, "--n", "3", "--gamma", "1") for a, b in LOGLOG_PAIRS)
    out.extend(("domain", b, "--n", "3", "--gamma", "1") for b in LOGLOG_DOMAINS)
    return out


def run(argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": buf.getvalue()}


def first_difference(got, want, path: str = "") -> str | None:
    """The first JSON path at which two parsed documents differ, else None.

    Leaves compare by their JSON text, so 1 against 1.0 differs and NaN
    matches NaN, as in the byte comparison.
    """
    if isinstance(got, dict) and isinstance(want, dict):
        for key in [*want, *(k for k in got if k not in want)]:
            sub = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                return sub
            found = first_difference(got[key], want[key], sub)
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    return None if json.dumps(got) == json.dumps(want) else (path or "$")


def where_differs(got: dict, want: dict) -> str:
    """Name the first difference of a command's result from its corpus entry:
    the exit code, the first differing JSON path of stdout, or, for output
    that is not JSON, its first differing line."""
    if got["code"] != want["code"]:
        return f"exit code {got['code']} != {want['code']}"
    try:
        path = first_difference(json.loads(got["stdout"]), json.loads(want["stdout"]))
    except ValueError:
        pairs = itertools.zip_longest(got["stdout"].splitlines(),
                                      want["stdout"].splitlines())
        line = next((i for i, (a, b) in enumerate(pairs, 1) if a != b), None)
        path = f"stdout line {line}" if line else None
    return path or "stdout bytes (same JSON values)"


def test_cli_output_matches_corpus():
    expected = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert [e["argv"] for e in expected] == [list(c) for c in commands()]
    mismatches = []
    for entry in expected:
        got = run(entry["argv"])
        if got != entry:
            mismatches.append(f"{' '.join(entry['argv'])} at {where_differs(got, entry)}")
    assert not mismatches, f"{len(mismatches)} commands differ: {mismatches[:10]}"


def main() -> int:
    """Print each command whose entry moves or is new, then rewrite the corpus."""
    old = {}
    if CORPUS.exists():
        old = {json.dumps(e["argv"]): e
               for e in map(json.loads, CORPUS.read_text().splitlines())}
    entries = [run(argv) for argv in commands()]
    for entry in entries:
        was = old.get(json.dumps(entry["argv"]))
        if was != entry:
            where = "new" if was is None else where_differs(entry, was)
            print(f"{' '.join(entry['argv'])}: {where}")
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
