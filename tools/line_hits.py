"""List the statements of ``src/orlicz_calc`` that a run never executes.

    PYTHONPATH=src python3 tools/line_hits.py              # the tier-1 tests
    PYTHONPATH=src python3 tools/line_hits.py --program    # the program

By default the run is the test suite, in-process.  With ``--program`` it is
the program itself: one round of each perfbench workload at seed 5 through
``tools/op_digest.op_digests`` (which writes nothing under ``perfbench/``),
then every command of ``tests/data/cli_corpus.jsonl`` through ``cli.main``.
The run goes under ``sys.settrace`` (no coverage package needed), which
records every line of ``src/orlicz_calc`` that runs.  A line counts as a
statement when its module's compiled code has bytecode on it.  Each module's
lines that never ran are printed as ``path:line  source``, then each named
function that was never called (outermost only) as
``path:line  never called: qualname``, then one summary line per module.
Tracing makes a run a few times slower (the suite takes about 5 minutes on
2 cores).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orlicz_calc"
CORPUS = ROOT / "tests" / "data" / "cli_corpus.jsonl"


def _module_code(path: Path) -> types.CodeType:
    return compile(path.read_text(), str(path), "exec")


def statement_lines(path: Path) -> set[int]:
    """The lines of a module that carry bytecode, in every code object."""
    lines: set[int] = set()
    stack = [_module_code(path)]
    while stack:
        code = stack.pop()
        # the first entry is the RESUME of a function's header (or of the
        # module), which no line event reports
        lines.update(line for _, _, line in list(code.co_lines())[1:] if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def uncalled(path: Path, called: set[int]) -> list[tuple[int, str]]:
    """(line, qualified name) of each named function of a module whose first
    line is not in ``called``, leaving out the functions nested in those."""
    out = []
    stack = [_module_code(path)]
    while stack:
        for code in stack.pop().co_consts:
            if not isinstance(code, types.CodeType):
                continue
            if code.co_firstlineno in called:
                stack.append(code)
            elif not code.co_name.startswith("<"):
                out.append((code.co_firstlineno, code.co_qualname))
    return sorted(out)


def run_tests() -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))


def run_program() -> int:
    """One round of each perfbench workload, then the CLI corpus' commands."""
    import op_digest  # next to this file
    from orlicz_calc import cli

    op_digest.op_digests(5)
    for line in CORPUS.read_text().splitlines():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(json.loads(line)["argv"])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", action="store_true",
                        help="trace the workloads and the CLI corpus, not the tests")
    args = parser.parse_args(argv)

    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = {}
    calls: dict[str, set[int]] = {}  # the first lines of the code that ran

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        calls.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = run_program() if args.program else run_tests()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    listed, summary = [], []
    for path in sorted(SRC.glob("*.py")):
        todo = statement_lines(path)
        missed = sorted(todo - hits.get(str(path), set()))
        source = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}  {source[line - 1].strip()}")
        listed += [f"{rel}:{line}  never called: {name}"
                   for line, name in uncalled(path, calls.get(str(path), set()))]
        summary.append(f"{rel}: {len(missed)} of {len(todo)} statements not run")
    print("\n".join(listed + summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
