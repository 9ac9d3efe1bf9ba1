"""List the statements of ``src/orlicz_calc`` that no tier-1 test executes.

    PYTHONPATH=src python3 tools/line_hits.py

Runs the test suite in-process under ``sys.settrace`` (no coverage package
needed) and records every line of ``src/orlicz_calc`` that runs.  A line
counts as a statement when its module's compiled code has bytecode on it;
each module's lines that never ran are printed as ``path:line  source``,
followed by one summary line per module.  Tracing makes the suite a few
times slower (about 5 minutes on 2 cores).
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orlicz_calc"


def statement_lines(path: Path) -> set[int]:
    """The lines of a module that carry bytecode, in every code object."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # the first entry is the RESUME of a function's header (or of the
        # module), which no line event reports
        lines.update(line for _, _, line in list(code.co_lines())[1:] if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    import pytest

    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    summary = []
    for path in sorted(SRC.glob("*.py")):
        todo = statement_lines(path)
        missed = sorted(todo - hits.get(str(path), set()))
        source = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}  {source[line - 1].strip()}")
        summary.append(f"{rel}: {len(missed)} of {len(todo)} statements not run")
    print("\n".join(summary))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
