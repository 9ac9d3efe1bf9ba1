"""Every name in ``src/orlicz_calc`` is used by the program.

A function, class or constant that only tests reach is not part of what the
library computes: it either goes, or moves into ``tests/`` as an oracle.

Two checks.  Statically, a module-level name counts as used when it is read
as a name, an attribute or an import in ``src/`` (``__init__.py`` aside,
since re-exporting is not using), in ``perfbench/*.py`` or ``tools/*.py``, or
when ``perfbench/layers.py`` wraps it by its attribute string in
``TARGETS``.  The module protocol names
(``__getattr__``, ``__dir__``, ``__all__``) and ``__version__`` are read by
Python and by users, not by this code; what the protocol names of
``__init__.py`` read, such as the table its ``__getattr__`` looks names up
in, is used through them.  Dynamically, every function of ``src/`` (methods
and nested functions included) is called when the program runs: one round of
each perfbench workload at seed 5 and every command of the CLI corpus, as
``tools/line_hits.py --program --calls`` records it.  The few that are not are
listed in ``NEVER_CALLED``, each with the reason it stays.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "orlicz_calc"
PROTOCOL = {"__getattr__", "__dir__", "__all__"}
EXEMPT = {"__version__"} | PROTOCOL


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assigned names."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return out


def _referenced(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def _protocol_reads(tree: ast.Module) -> set[str]:
    """Names read by the module-level definitions of the ``PROTOCOL`` names."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in PROTOCOL:
            out |= _referenced(node)
        elif isinstance(node, ast.Assign) and _defined(ast.Module([node], [])) & PROTOCOL:
            out |= _referenced(node.value)
    return out


def _target_attrs(tree: ast.Module) -> set[str]:
    """The names in the attribute strings of ``Target(metric, owner, attr)``."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Target" and len(node.args) >= 3
                and isinstance(node.args[2], ast.Constant)):
            out |= set(node.args[2].value.split("."))
    return out


def test_every_src_name_is_reached_outside_tests():
    users = [p for p in sorted(PKG.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    users += sorted((ROOT / "tools").glob("*.py"))
    used = set().union(*(_referenced(_parse(p)) for p in users))
    used |= _target_attrs(_parse(ROOT / "perfbench" / "layers.py"))
    used |= _protocol_reads(_parse(PKG / "__init__.py"))
    unused = {f"{p.stem}.{name}"
              for p in sorted(PKG.glob("*.py"))
              for name in _defined(_parse(p)) - used - EXEMPT}
    assert not unused, "reached only from tests: " + ", ".join(sorted(unused))


# the functions of src/ that the program never calls, and why each stays
NEVER_CALLED = {
    "boyd.dilation": "perfbench/layers.py wraps it by name",
    "grid._tail_shape": "reached on near-critical exact log tails; "
                        "tests/test_grid.py::TestTailIntegral covers it",
    "specdsl.SpecParseError.__init__": "raised only on input the runs do not hold",
    "transforms.TransformGateError.__init__": "raised only on input the runs do not hold",
    "__init__.__dir__": "the module protocol: dir(orlicz_calc) calls it",
}


def test_every_function_runs_in_the_program():
    # a fresh process, so that no cache filled by another test hides a call
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "line_hits.py"),
                           "--program", "--calls"],
                          capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    never = set(proc.stdout.split())
    assert never == set(NEVER_CALLED), (
        f"never called, not listed: {sorted(never - set(NEVER_CALLED))}; "
        f"listed, but called: {sorted(set(NEVER_CALLED) - never)}")
