"""Every module-level name in ``src/orlicz_calc`` is used by the program.

A function, class or constant that only tests reach is not part of what the
library computes: it either goes, or moves into ``tests/`` as an oracle.  A
name counts as used when it is read as a name, an attribute or an import in
``src/`` (``__init__.py`` aside, since re-exporting is not using), in
``perfbench/*.py`` or ``tools/*.py``, or when ``perfbench/layers.py`` wraps it
by its attribute string in ``TARGETS``.  The module protocol names
(``__getattr__``, ``__dir__``, ``__all__``) and ``__version__`` are read by
Python and by users, not by this code; what the protocol names of
``__init__.py`` read, such as the table its ``__getattr__`` looks names up
in, is used through them.
"""

import ast
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
