"""What a cold process loads, and the package API it reaches lazily.

``import orlicz_calc`` loads no submodule, and each CLI command imports only
the numeric modules it runs.  Every name the package exported when its
``__init__`` imported everything still resolves to the same object.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orlicz_calc

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# the modules every command loads: the spec parser and what it builds on
BASE = {"cli", "families", "grid", "specdsl", "young"}

# the subcommands with the modules they add to BASE
COMMANDS = [
    (("conjugate", "Lp(2)"), set()),
    (("boyd", "Zygmund(2,1,2,1)"), {"boyd"}),
    (("bounded", "Zygmund(2,1,2,1)", "Lp(6)"), {"transforms", "reduction"}),
    (("target", "Zygmund(2,1,2,1)"), {"transforms", "boyd", "optimality"}),
    (("domain", "Linf"), {"transforms", "boyd", "optimality"}),
    (("probe", "Lp(2)", "Lp(6)"), {"transforms", "reduction", "oracle"}),
]

_LOADED = """
import sys
from orlicz_calc import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules,
                  "exact": sorted({"decimal", "fractions"} & set(sys.modules)),
                  "modules": sorted(m.split(".", 1)[1] for m in sys.modules
                                    if m.startswith("orlicz_calc."))}),
      file=sys.stderr)
"""


def _cold(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", "import json\n" + code, *argv],
                          capture_output=True, text=True, env=ENV, timeout=120)


@pytest.mark.parametrize("argv,extra", COMMANDS, ids=[a[0] for a, _ in COMMANDS])
def test_each_command_loads_only_its_modules(argv, extra):
    proc = _cold(_LOADED, *argv)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    assert report["modules"] == sorted(BASE | extra)
    # np.unique imports numpy.ma on its first call; the CLI path avoids it
    assert not report["numpy.ma"]


def test_a_command_that_builds_no_hint_loads_no_fractions():
    # Fraction, and the decimal it imports, serve only the closed-form hints
    proc = _cold(_LOADED, "boyd", "Zygmund(2,1,2,1)")
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    assert report["exact"] == []


def test_import_loads_no_submodule():
    proc = _cold("import sys, orlicz_calc\n"
                 "print(json.dumps([m for m in sys.modules if m.startswith('orlicz_calc.')]))")
    assert json.loads(proc.stdout) == []


SUBMODULES = ["boyd", "cli", "families", "grid", "optimality", "oracle", "reduction",
              "specdsl", "transforms", "young"]


def test_each_submodule_is_an_attribute_of_a_cold_import():
    # as when __init__ imported every submodule: orlicz_calc.young.YoungFn works
    # without importing orlicz_calc.young first
    proc = _cold("import sys, orlicz_calc\n"
                 "listed = set(dir(orlicz_calc))\n"
                 "print(json.dumps({m: [m in listed, getattr(orlicz_calc, m)\n"
                 "                      is sys.modules['orlicz_calc.' + m]]\n"
                 "                  for m in sys.argv[1:]}))", *SUBMODULES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {m: [True, True] for m in SUBMODULES}
    assert orlicz_calc.young.YoungFn is orlicz_calc.YoungFn


# -- the package API ---------------------------------------------------------

# every name the package exported before it was lazy, by the module it was
# imported from then
EXPORTS = {
    "boyd": ("BoydEstimate", "boyd_indices", "dilation"),
    "families": ("AsymPiece", "AsymptoticFamily", "exp_type", "l1", "linf", "lp",
                 "power_sqrtlog", "zygmund"),
    "grid": ("DEFAULT_GRID", "GridFn", "GridSpec", "StepFn", "TailFit"),
    "oracle": ("ProbeReport", "TestFunction", "hardy_dual_apply", "maximal_2d",
               "modular_probe", "norm_probe", "rearrangement_bound_check"),
    "optimality": ("DomainResult", "IndeterminateIndexError", "TargetResult",
                   "WitnessResult", "optimal_domain", "optimal_target", "reiterate_domain",
                   "reiterate_range", "witness_improvement"),
    "reduction": ("Verdict", "bounded", "criterion_iii", "criterion_iv"),
    "specdsl": ("SpaceSpec", "SpecParseError", "parse_spec", "render"),
    "transforms": ("TransformGateError", "a_gamma", "a_sup", "b_gamma", "check_acond",
                   "check_bconv", "f_transform", "g_transform", "lower_fractional_integral"),
    "young": ("GammaContext", "IntegralDivergentError", "YoungFn", "conjugate", "dominates",
              "equivalent", "from_callable", "from_family", "luxemburg_norm", "rearrangement"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                         for n in names])
def test_each_export_is_the_object_of_its_module(module, name):
    home = importlib.import_module(f"orlicz_calc.{module}")
    assert getattr(orlicz_calc, name) is getattr(home, name)


def test_dir_and_star_import_list_every_export():
    assert set(NAMES) <= set(dir(orlicz_calc))
    assert sorted(orlicz_calc.__all__) == NAMES
    namespace = {}
    exec("from orlicz_calc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


@pytest.mark.parametrize("name", ["no_such_name", "_HOME_", "Young"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(orlicz_calc, name)
    assert not hasattr(orlicz_calc, name)


def test_readme_quick_start_runs_cold():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    proc = subprocess.run([sys.executable, "-c", block.group(1)], capture_output=True,
                          text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("True ")
