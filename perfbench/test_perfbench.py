"""Tests of the benchmark itself: the reference rules, the checks, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import orlicz_calc  # noqa: E402
import orlicz_calc.cli  # noqa: E402,F401
from orlicz_calc import families as fam  # noqa: E402
from orlicz_calc import boyd, grid, optimality, oracle, reduction, transforms, young  # noqa: E402
from orlicz_calc.grid import StepFn  # noqa: E402

import layers  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- reference rules ----------------------------------------------------------


@pytest.mark.parametrize("n, gamma, p", [(3, 1.0, 2.0), (3, 1.0, 1.5), (2, 1.0, 4 / 3),
                                         (1, 0.5, 1.5)])
def test_rule_gives_the_sobolev_exponent(n, gamma, p):
    q = n * p / (n - gamma * p)
    assert ref.bounded_rule(fam.lp(p), fam.lp(q), n, gamma) is None
    assert ref.classical_rule(fam.lp(p), fam.lp(q), n, gamma) is True
    for other in (q * 0.9, q * 1.1):
        assert ref.bounded_rule(fam.lp(p), fam.lp(other), n, gamma) is False


def test_rule_gives_linf_from_the_critical_space():
    assert ref.bounded_rule(fam.lp(3), fam.linf(), 3, 1.0) is True
    assert ref.bounded_rule(fam.lp(2.99), fam.linf(), 3, 1.0) is False
    assert ref.bounded_rule(fam.lp(2), fam.linf(), 1, 0.5) is True


def test_rule_applies_the_l1_integral_test():
    # int_0^inf B(s) s^(-q*-1) ds with q* = 3/2
    assert ref.bounded_rule(fam.l1(), wl.mixed(2.0, 1.2), 3, 1.0) is True
    assert ref.bounded_rule(fam.l1(), wl.mixed(1.5, 1.2, a0=-2.0), 3, 1.0) is True
    assert ref.bounded_rule(fam.l1(), wl.mixed(1.5, 1.2, a0=-1.0), 3, 1.0) is False
    assert ref.bounded_rule(fam.l1(), fam.lp(1.5), 3, 1.0) is False
    assert ref.bounded_rule(fam.l1(), fam.lp(3), 3, 1.0) is False


def test_dichotomies_from_exponents():
    assert ref.target_kind_rule(fam.lp(2), 3, 1.0) == "optimal"
    assert ref.target_kind_rule(fam.zygmund(1, -0.5, 1, 0.5), 3, 1.0) == "no-optimal-exists"
    assert ref.target_kind_rule(fam.lp(6), 3, 1.0) == "no-target-exists"
    assert ref.domain_kind_rule(fam.zygmund(1.5, -2, 1.5, -2), 3, 1.0) == "optimal"
    assert ref.domain_kind_rule(fam.lp(1.5), 3, 1.0) == "no-domain-exists"


def test_probe_pairs_all_have_a_classical_answer():
    expected = [True] * 7 + [False] * 5  # test_10's expectations
    got = [ref.classical_rule(af, bf, ctx.n, ctx.gamma)
           for ctx, _, af, _, bf in wl.probe_pairs()]
    assert got == expected


def test_evaluate_matches_the_closed_forms():
    t = np.geomspace(1e-8, 1e8, 33)
    for family in wl.battery().values():
        assert np.allclose(ref.evaluate(family, t), family.value(t), rtol=1e-10)


def test_exhaustive_maximal_matches_single_cell():
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    out = ref.maximal_2d_exhaustive(f, 1.0)
    assert out[1, 1] == 1.0
    assert math.isclose(out[0, 0], 2.0 ** -1.0)  # the 2x2 square holding both


# -- checks reject wrong outputs ----------------------------------------------


def _verdict(holds):
    return reduction.Verdict(holds, 1.0, "iii", 1.0)


def test_decide_check_rejects_wrong_verdicts():
    plan = wl.decide(wl.Env(0))
    fams = wl.battery()
    results = {}
    for op in plan.ops:
        m = op.meta
        rule = ref.bounded_rule(fams[m["a"]], fams[m["b"]], m["n"], m["g"])
        results[op.name] = _verdict(True if rule is None else rule)
    assert not any(plan.check(results).values())
    wrong = "decide:closed@3,1:t^2->t^3"  # t^3 is not t^6: unbounded
    results[wrong] = _verdict(True)
    twin = "decide:callable@3,1:t^2->t^6"  # borderline: only the pair check sees it
    results[twin] = _verdict(False)
    fails = plan.check(results)
    assert "exponent rule" in fails[wrong]
    assert "closed form gives True" in fails[twin]
    assert sum(1 for v in fails.values() if v) == 3  # the callable twin of `wrong` too


@pytest.fixture(scope="module")
def optimal_plan():
    return wl.optimal(wl.Env(0))


def test_optimal_check_rejects_wrong_kind_conjugate_and_formula(optimal_plan):
    ops = {op.name: op for op in optimal_plan.ops}
    picks = ["optimal:closed@3,1:t^2/target", "optimal:closed:t^2/conjugate",
             "optimal:closed:table/a_gamma(zyg(2,0))"]
    results = {name: wl.OpError(ValueError("not run")) for name in ops}
    for name in picks:
        results[name] = ops[name].call()
    assert not any(optimal_plan.check(results)[name] for name in picks)
    results[picks[0]] = optimality.TargetResult("no-optimal-exists", None, 6.0, 1.5)
    results[picks[1]] = young.from_family(fam.lp(3))  # the conjugate of t^2 is t^2/4
    results[picks[2]] = young.from_family(fam.lp(3))
    fails = optimal_plan.check(results)
    assert "dichotomy optimal" in fails[picks[0]]
    assert "outside [1, 2]" in fails[picks[1]]
    assert "exceeds log 16" in fails[picks[2]]


def test_witness_check_rejects_too_few_rungs():
    plan = wl.witness(wl.Env(0))
    fake = SimpleNamespace(t_rungs=(1e-3, 1e-6), tau_rungs=(1e-2, 1e-5),
                           selection_ratios=(20.0, 40.0), domination_ratios=(10.0, 20.0),
                           bound_margin=0.5, flags=(), young=young.from_family(fam.lp(2)))
    fails = plan.check({op.name: fake for op in plan.ops})
    assert all("needs 3" in msg for msg in fails.values())


def test_probe_check_rejects_wrong_outputs():
    plan = wl.probe(wl.Env(3))
    results = {}
    for op in plan.ops:
        kind = op.meta["kind"]
        if kind == "norm":
            results[op.name] = SimpleNamespace(
                trend="bounded" if not op.meta["expected"] else "diverging")
        elif kind == "indicator":
            results[op.name] = [1.0, 1.0, 1.0]
        elif kind == "rearrangement":
            results[op.name] = SimpleNamespace(c1=math.nan)
        elif kind == "modular":
            results[op.name] = not op.meta["expected"]
        else:
            results[op.name] = ref.maximal_2d_exhaustive(op.meta["f"], 1.0) * 1.01
    fails = plan.check(results)
    assert all(fails.values()), [k for k, v in fails.items() if not v]


def test_cli_expectations_reject_wrong_answers():
    good = {"target": {"kind": "optimal", "i_Agamma": 6.0, "target": "~ t^6"},
            "domain": {"kind": "optimal", "domain": "~ t^3"},
            "bounded": {"holds": True},
            "boyd": {"i_lower": 2.0, "I_upper": 2.0},
            "conjugate": {"conjugate": "~ t^2"}}
    bad = {"target": {"kind": "optimal", "i_Agamma": 5.0, "target": "~ t^5"},
           "domain": {"kind": "optimal", "domain": "~ t^2"},
           "bounded": {"holds": False},
           "boyd": {"i_lower": 2.0, "I_upper": 3.0},
           "conjugate": {"conjugate": "~ t^3"}}
    for name in wl.CLI_COMMANDS:
        assert not list(wl.cli_expectations(name, good[name])), name
        assert list(wl.cli_expectations(name, bad[name])), name


def test_known_faults_name_real_ops():
    names = set()
    for name, build in wl.WORKLOADS.items():
        plan = build(wl.Env(0), {}) if name == "cli-cold" else build(wl.Env(0))
        names |= {op.name for op in plan.ops}
    assert set(wl.KNOWN_FAULTS) <= names


# -- tracer -------------------------------------------------------------------


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install(layers.TARGETS)
    yield tr
    tr.uninstall()


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "orlicz_calc" or name.startswith("orlicz_calc.")]


def test_wrappers_cover_every_binding(tracer):
    for holder in (oracle, young, transforms, optimality, boyd, orlicz_calc):
        for attr in ("luxemburg_norm", "boyd_indices", "grid_inverse", "a_gamma"):
            if hasattr(holder, attr):
                assert hasattr(getattr(holder, attr), "__wrapped_by_tracer__"), (holder, attr)
    assert hasattr(orlicz_calc.cli.parse_spec, "__wrapped_by_tracer__")
    originals = {id(v.__wrapped_by_tracer__) for m in _package_modules()
                 for v in vars(m).values() if hasattr(v, "__wrapped_by_tracer__")}
    for module in _package_modules():
        for attr, value in vars(module).items():
            assert id(value) not in originals, f"{module.__name__}.{attr} is not wrapped"


def test_uninstall_restores_originals():
    before = {(m.__name__, a): v for m in _package_modules() for a, v in vars(m).items()}
    methods = (fam.AsymptoticFamily.__dict__["value"], grid.GridFn.__dict__["__call__"],
               young.YoungFn.__dict__["inverse_many"])
    tr = Tracer()
    tr.install(layers.TARGETS)
    assert fam.AsymptoticFamily.__dict__["value"] is not methods[0]
    tr.uninstall()
    after = {(m.__name__, a): v for m in _package_modules() for a, v in vars(m).items()}
    assert all(after[k] is v for k, v in before.items())
    assert (fam.AsymptoticFamily.__dict__["value"], grid.GridFn.__dict__["__call__"],
            young.YoungFn.__dict__["inverse_many"]) == methods


def test_wrappers_count_a_known_call_exactly(tracer):
    A = young.from_family(fam.lp(2))
    tracer.reset()
    fam.lp(3).value(np.ones(7))
    m = tracer.metrics()
    assert m["families.value.calls"] == 1 and m["families.value.points"] == 7
    tracer.reset()
    young.luxemburg_norm(A, StepFn(np.array([1.0]), np.array([1.0])))
    assert tracer.metrics()["young.luxemburg_norm.calls"] == 1
    tracer.reset()
    reduction.bounded(A, young.from_family(fam.lp(6)), young.GammaContext(3, 1.0))
    m = tracer.metrics()
    assert m["reduction.criterion_iii.calls"] == 1
    assert m["reduction.criterion_iv.calls"] == 1
    assert m["transforms.a_gamma.calls"] == 1
    assert m["reduction.criterion_iii.self_ms"] > 0
    assert tracer.extra["reduction.ladder_steps"] >= 2


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
