"""Acceptance suite: one checkable criterion per test, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Everything is property-based or closed-form reproduction at desk scale; the
tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from orlicz_calc import boyd, families as fam, optimality as op, oracle as orc
from orlicz_calc import reduction as red, transforms as tr, young
from orlicz_calc.young import GammaContext

import paper_oracles as oracles
from conftest import bisect_inverse, make

CTX = GammaContext(3, 1.0)
CTX2 = GammaContext(2, 1.0)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def mixed(p0, pinf, a0=0.0, ainf=0.0):
    return fam.AsymptoticFamily(
        fam.piece(fam.PowerFactor(p0), fam.LogFactor(a0)),
        fam.piece(fam.PowerFactor(pinf), fam.LogFactor(ainf)))


def test_01_zygmund_target_table():
    ok = True
    t = np.geomspace(1e-10, 1e10, 161)
    for p in (1.5, 2.0, 2.5):
        for alpha in (-1.0, 0.0, 1.0):
            A = make(fam.zygmund(p, alpha, p, alpha))
            AG = tr.a_gamma(A, CTX)
            qp = 3 * p / (3 - p)
            ap = 3 * alpha / (3 - p)
            T = make(fam.zygmund(qp, ap, qp, ap))
            ratio = AG.inverse_many(t) / T.inverse_many(t)
            ok &= bool(np.nanmax(ratio) <= 16.0 and np.nanmin(ratio) >= 1 / 16.0)
    report(1, "Zygmund target table", ok)


def test_02_exponential_borderline():
    A = make(fam.zygmund(2, 0, 3, -2))
    AG = tr.a_gamma(A, CTX)
    # compare against exp(t^(3/2)) in log scale on the data-backed window:
    # the running supremum construction only reaches the value attained at
    # the top of the grid, so the comparison stops below that ceiling
    ceiling = tr.g_transform(A, CTX).y[-1]
    t = np.geomspace(2.0, 0.8 * ceiling, 60)
    vals = np.asarray(AG.eval(t), dtype=float)
    sel = np.isfinite(vals) & (vals > math.e)
    ok = sel.sum() > 20
    if ok:
        tt, logv = t[sel], np.log(vals[sel])
        # smallest dilation c with (t/c)^1.5 <= log AG(t) <= (c t)^1.5
        c_req = np.maximum(logv ** (2.0 / 3.0) / tt, tt / logv ** (2.0 / 3.0))
        ok = bool(np.max(c_req) <= 16.0)
    report(2, "exponential borderline target", ok)


def test_03_zygmund_domain_table():
    B = make(fam.zygmund(3, 1, 3, 1))
    BG = tr.b_gamma(B, CTX)
    T = make(fam.zygmund(1.5, 0.5, 1.5, 0.5))
    v = young.equivalent(BG, T)
    ok = v.holds and max(v.constant_ab, v.constant_ba) <= 16.0

    Bc = make(mixed(2.0, 1.5))
    BGc = tr.b_gamma(Bc, CTX)
    t = np.geomspace(1e2, 1e10, 81)
    target = t * (1.0 + np.log(t)) ** (2.0 / 3.0)
    ratio = np.asarray(BGc.eval(t), dtype=float) / target
    ok &= bool(np.nanmax(ratio) <= 16.0 and np.nanmin(ratio) >= 1 / 16.0)
    report(3, "Zygmund domain table", ok)


def test_04_endpoint_corollary():
    ok = red.bounded(make(fam.lp(3)), make(fam.linf()), CTX).holds
    ok &= not red.bounded(make(fam.lp(2.99)), make(fam.linf()), CTX).holds
    l1 = make(fam.l1())
    fixtures = [
        mixed(2.0, 1.2),
        fam.lp(1.5),
        fam.zygmund(1.5, -2, 1.2, 0),
        fam.lp(3),
        fam.linf(),
        mixed(1.7, 1.3),
    ]
    for bfam in fixtures:
        B = make(bfam)
        ok &= (oracles.endpoint_l1_domain(B, CTX)
               == red.bounded(l1, B, CTX).holds)
    report(4, "endpoint corollary", ok)


def battery_20():
    pairs = []

    def add(name, a, b):
        pairs.append((name, make(a), make(b)))

    add("lebesgue-opt", fam.lp(2), fam.lp(6))
    add("lebesgue-too-small", fam.lp(2), fam.lp(8))
    add("lebesgue-wrong-way", fam.lp(2), fam.lp(4))
    add("zygmund-opt", fam.zygmund(2, 1, 2, 1), fam.zygmund(6, 3, 6, 3))
    add("zygmund-larger", fam.zygmund(2, 1, 2, 1), fam.lp(6))
    add("zygmund-too-small", fam.zygmund(2, 1, 2, 1), fam.zygmund(6, 4, 6, 4))
    add("p15-opt", fam.zygmund(1.5, 0, 1.5, 0), fam.lp(3))
    add("p15-log", fam.zygmund(1.5, 1, 1.5, 1), fam.zygmund(3, 2, 3, 2))
    add("p25-opt", fam.lp(2.5), fam.lp(15))
    add("linf-endpoint", fam.lp(3), fam.linf())
    add("linf-narrow-miss", fam.lp(2.99), fam.linf())
    add("l1-endpoint", fam.l1(), mixed(2.0, 1.2))
    add("l1-critical-log", fam.l1(), fam.zygmund(1.5, -2, 1.2, 0))
    add("exp-borderline", fam.zygmund(3, 1, 3, -2),
        fam.AsymptoticFamily(fam.piece(fam.ExpPowerFactor(-1.0, -3.0)),
                             fam.piece(fam.ExpPowerFactor(1.0, 1.5))))
    add("sqrtlog-opt", fam.power_sqrtlog(2, -1, 2, 1),
        fam.AsymptoticFamily(
            fam.piece(fam.PowerFactor(6.0), fam.ExpLogFactor(-3.0 ** 1.5, 0.5)),
            fam.piece(fam.PowerFactor(6.0), fam.ExpLogFactor(3.0 ** 1.5, 0.5))))
    add("mixed-order", mixed(2.0, 4.0), mixed(6.0, 3.0))
    add("mixed-fail", mixed(2.0, 4.0), fam.lp(6))
    add("domain-improved", mixed(2.0, 1.4), mixed(6.0, 1.4 * 3 / (3 - 1.4)))
    add("exp-domain", fam.exp_type(-1, 1), fam.linf())
    add("too-big-target", fam.lp(3), fam.lp(2))
    return pairs


def test_05_criterion_agreement():
    pairs = battery_20()
    agree = 0
    for name, A, B in pairs:
        v3 = red.criterion_iii(A, B, CTX)
        v4 = red.criterion_iv(A, B, CTX)
        agree += int(v3.holds == v4.holds)
    ok = agree == 20
    report(5, f"criterion agreement ({agree}/20)", ok)


def test_06_target_minimality():
    A = make(fam.lp(2))
    result = op.optimal_target(A, CTX)
    ok = result.kind == "optimal"
    target = result.target
    ok &= red.bounded(A, target, CTX).holds
    candidates = [fam.lp(6), fam.zygmund(6, -1, 6, -1), fam.lp(5.5),
                  fam.zygmund(6, 1, 6, 1), fam.lp(7),
                  fam.AsymptoticFamily(fam.piece(fam.PowerFactor(6)),
                                       fam.piece(fam.PowerFactor(5))),
                  fam.zygmund(6, -3, 6, -3), fam.lp(4.5)]
    for bfam in candidates:
        B = make(bfam)
        if red.bounded(A, B, CTX).holds:
            ok &= young.dominates(target, B).holds
    report(6, "target minimality", ok)


def test_07_nonexistence_and_witness():
    A = make(fam.zygmund(1, 0, 1, 0))
    result = op.optimal_target(A, CTX)
    ok = result.kind == "no-optimal-exists"

    B = make(fam.AsymptoticFamily(
        fam.piece(fam.PowerFactor(1.5), fam.LogFactor(-2)),
        fam.piece(fam.PowerFactor(1.2))))
    ok &= red.bounded(A, B, CTX).holds
    D = tr.a_gamma(A, CTX)
    w = op.witness_improvement(B, D, CTX)
    ok &= len(w.t_rungs) >= 2
    # the enlargement evidence: selection ratios clear the k-indexed floor,
    # so the chord inflation grows without bound along the construction
    ok &= all(r >= 10.0 * (k + 1) for k, r in enumerate(w.selection_ratios))
    ok &= all(r >= 5.0 * (k + 1) for k, r in enumerate(w.domination_ratios))
    ok &= w.bound_margin <= 1.0 + 1e-6
    # the enlarged profile is still an admissible target for the domain
    ok &= red.criterion_iii(A, w.young, CTX).holds
    # the modification grows strictly somewhere inside every chord
    probe = np.array(w.tau_rungs) / 2.0
    gain = np.asarray(w.young._monotone_eval(probe)) / np.asarray(
        B._monotone_eval(probe))
    ok &= bool(np.all(gain > 1.25))
    report(7, "non-existence branch and witness", ok)


def test_08_reiteration():
    rr = op.reiterate_range(make(fam.lp(3)), CTX)
    ok = rr.target_optimal and rr.roundtrip_equivalent
    rr = op.reiterate_range(make(fam.lp(1.5)), CTX)
    ok &= (not rr.roundtrip_equivalent) and ("bconv-failed" in rr.flags)

    fixtures = [mixed(2.0, 4.0), fam.lp(2), fam.zygmund(2, 1, 2, 1),
                mixed(1.5, 5.0), fam.zygmund(2.5, -1, 2.5, -1)]
    for family in fixtures:
        A = make(family)
        AS = tr.a_sup(A, CTX)
        i_sup = boyd.boyd_indices(AS).i_lower
        i_asg = boyd.boyd_indices(tr.a_gamma(AS, CTX)).i_lower
        ok &= math.isclose(1.0 / i_asg + CTX.s_star, 1.0 / i_sup, rel_tol=0.02)
    report(8, "reiteration dichotomy and index relation", ok)


def test_09_boyd_indices():
    ok = True
    for p in (1.2, 2.0, 5.0):
        est = boyd.boyd_indices(make(fam.lp(p)), force_numeric=True)
        ok &= abs(est.i_lower - p) / p <= 0.01
        ok &= abs(est.I_upper - p) / p <= 0.01
    for alpha in (-1.0, 1.0):
        est = boyd.boyd_indices(make(fam.zygmund(2, alpha, 2, alpha)),
                                force_numeric=True)
        ok &= abs(est.i_lower - 2.0) / 2.0 <= 0.02
        ok &= abs(est.I_upper - 2.0) / 2.0 <= 0.02
    report(9, "Boyd index accuracy", ok)


def test_10_oracle_consistency():
    indicator = [orc.TestFunction("indicator")]
    pairs = [
        (CTX2, fam.lp(4.0 / 3.0), fam.lp(4), True),
        (CTX, fam.lp(2), fam.lp(6), True),
        (CTX, fam.lp(1.5), fam.lp(3), True),
        (CTX, fam.lp(2.5), fam.lp(15), True),
        (CTX, fam.zygmund(2, 1, 2, 1), fam.zygmund(6, 3, 6, 3), True),
        (CTX, fam.lp(3), fam.linf(), True),
        (CTX, fam.l1(), mixed(2.0, 1.2), True),
        (CTX, fam.lp(1.2), fam.lp(6), False),  # deliberately-too-small target
        (CTX, fam.lp(2), fam.lp(30), False),
        (CTX, fam.l1(), fam.lp(1.5), False),
        (CTX, fam.l1(), fam.lp(3), False),
        (CTX, fam.lp(1.2), fam.linf(), False),
    ]
    ok = True
    for ctx, afam, bfam, expected in pairs:
        A, B = make(afam), make(bfam)
        ok &= red.bounded(A, B, ctx).holds == expected
        rep = orc.norm_probe(A, B, ctx, family=indicator)
        ok &= rep.trend == ("bounded" if expected else "diverging")

    rng = np.random.default_rng(42)
    cs = []
    for i in range(10):
        kind = i % 3
        if kind == 0:
            f = rng.random((64, 64))
        elif kind == 1:
            f = (rng.random((64, 64)) < 0.05) * rng.random((64, 64)) * 10
        else:
            f = np.zeros((64, 64))
            f[8:24, 8:24] = 1.0 + rng.random((16, 16))
        repb = orc.rearrangement_bound_check(f, CTX2, cell=1.0 / 64)
        ok &= math.isfinite(repb.c1) and repb.c1 > 0
        cs.append(repb.c1)
    ok &= max(cs) / min(cs) < 4.0

    A2, B2 = make(fam.lp(4.0 / 3.0)), make(fam.lp(4))
    f = np.ones((64, 64))
    c_big = 4.0 * red.bounded(A2, B2, CTX2).constant
    ok &= orc.modular_probe(A2, B2, CTX2, f, C2=c_big, cell=1.0 / 64)
    ok &= not orc.modular_probe(A2, B2, CTX2, f, C2=1e-6, cell=1.0 / 64)
    report(10, "oracle consistency", ok)


def test_11_young_calculus():
    families = {
        "t": fam.l1(), "t^2": fam.lp(2), "t^6": fam.lp(6), "Linf": fam.linf(),
        "zyg(2,1)": fam.zygmund(2, 1, 2, 1),
        "zyg(1.5,-2)": fam.zygmund(1.5, -2, 1.5, -2),
        "zyg-1branch": fam.zygmund(1, -0.5, 1, 0.5),
        "exp": fam.exp_type(-1, 1),
        "sqrtlog": fam.power_sqrtlog(2, -1, 2, 1),
    }
    ok = True
    t = np.geomspace(1e-10, 1e10, 81)
    from orlicz_calc.grid import StepFn
    for name, family in families.items():
        A = make(family, label=name)
        C = young.conjugate(A)
        ok &= young.equivalent(young.conjugate(C), A).holds
        prod = A.inverse_many(t) * C.inverse_many(t)
        ratio = prod / t
        ok &= bool(np.nanmin(ratio) >= 1 - 1e-6)
        ok &= bool(np.nanmax(ratio) <= 2 + 2e-6)
        for r in (1e-6, 1.0, 1e6):
            got = young.luxemburg_norm(A, StepFn(np.array([r]), np.array([1.0])))
            oracle = 1.0 / bisect_inverse(
                lambda u: float(np.atleast_1d(A._monotone_eval(np.array([u])))[0]),
                1.0 / r)
            if math.isfinite(oracle) and oracle > 0:
                ok &= abs(got - oracle) / oracle <= 1e-4
            else:
                ok &= got == oracle
    report(11, "Young-function calculus", ok)
