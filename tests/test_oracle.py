"""Discretized-operator probes: brute-force operator, Hardy probe, modular
inequality, rearrangement estimate, CSV interchange."""

import math

import numpy as np
import pytest

from orlicz_calc import families as fam, oracle as orc, reduction as red, young
from orlicz_calc.grid import StepFn
from orlicz_calc.young import GammaContext

from conftest import make

# acceptance test_10's pairs: (context, A, B, is M_gamma bounded from L^A to L^B)
PROBE_PAIRS = [
    (GammaContext(2, 1.0), fam.lp(4.0 / 3.0), fam.lp(4), True),
    (GammaContext(3, 1.0), fam.lp(2), fam.lp(6), True),
    (GammaContext(3, 1.0), fam.lp(1.5), fam.lp(3), True),
    (GammaContext(3, 1.0), fam.lp(2.5), fam.lp(15), True),
    (GammaContext(3, 1.0), fam.zygmund(2, 1, 2, 1), fam.zygmund(6, 3, 6, 3), True),
    (GammaContext(3, 1.0), fam.lp(3), fam.linf(), True),
    (GammaContext(3, 1.0), fam.l1(), fam.AsymptoticFamily(
        fam.piece(fam.PowerFactor(2)), fam.piece(fam.PowerFactor(1.2))), True),
    (GammaContext(3, 1.0), fam.lp(1.2), fam.lp(6), False),
    (GammaContext(3, 1.0), fam.lp(2), fam.lp(30), False),
    (GammaContext(3, 1.0), fam.l1(), fam.lp(1.5), False),
    (GammaContext(3, 1.0), fam.l1(), fam.lp(3), False),
    (GammaContext(3, 1.0), fam.lp(1.2), fam.linf(), False),
]


def exhaustive_maximal(f, gamma, cell=1.0):
    """Plain four-loop enumeration over all squares; the independent oracle."""
    n = f.shape[0]
    out = np.zeros_like(f)
    for i in range(n):
        for j in range(n):
            best = 0.0
            for k in range(1, n + 1):
                for p in range(max(0, i - k + 1), min(i, n - k) + 1):
                    for q in range(max(0, j - k + 1), min(j, n - k) + 1):
                        s = f[p:p + k, q:q + k].sum()
                        best = max(best, (k * cell) ** (gamma - 2.0) * cell ** 2 * s)
            out[i, j] = best
    return out


class TestMaximal2d:
    def test_zero_input(self):
        assert orc.maximal_2d(np.zeros((8, 8)), 1.0).max() == 0.0

    def test_full_indicator_center(self):
        n = 32
        m = orc.maximal_2d(np.ones((n, n)), 1.0, cell=1.0 / n)
        assert m[n // 2, n // 2] == pytest.approx(1.0, rel=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        f = rng.random((12, 12))
        m1 = orc.maximal_2d(f, 0.7)
        m2 = orc.maximal_2d(5.0 * f, 0.7)
        assert np.max(np.abs(m2 - 5.0 * m1)) < 1e-12

    def test_pointwise_monotone(self):
        rng = np.random.default_rng(2)
        f = rng.random((10, 10))
        g = f + rng.random((10, 10))
        assert np.all(orc.maximal_2d(g, 1.3) >= orc.maximal_2d(f, 1.3) - 1e-12)

    def test_dominates_every_explicit_square(self):
        rng = np.random.default_rng(3)
        f = rng.random((8, 8))
        m = orc.maximal_2d(f, 0.9, cell=0.25)
        for i, j, k, p, q in ((3, 4, 2, 2, 3), (0, 0, 5, 0, 0), (7, 7, 3, 5, 5)):
            s = f[p:p + k, q:q + k].sum()
            val = (k * 0.25) ** (0.9 - 2.0) * 0.25 ** 2 * s
            assert m[i, j] >= val - 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.7])
    def test_matches_exhaustive_enumeration(self, gamma):
        rng = np.random.default_rng(4)
        f = rng.random((9, 9))
        fast = orc.maximal_2d(f, gamma, cell=0.5)
        slow = exhaustive_maximal(f, gamma, cell=0.5)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError):
            orc.maximal_2d(np.ones((300, 300)), 1.0)
        with pytest.raises(ValueError):
            orc.maximal_2d(np.ones((4, 4)), 2.5)


class TestHardyDual:
    def test_indicator_closed_form(self, ctx31):
        g = StepFn(np.array([1.0]), np.array([1.0])).to_gridfn()
        H = orc.hardy_dual_apply(g, ctx31)
        t = np.geomspace(1e-6, 1e6, 41)
        expect = t ** (1.0 / 3.0 - 1.0) * np.minimum(t, 1.0)
        assert np.max(np.abs(np.asarray(H(t)) - expect) / expect) < 1e-9

    def test_zero_maps_to_zero(self, ctx31):
        g = StepFn(np.array([1.0]), np.array([0.0])).to_gridfn()
        H = orc.hardy_dual_apply(g, ctx31)
        assert float(np.nanmax(H.y)) == 0.0

    def test_inverse_sqrt_quadrature(self, ctx31):
        tf = orc.TestFunction("power-log", p=0.5, beta=0.0, a=1e-12, b=1.0)
        H = orc.hardy_dual_apply(tf.realize(1.0), ctx31)
        t = np.geomspace(1e-4, 0.5, 11)
        # closed form of the truncated profile: int_a^t s^(-1/2) ds
        expect = t ** (1.0 / 3.0 - 1.0) * 2.0 * (np.sqrt(t) - 1e-6)
        assert np.max(np.abs(np.asarray(H(t)) - expect) / expect) < 1e-4

    def test_linearity(self, ctx31):
        rng = np.random.default_rng(5)
        breaks = np.sort(rng.random(4)) + 0.5
        v1 = rng.random(4)
        v2 = rng.random(4)
        g1 = StepFn(breaks, v1).to_gridfn()
        g2 = StepFn(breaks, v2).to_gridfn()
        g12 = StepFn(breaks, v1 + v2).to_gridfn()
        t = np.geomspace(1e-3, 1e3, 19)
        lhs = np.asarray(orc.hardy_dual_apply(g12, ctx31)(t))
        rhs = (np.asarray(orc.hardy_dual_apply(g1, ctx31)(t))
               + np.asarray(orc.hardy_dual_apply(g2, ctx31)(t)))
        assert np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)) < 1e-9


class TestNormProbe:
    def test_lebesgue_pair_scale_invariant(self, ctx21):
        rep = orc.norm_probe(make(fam.lp(4.0 / 3.0)), make(fam.lp(4)), ctx21,
                             family=[orc.TestFunction("indicator")])
        assert rep.trend == "bounded"
        vals = [r for _, _, r in rep.ratios]
        assert max(vals) / min(vals) < 1.01

    def test_bounded_pair(self, ctx31):
        rep = orc.norm_probe(make(fam.lp(2)), make(fam.lp(6)), ctx31)
        assert rep.trend == "bounded"

    def test_too_small_target_diverges(self, ctx31):
        rep = orc.norm_probe(make(fam.lp(1.2)), make(fam.lp(6)), ctx31,
                             family=[orc.TestFunction("indicator")])
        assert rep.trend == "diverging"

    def test_divergent_image_norm_detected(self, ctx31):
        rep = orc.norm_probe(make(fam.l1()), make(fam.lp(1.5)), ctx31,
                             family=[orc.TestFunction("indicator")])
        assert rep.trend == "diverging"
        assert any(f.startswith("norm-divergent") for f in rep.flags)

    def test_consistency_battery(self):
        for ctx, afam, bfam, expected in PROBE_PAIRS:
            A, B = make(afam), make(bfam)
            verdict = red.bounded(A, B, ctx)
            assert verdict.holds == expected, (afam, bfam)
            rep = orc.norm_probe(A, B, ctx, family=[orc.TestFunction("indicator")])
            want = "bounded" if expected else "diverging"
            assert rep.trend == want, (afam, bfam, rep.ratios)

    def test_default_family_probes_take_few_modular_evaluations(self, monkeypatch):
        # about 11 per Luxemburg norm; a fixed 60-step bisection made 21,405
        calls = 0
        real = young._modular

        def counted(A, g):
            values, modular = real(A, g)

            def count(lam):
                nonlocal calls
                calls += 1
                return modular(lam)

            return values, count

        monkeypatch.setattr(young, "_modular", counted)
        for ctx, afam, bfam, _ in PROBE_PAIRS:
            orc.norm_probe(make(afam), make(bfam), ctx)
        assert 0 < calls < 5000


class TestModularProbe:
    def test_zero_function(self, ctx21):
        A, B = make(fam.lp(4.0 / 3.0)), make(fam.lp(4))
        assert orc.modular_probe(A, B, ctx21, np.zeros((8, 8)), C2=1.0)

    def test_discriminates_constant(self, ctx21):
        A, B = make(fam.lp(4.0 / 3.0)), make(fam.lp(4))
        f = np.ones((64, 64))
        cell = 1.0 / 64
        c_big = 4.0 * red.bounded(A, B, ctx21).constant
        assert orc.modular_probe(A, B, ctx21, f, C2=c_big, cell=cell)
        assert not orc.modular_probe(A, B, ctx21, f, C2=1e-6, cell=cell)

    def test_dimension_mismatch(self, ctx31):
        with pytest.raises(ValueError):
            orc.modular_probe(make(fam.lp(2)), make(fam.lp(6)), ctx31,
                              np.ones((8, 8)), C2=1.0)


class TestRearrangementBound:
    def test_zero_grid(self, ctx21):
        rep = orc.rearrangement_bound_check(np.zeros((16, 16)), ctx21)
        assert rep.c1 == 0.0

    def test_single_cell(self, ctx21):
        f = np.zeros((16, 16))
        f[8, 8] = 1.0
        rep = orc.rearrangement_bound_check(f, ctx21, cell=1.0 / 16)
        assert math.isfinite(rep.c1) and rep.c1 > 0

    def test_stability_across_random_grids(self, ctx21):
        rng = np.random.default_rng(7)
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
            rep = orc.rearrangement_bound_check(f, ctx21, cell=1.0 / 64)
            assert math.isfinite(rep.c1)
            cs.append(rep.c1)
        assert max(cs) / min(cs) < 4.0

