"""Discretized-operator probes: brute-force operator, Hardy probe, modular
inequality, rearrangement estimate, CSV interchange."""

import math

import numpy as np
import pytest

from orlicz_calc import families as fam, oracle as orc, reduction as red, young
from orlicz_calc.grid import StepFn
from orlicz_calc.young import GammaContext

from conftest import bisect_inverse, make

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


def _causal_max(a, k, axis):
    """Running max over the trailing window of length k along an axis."""
    if k <= 1:
        return a
    m = np.moveaxis(a, axis, 0)
    out = m.copy()
    span = 1
    while span < k:
        step = min(span, k - span)
        shifted = np.full_like(out, -np.inf)
        shifted[step:] = out[:-step]
        out = np.maximum(out, shifted)
        span += step
    return np.moveaxis(out, 0, axis)


def reference_maximal(f, gamma, cell=1.0):
    """The sliding-window operator: per side k, the k-block sums clamped out
    to the full grid, then a trailing window max of length k along each
    axis by doubling; the reference for the bits of ``maximal_2d``."""
    n = f.shape[0]
    pref = np.zeros((n + 1, n + 1))
    pref[1:, 1:] = f.cumsum(axis=0).cumsum(axis=1)
    out = np.zeros_like(f)
    for k in range(1, n + 1):
        bs = (pref[k:, k:] - pref[:-k, k:] - pref[k:, :-k] + pref[:-k, :-k])
        ext = np.empty_like(f)
        m = n - k + 1
        ext[:m, :m] = bs
        ext[m:, :m] = bs[-1, :]
        ext[:m, m:] = bs[:, -1][:, None]
        ext[m:, m:] = bs[-1, -1]
        w = _causal_max(_causal_max(ext, k, 0), k, 1)
        out = np.maximum(out, (k * cell) ** (gamma - 2.0) * cell ** 2 * w)
    return out


def planar_arrays(seed):
    """Seeded 64x64 arrays: dense, sparse spikes, a bump."""
    rng = np.random.default_rng(seed)
    dense = rng.random((64, 64))
    sparse = (rng.random((64, 64)) < 0.05) * rng.random((64, 64)) * 10
    bump = np.zeros((64, 64))
    bump[8:24, 8:24] = 1.0 + rng.random((16, 16))
    return {"dense": dense, "sparse": sparse, "bump": bump}


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

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("kind", ["dense", "sparse", "bump"])
    def test_embedded_bits_match_reference(self, kind, gamma):
        # the probes' 192 x 192 canvas; tobytes also tells -0.0 from 0.0
        f = orc._embedded(planar_arrays(7)[kind])
        got = orc.maximal_2d(f, gamma, cell=1.0 / 64)
        assert got.tobytes() == reference_maximal(f, gamma, cell=1.0 / 64).tobytes()

    @pytest.mark.parametrize("side", [1, 2, 3, 6, 12, 31])
    def test_random_bits_match_reference(self, side):
        rng = np.random.default_rng(side)
        for f in (rng.random((side, side)),
                  (rng.random((side, side)) < 0.2) * rng.random((side, side)),
                  np.zeros((side, side))):
            for gamma, cell in ((0.3, 1.0), (1.0, 0.1), (1.9, 3.0)):
                got = orc.maximal_2d(f, gamma, cell)
                assert got.tobytes() == reference_maximal(f, gamma, cell).tobytes()

    def test_guards(self):
        with pytest.raises(ValueError):
            orc.maximal_2d(np.ones((300, 300)), 1.0)
        with pytest.raises(ValueError):
            orc.maximal_2d(np.ones((4, 4)), 2.5)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            orc.maximal_2d(-np.ones((4, 4)), 1.0)
        for bad in (math.nan, math.inf):
            f = np.ones((4, 4))
            f[1, 2] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                orc.maximal_2d(f, 1.0)


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

    def test_default_family_probes_take_few_modular_evaluations(self, modular_calls):
        # about 6 per Luxemburg norm, 3 for an L-infinity target; a fixed
        # 60-step bisection made 21,405
        for ctx, afam, bfam, _ in PROBE_PAIRS:
            orc.norm_probe(make(afam), make(bfam), ctx)
        assert modular_calls.calls == 2240

    @pytest.mark.parametrize("scale", orc.DEFAULT_SCALES)
    @pytest.mark.parametrize("index", range(len(orc.default_probe_family())))
    def test_linf_norm_matches_bisection(self, ctx31, index, scale, modular_calls):
        # the norms of test_10's L-infinity targets: the image of H' does not
        # depend on the domain, so one image serves both pairs
        B = make(fam.linf())
        g = orc.default_probe_family()[index].realize(scale)
        images = [orc.hardy_dual_apply(g.to_gridfn() if isinstance(g, StepFn) else g, ctx31)]
        if index == 0:
            images.append(StepFn(np.array([scale]), np.array([1.0])))
        for image in images:
            before = modular_calls.calls
            got = young.luxemburg_norm(B, image)
            assert modular_calls.calls - before == 3
            _, modular = young._modular(B, image)
            # sup{mu : modular(1/mu) <= 1} is the reciprocal norm
            want = 1.0 / bisect_inverse(lambda mu: modular(1.0 / mu), 1.0,
                                        lo=young._LAM_LO, hi=young._LAM_HI)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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

