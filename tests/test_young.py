"""Core Young-function calculus: evaluation, inverses, conjugation,
domination, Luxemburg norms, rearrangement."""

import math

import numpy as np
import pytest

from orlicz_calc import families as fam
from orlicz_calc import young
from orlicz_calc.grid import DEFAULT_GRID, GridFn, StepFn

from conftest import bisect_inverse, make


class TestGammaContext:
    def test_derived_exponents(self):
        ctx = young.GammaContext(3, 1.0)
        assert 1.0 < ctx.q_star < math.inf
        assert ctx.r_star > 1.0
        assert 0.0 < ctx.s_star < 1.0
        assert ctx.q_star * (1.0 - ctx.s_star) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            young.GammaContext(3, 3.0)
        with pytest.raises(ValueError):
            young.GammaContext(0, 0.5)


class TestEval:
    def test_power(self):
        A = make(fam.lp(2))
        assert A.eval(3.0) == pytest.approx(9.0, rel=1e-12)
        assert A.eval(0.0) == 0.0

    def test_linf_step(self):
        L = make(fam.linf())
        assert L.eval(0.5) == 0.0
        assert L.eval(2.0) == math.inf

    def test_power_log_closed_form(self):
        # t^1.5 l(t)^2 near infinity, evaluated where l(e) = 2
        A = make(fam.zygmund(1.5, 2, 1.5, 2))
        expected = math.e ** 1.5 * 4.0  # oracle: direct 64-bit closed form
        assert A.eval(math.e) == pytest.approx(expected, rel=1e-12)

    def test_overflow_saturates(self):
        A = make(fam.exp_type(-1, 1))
        assert A.eval(1e9) == math.inf

    def test_ratio_nondecreasing_past_table(self):
        # t**1.0625 l**-2 has its least A(t)/t near 3e13, past the table end
        A = make(fam.zygmund(1, 0, 1.0625, -2))
        u = np.geomspace(1e12, 1e16, 9)
        ratio = A._monotone_eval(u) / u
        assert np.all(np.diff(ratio) >= -1e-12 * ratio[:-1])


class TestConstruction:
    def test_source_read_once_on_the_table(self):
        sizes = []

        def square(t):
            t = np.asarray(t, dtype=float)
            sizes.append(t.size)
            return t * t

        young.YoungFn(raw=square)
        assert sizes.count(DEFAULT_GRID.abscissae().size) == 1

    def test_table_and_source_are_exclusive(self):
        table = make(fam.lp(2)).table
        with pytest.raises(ValueError):
            young.YoungFn(table=table, raw=lambda t: np.asarray(t, float) ** 2)
        with pytest.raises(ValueError):
            young.YoungFn(table=table, symbolic=fam.lp(2))
        with pytest.raises(ValueError):
            young.YoungFn()


class TestInverse:
    def test_power(self):
        A = make(fam.lp(2))
        assert A.inverse(9.0) == pytest.approx(3.0, rel=1e-9)

    def test_linf_inverse_is_threshold(self):
        L = make(fam.linf())
        step = lambda t: 0.0 if t <= 1.0 else math.inf
        for s in (0.0, 0.5, 7.0, 1e6):
            oracle = bisect_inverse(step, s)
            assert L.inverse(s) == pytest.approx(oracle, rel=1e-9)
            assert L.inverse(s) == pytest.approx(1.0, rel=1e-9)

    def test_zero_plateau(self):
        A = young.from_callable(lambda t: np.maximum(np.asarray(t) - 2.0, 0.0),
                                breakpoints=(2.0,))
        assert A.inverse(0.0) == pytest.approx(2.0, rel=1e-9)
        assert A.inverse(1.0) == pytest.approx(3.0, rel=1e-6)

    def test_roundtrip_consistency(self):
        A = make(fam.zygmund(2, -1, 2, -1))
        s = np.geomspace(1e-10, 1e10, 41)
        t = A.inverse_many(s)
        back = np.asarray(A._monotone_eval(t), dtype=float)
        assert np.max(np.abs(back - s) / s) < 1e-6


class TestConjugate:
    def test_self_conjugate_quadratic(self):
        # A(t) = t^2/2 is its own conjugate
        A = young.from_callable(lambda t: 0.5 * np.asarray(t, float) ** 2)
        C = young.conjugate(A)
        for t in (1e-4, 0.3, 1.0, 7.0, 1e5):
            assert C.eval(t) == pytest.approx(0.5 * t * t, rel=1e-6)

    def test_conjugate_of_linear_is_indicator_type(self):
        C = young.conjugate(make(fam.l1()))
        assert C.eval(0.5) == 0.0
        assert C.eval(2.0) == math.inf
        assert C.finite_sup == pytest.approx(1.0, rel=1e-6)

    def test_product_bounds_t_cubed(self):
        A = make(fam.lp(3))
        C = young.conjugate(A)
        for t in (1e-6, 1.0, 1e6):
            prod = A.inverse(t) * C.inverse(t)
            assert t * (1 - 1e-6) <= prod <= 2 * t * (1 + 1e-6)

    @pytest.mark.parametrize("family", [fam.zygmund(1, -1.5, 1, 2),
                                        fam.zygmund(1.5, -2, 3, 1),
                                        fam.zygmund(1, 0, 1.0625, -2),
                                        fam.zygmund(1.02, 0.5, 1.005, -2)])
    def test_product_bounds_log_factors(self, family):
        # power interpolation between nodes overshoots the first two profiles
        # by a few 1e-4 relative, so the conjugate must be taken of the exact
        # function; for the last two A(t)/t still falls past the table end
        A = make(family)
        C = young.conjugate(A)
        t = np.geomspace(1e-10, 1e10, 81)
        ratio = A.inverse_many(t) * C.inverse_many(t) / t
        assert np.nanmin(ratio) >= 1 - 1e-6
        assert np.nanmax(ratio) <= 2 + 2e-6

    def test_table_on_grid_without_plateau(self):
        # the closed-form conjugate exp(-t^-2) @0 | exp(t^2) @inf has no
        # plateau, so no plateau ends are inserted among the abscissae
        C = young.conjugate(make(fam.zygmund(1, -0.5, 1, 0.5)))
        assert C.zero_plateau_end == 0.0
        assert np.array_equal(C.table.t, DEFAULT_GRID.abscissae())

    def test_involution(self, young_battery):
        for name, A in young_battery.items():
            CC = young.conjugate(young.conjugate(A))
            assert young.equivalent(CC, A).holds, name


class TestDomination:
    def test_reflexive(self):
        A = make(fam.lp(2))
        v = young.dominates(A, A)
        assert v.holds and v.constant == 1.0

    def test_zero_end_blocks(self):
        A = make(fam.lp(3))
        B_bad = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                          fam.piece(fam.PowerFactor(3))))
        B_good = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(3)),
                                           fam.piece(fam.PowerFactor(2))))
        assert not young.dominates(A, B_bad).holds
        assert young.dominates(A, B_good).holds

    def test_log_factor_dominates_free(self):
        A = make(fam.zygmund(2, 1, 2, 1))
        B = make(fam.lp(2))
        v = young.dominates(A, B)
        assert v.holds and v.constant == 1.0

    def test_scaling_constants(self):
        A = make(fam.lp(2))
        B = young.from_callable(lambda t: 4.0 * np.asarray(t, float) ** 2)
        v = young.equivalent(A, B)
        assert v.holds
        # least ladder constant at or just above the exact value 2
        assert 2.0 * (1 - 1e-9) <= v.constant_ab <= 2.6
        assert v.constant_ba == 1.0

    def test_log_gap_is_not_equivalent(self):
        assert not young.equivalent(make(fam.lp(2)),
                                    make(fam.zygmund(2, 1, 2, 1))).holds


class TestTailScreen:
    """B(t) <= A(ct) beyond the grid, read from the end profiles alone."""

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    def test_exp_beta_orders_superpolynomial_profiles(self, end):
        big = young.EndProfile("power", math.inf, exp_beta=2.0, exact=True)
        small = young.EndProfile("power", math.inf, exp_beta=1.0, exact=True)
        assert young._compare_power_profiles(big, small, end) is True
        assert young._compare_power_profiles(small, big, end) is False
        assert young._compare_power_profiles(big, big, end) is None

    def test_nan_alpha_leaves_it_to_the_grid(self):
        pa = young.EndProfile("power", 2.0, math.nan)
        pb = young.EndProfile("power", 2.0, 0.0)
        assert young._compare_power_profiles(pa, pb, "infinity") is None

    def test_zero_plateau_below_a_power_at_infinity(self):
        pa = young.EndProfile("power", 2.0, 0.0, exact=True)
        pb = young.EndProfile("plateau-zero", threshold=1.0, exact=True)
        assert young._tail_admits_domination(pa, pb, "infinity") is True


class TestEssentialDomination:
    def test_power_gap(self):
        assert young.essentially_dominates(make(fam.lp(3)), make(fam.lp(2))).holds

    def test_reflexive_fails(self):
        A = make(fam.lp(2))
        assert not young.essentially_dominates(A, A).holds

    def test_log_factor(self):
        assert young.essentially_dominates(make(fam.zygmund(2, 1, 2, 1)),
                                           make(fam.lp(2))).holds
        assert not young.essentially_dominates(make(fam.lp(2)),
                                               make(fam.zygmund(2, 1, 2, 1))).holds

    def test_grid_heuristic_flagged(self):
        A = young.from_table(make(fam.lp(3)).table)
        B = young.from_table(make(fam.lp(2)).table)
        v = young.essentially_dominates(A, B)
        assert v.holds and "heuristic" in v.flags


class TestLuxemburg:
    def test_l1_indicator(self):
        A = make(fam.l1())
        g = StepFn(np.array([2.0]), np.array([1.0]))
        assert young.luxemburg_norm(A, g) == pytest.approx(2.0, rel=1e-9)

    def test_l2_indicator(self):
        A = make(fam.lp(2))
        g = StepFn(np.array([4.0]), np.array([1.0]))
        assert young.luxemburg_norm(A, g) == pytest.approx(2.0, rel=1e-9)

    def test_indicator_formula(self, young_battery):
        # oracle: bisection on the one-parameter modular r * A(1/lam) <= 1
        for name in ("t^2", "zyg(2,1)", "zyg(2,-1)", "t^1.5"):
            A = young_battery[name]
            for r in (1e-6, 1.0, 1e6):
                g = StepFn(np.array([r]), np.array([1.0]))
                got = young.luxemburg_norm(A, g)
                oracle = 1.0 / bisect_inverse(
                    lambda u: float(np.atleast_1d(A._monotone_eval(np.array([u])))[0]),
                    1.0 / r)
                assert got == pytest.approx(oracle, rel=1e-4), (name, r)

    def test_gridfn_path_matches_step_path(self):
        A = make(fam.lp(2))
        g = StepFn(np.array([0.7, 4.0]), np.array([3.0, 1.0]))
        n_step = young.luxemburg_norm(A, g)
        n_grid = young.luxemburg_norm(A, g.to_gridfn())
        assert n_grid == pytest.approx(n_step, rel=1e-6)

    def test_divergent_modular_raises(self):
        A = make(fam.l1())
        # a fixed 1/t profile is not integrable at infinity for L^1
        t = np.geomspace(1e-12, 1e12, 577)
        g = GridFn(t, 1.0 / t)
        with pytest.raises(young.IntegralDivergentError):
            young.luxemburg_norm(A, g)

    @pytest.mark.parametrize("g", [
        GridFn(np.geomspace(1e-3, 1e3, 61), np.full(61, np.inf)),
        StepFn(np.array([1.0]), np.array([np.inf]))])
    def test_infinite_g_raises(self, g):
        with pytest.raises(young.IntegralDivergentError):
            young.luxemburg_norm(make(fam.lp(2)), g)


class TestRearrangement:
    def test_two_step_sort(self):
        f = young.rearrangement([(3.0, 1.0), (1.0, 2.0)])
        assert np.allclose(f.breaks, [1.0, 3.0])
        assert np.allclose(f.values, [3.0, 1.0])
        assert f.total_integral() == pytest.approx(5.0)

    def test_constant_block(self):
        f = young.rearrangement([(2.5, 0.5), (2.5, 1.5)])
        assert np.allclose(f.breaks, [2.0])
        assert np.allclose(f.values, [2.5])

    def test_equimeasurability(self, young_battery):
        cells = [(3.0, 0.5), (0.25, 2.0), (7.0, 0.125), (1.0, 1.0)]
        fstar = young.rearrangement(cells)
        for name in ("t^2", "zyg(2,1)", "t^1.5"):
            A = young_battery[name]
            direct_breaks = np.cumsum([m for _, m in cells])
            direct = StepFn(np.array(direct_breaks),
                            np.array([v for v, _ in cells]))
            n1 = young.luxemburg_norm(A, fstar)
            n2 = young.luxemburg_norm(A, direct)
            assert n1 == pytest.approx(n2, rel=1e-6), name


class TestValidate:
    def test_battery_passes(self, young_battery):
        for name, A in young_battery.items():
            assert young.validate(A) == [], name
