"""Sampled-function machinery: interpolation, quadrature, inversion, steps."""

import math

import numpy as np
import pytest

from orlicz_calc import grid
from orlicz_calc.grid import (
    DEFAULT_GRID,
    POINT_LIMIT,
    SPAN_LIMIT,
    GridFn,
    GridSpec,
    StepFn,
    TailFit,
    ell,
    grid_inverse,
    merge_breakpoints,
)

from conftest import bisect_inverse
from paper_oracles import grid_total_integral, step_total_integral


class TestGridSpec:
    def test_default_density(self):
        t = DEFAULT_GRID.abscissae()
        assert len(t) == 24 * 24 + 1
        assert t[0] == pytest.approx(1e-12)
        assert t[-1] == pytest.approx(1e12)
        assert 1.0 in t

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(t_min=1.0, t_max=0.5)
        for t_min, t_max in ((1e-300, 1e300), (1e-161, 1.0), (1.0, 1e161)):
            with pytest.raises(ValueError, match="t_max <="):
                GridSpec(t_min=t_min, t_max=t_max)

    def test_point_limit_is_checked_before_any_abscissae(self, monkeypatch):
        def no_abscissae(*args):
            raise AssertionError("abscissae built")

        monkeypatch.setattr(grid, "_abscissae_cached", no_abscissae)
        for ppd in (10 ** 8, 10 ** 400, POINT_LIMIT // 24 + 1):
            with pytest.raises(ValueError, match=f"at most {POINT_LIMIT} points"):
                GridSpec(points_per_decade=ppd)
        with pytest.raises(ValueError, match="at most"):
            GridSpec(t_min=1.0 / SPAN_LIMIT, t_max=SPAN_LIMIT,
                     points_per_decade=POINT_LIMIT // 320 + 1)
        GridSpec(points_per_decade=(POINT_LIMIT - 1) // 24)  # 24 decades

    def test_abscissae_closer_than_adjacent_doubles_are_refused(self):
        # 86,868 points within 4,504 doubles: many would repeat
        with pytest.raises(ValueError, match="adjacent doubles"):
            GridSpec(t_min=1.0, t_max=1.0 + 1e-12, points_per_decade=2 * 10 ** 17).abscissae()

    def test_widest_span(self):
        # t_max / t_min overflows to inf here; the span comes from the logs
        g = GridSpec(t_min=1.0 / SPAN_LIMIT, t_max=SPAN_LIMIT)
        assert g.decades == 320.0
        assert len(g.abscissae()) == 320 * 24 + 1


class TestGridFn:
    def test_power_interpolation_exact(self):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, t ** 2.5)
        x = np.geomspace(1e-11, 1e11, 57) * 1.0371
        assert np.max(np.abs(np.asarray(g(x)) - x ** 2.5) / x ** 2.5) < 1e-12

    def test_tail_extrapolation(self):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, 3.0 * t ** 1.5)
        for x in (1e-15, 1e15):
            assert g(x) == pytest.approx(3.0 * x ** 1.5, rel=1e-9)

    def test_left_value_at_jumps(self):
        t = DEFAULT_GRID.abscissae()
        y = np.where(t <= 1.0, 0.0, np.inf)
        g = GridFn(t, y)
        assert g(1.0) == 0.0
        assert g(1.05) == 0.0  # left value inside the jump cell
        assert g(2.0) == math.inf

    def test_prefix_integral_power_exact(self):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, t ** 3)
        # integral of s^3 * s^(-1) = s^3 / 3 including the analytic head
        p = g.prefix_integral(-1.0)
        expect = t ** 3 / 3.0
        assert np.max(np.abs(p - expect) / expect) < 1e-12

    def test_prefix_integral_divergence(self):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, t ** 1.5)
        p = g.prefix_integral(-2.5)  # integrand 1/s: diverges at zero
        assert np.all(np.isinf(p))

    def test_prefix_integral_zero_cells_where_powers_overflow(self):
        # s**(w+1) is inf on the lowest cells, where the samples are 0
        t = np.geomspace(1e-200, 1.0, 201)
        g = GridFn(t, np.where(t < 1e-100, 0.0, t ** 3))
        p = g.prefix_integral(-3.0)
        assert np.all(p[t < 1e-100] == 0.0)
        assert p[-1] == pytest.approx(1.0, rel=1e-12)  # integrand 1 on [1e-100, 1]

    @pytest.mark.parametrize("rising", [True, False])
    def test_total_integral_of_a_steep_cell(self, rising):
        # y_r / y_l leaves the double range, the cell's integral does not
        t = np.array([1.0e-10, 1.1e-10])
        y = np.array([9.3e-200, 8.7e138] if rising else [8.7e138, 9.3e-200])
        g = GridFn(t, y, TailFit("zero"), TailFit("zero"))
        slope = (math.log(y[1]) - math.log(y[0])) / math.log(t[1] / t[0])
        expect = (y[1] * t[1] - y[0] * t[0]) / (slope + 1.0)
        assert grid_total_integral(g) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("y,x,want", [
        # the power law through (1, 1e-300) and (2, 1e300) at 1.9
        ((1e-300, 1e300), 1.9, 10.0 ** (-300.0 + 600.0 * math.log2(1.9))),
        # a subnormal left value: yl (x/tl)**m with m = log(1/yl) / log 2
        ((5e-320, 1.0), 1.957, 5e-320 ** (1.0 - math.log2(1.957))),
    ], ids=["steep", "subnormal"])
    def test_cells_past_the_exp_range_are_evaluated_in_logs(self, y, x, want):
        # exp(m log(x/tl)) overflows there before the multiply by yl
        g = GridFn(np.array([1.0, 2.0]), np.array(y))
        assert 0.0 < g(x) <= max(y)
        assert g(x) == pytest.approx(want, rel=1e-12)

    def test_step_function_integral_exact(self):
        s = StepFn(np.array([0.7, 4.0]), np.array([3.0, 1.0]))
        g = s.to_gridfn()
        total = g.prefix_integral(0.0)[-1]
        assert total == pytest.approx(step_total_integral(s), rel=1e-9)


class TestTailIntegral:
    """Both tail integrals against closed-form antiderivatives of
    c s**(a-1) l(s)**b beyond the grid, a = p + weight + 1."""

    C = 3.0

    @pytest.mark.parametrize("weight", [-1.5, -3.5, -2.5])  # a = 1, -1, 0
    def test_fitted_power(self, weight):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, self.C * t ** 2.5)
        a = 2.5 + weight + 1.0
        for end, te, converges in (("zero", t[0], a > 0), ("infinity", t[-1], a < 0)):
            got = g.tail_integral(weight, end)
            if converges:
                assert got == pytest.approx(self.C * te ** a / abs(a), rel=1e-9)
            else:
                assert got == math.inf

    @pytest.mark.parametrize("b", [-2.5, -1.0, 0.5])
    def test_exact_log_at_critical_power(self, b):
        # integrand c s**-1 l(s)**b: c l(edge)**(b+1) / (-b-1) when b < -1
        t = DEFAULT_GRID.abscissae()
        weight = -2.0
        y = self.C * t * ell(t) ** b
        tail = TailFit("power", 1.0, math.log(self.C), b)
        g = GridFn(t, y, tail_zero=tail, tail_infinity=tail)
        for end, te in (("zero", t[0]), ("infinity", t[-1])):
            got = g.tail_integral(weight, end)
            if b < -1.0:
                want = self.C * float(ell(te)) ** (b + 1.0) / (-b - 1.0)
                assert got == pytest.approx(want, rel=1e-9)
            else:
                assert got == math.inf

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    def test_exact_log_first_order(self, end):
        # b = 1, |a| = 1: the exact integral is c edge**a (l/|a| + 1/a**2);
        # the first-order correction is off by about (1/(|a| l))**2
        t = DEFAULT_GRID.abscissae()
        tail = TailFit("power", 1.0, math.log(self.C), 1.0)
        g = GridFn(t, self.C * t * ell(t), tail_zero=tail, tail_infinity=tail)
        weight, te = (-1.0, t[0]) if end == "zero" else (-3.0, t[-1])
        a = 1.0 + weight + 1.0
        l_e = float(ell(te))
        want = self.C * te ** a * (l_e / abs(a) + 1.0 / a ** 2)
        assert g.tail_integral(weight, end) == pytest.approx(
            want, rel=2.0 / (abs(a) * l_e) ** 2)

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    @pytest.mark.parametrize("a,b", [(0.999, 42.44), (0.05, 1.0), (0.3, 100.0),
                                     (2.0, 40.0)])
    def test_exact_log_where_it_is_not_slowly_varying(self, end, a, b):
        # b >= |a| l / 2: the first-order correction 1/(1 - b/(|a| l)) is far
        # off or negative; the exact integral is
        # c e**(|a|) |a|**(-b-1) Gamma(b+1, |a| l(edge))
        mpmath = pytest.importorskip("mpmath")
        t = DEFAULT_GRID.abscissae()
        p = 1.0
        tail = TailFit("power", p, math.log(self.C), b)
        g = GridFn(t, self.C * t ** p * ell(t) ** b, tail_zero=tail, tail_infinity=tail)
        weight, te = (a - p - 1.0, t[0]) if end == "zero" else (-a - p - 1.0, t[-1])
        with mpmath.workdps(30):
            want = float(self.C * mpmath.e ** a * mpmath.mpf(a) ** (-b - 1)
                         * mpmath.gammainc(b + 1, a * float(ell(te))))
        assert g.tail_integral(weight, end) == pytest.approx(want, rel=1e-10)

    def test_plateau_tails(self):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, np.where(t < 1.0, 0.0, np.inf))
        assert g.tail_integral(-1.0, "zero") == 0.0
        assert g.tail_integral(-1.0, "infinity") == math.inf


class TestGridInverse:
    def test_power(self):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, t ** 2)
        inv = grid_inverse(g, t)
        assert np.max(np.abs(inv.y - np.sqrt(t)) / np.sqrt(t)) < 1e-9

    def test_against_bisection_oracle(self):
        t = DEFAULT_GRID.abscissae()
        vals = t ** 2 * (1.0 + np.abs(np.log(t)))
        g = GridFn(t, vals)
        inv = grid_inverse(g, np.array([1e-6, 1.0, 1e6]))
        closed = lambda x: x * x * (1.0 + abs(math.log(x))) if x > 0 else 0.0
        for s, got in zip([1e-6, 1.0, 1e6], inv.y):
            assert got == pytest.approx(bisect_inverse(closed, s), rel=1e-3)

    def test_saturating_input(self):
        t = DEFAULT_GRID.abscissae()
        g = GridFn(t, np.ones_like(t))
        inv = grid_inverse(g, np.array([0.5, 2.0]))
        assert inv.y[0] == 0.0
        assert inv.y[1] == math.inf

    @pytest.mark.parametrize("y,s,want", [
        # yr/yl overflows: the power law through (1, 1e-300) and (2, 1e300)
        # reaches 1 at 2**0.5, not at tl
        ((1e-300, 1e300), 1.0, math.sqrt(2.0)),
        # a subnormal left value: the power law reaches 1e-10 at
        # 2**(log(1e-10/yl) / log(1/yl)), which a 1e-300 clamp put at 1.95432
        ((5e-320, 1.0), 1e-10, 2.0 ** (1.0 - math.log(1e-10) / math.log(5e-320))),
    ], ids=["steep", "subnormal"])
    def test_cells_past_the_ratio_range_are_solved_in_logs(self, y, s, want):
        g = GridFn(np.array([1.0, 2.0]), np.array(y))
        for got in (g.inverse(np.array([s])), grid_inverse(g, np.array([s])).y):
            assert got[0] == pytest.approx(want, rel=1e-12)

    def test_jump_and_zero_cells(self):
        # the view holds 2 across the jump cell, so its own inverse is the
        # right node; the transforms' inverse keeps the left one there.  A
        # cell that is 0 on its left is a step for both
        g = GridFn(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, math.inf]))
        s = np.array([2.0, 2.5])
        assert g(2.9) == 2.0
        assert g.inverse(s).tolist() == [3.0, 3.0]
        assert grid_inverse(g, s).y.tolist() == [2.0, 2.0]
        z = GridFn(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        assert z.inverse(np.array([0.5])).tolist() == [2.0]
        assert grid_inverse(z, np.array([0.5])).y.tolist() == [2.0]

    def test_flat_tails_give_zero_below_and_inf_above(self):
        t = np.array([1.0, 2.0, 4.0])
        flat = TailFit("power", 1e-10, 0.0)
        for g in (GridFn(t, np.ones(3)), GridFn(t, np.array([1.0, 2.0, 3.0]), flat, flat)):
            s = np.array([0.5, 5.0])
            assert g.inverse(s).tolist() == [0.0, math.inf]
            assert grid_inverse(g, s).y.tolist() == [0.0, math.inf]

    def test_power_tails_are_solved(self):
        g = GridFn(np.array([1.0, 2.0, 4.0]), np.array([1.0, 4.0, 16.0]))
        got = g.inverse(np.array([0.25, 64.0]))
        assert got == pytest.approx([0.5, 8.0], rel=1e-12)


class TestStepFn:
    def test_eval_right_continuous(self):
        s = StepFn(np.array([1.0, 3.0]), np.array([5.0, 2.0]))
        assert s(0.5) == 5.0
        assert s(1.0) == 2.0  # right-continuous at the break
        assert s(2.9) == 2.0
        assert s(3.0) == 0.0

    def test_merge_breakpoints_clips(self):
        pts = merge_breakpoints(DEFAULT_GRID, [1e-30, 2.0, 1e30])
        assert pts[0] == pytest.approx(1e-12)
        assert pts[-1] == pytest.approx(1e12)
        assert np.any(np.isclose(pts, 2.0))
