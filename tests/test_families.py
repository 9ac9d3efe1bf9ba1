"""Exact end comparisons of closed-form pieces: the oracles limit_sign,
integrable and compare_growth, and the library's end_sign and integral_sign
on the same pieces' end profiles, one case per comparison level."""

import math

import numpy as np
import pytest

from orlicz_calc import families as fam
from orlicz_calc.families import (ConstFactor, ExpLogFactor, ExpPowerFactor, LogFactor,
                                  LogLogFactor, PowerFactor, piece)

from conftest import closed_profile
from paper_oracles import compare_growth, integrable, limit_sign


class TestLimitSign:
    @pytest.mark.parametrize("end", ["zero", "infinity"])
    @pytest.mark.parametrize("ll,sign", [(1.0, 1), (-1.0, -1), (0.0, 0)])
    def test_loglog_decides_at_a_tied_power_and_log(self, end, ll, sign):
        pc = piece(PowerFactor(2), LogLogFactor(ll))
        assert limit_sign(pc, -2.0, end) == sign
        assert fam.end_sign(closed_profile(pc, end), -2.0, end) == sign

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    @pytest.mark.parametrize("lead,sign", [(1.0, 1), (-1.0, -1)])
    def test_largest_explog_power_decides(self, end, lead, sign):
        # log(f(t) t^-2) = lead |log t|^0.5 - 2 lead |log t|^0.3: the first
        # term dominates although the coefficients sum to -lead
        pc = piece(PowerFactor(2), ExpLogFactor(lead, 0.5), ExpLogFactor(-2 * lead, 0.3))
        assert limit_sign(pc, -2.0, end) == sign
        assert integrable(pc, -3.0, end) == (sign < 0)
        p = closed_profile(pc, end)
        assert fam.end_sign(p, -2.0, end) == sign
        assert fam.integral_sign(p, -3.0, end) == -sign


class TestCompareGrowth:
    def test_superpolynomial_against_power(self):
        exp_inf = piece(ExpPowerFactor(1.0, 1.0))
        flat_zero = piece(ExpPowerFactor(-1.0, -1.0))
        power = piece(PowerFactor(2))
        assert compare_growth(exp_inf, power, "infinity") == 1
        assert compare_growth(power, exp_inf, "infinity") == -1
        # superflat near zero: the smaller function
        assert compare_growth(flat_zero, power, "zero") == -1
        assert compare_growth(power, flat_zero, "zero") == 1

    def test_superpolynomial_scales_compare_by_beta(self):
        e1, e2 = piece(ExpPowerFactor(1.0, 1.0)), piece(ExpPowerFactor(1.0, 2.0))
        assert compare_growth(e2, e1, "infinity") == 1
        assert compare_growth(e1, e2, "infinity") == -1
        # near zero the more negative beta is the flatter, smaller function
        f1, f2 = piece(ExpPowerFactor(-1.0, -1.0)), piece(ExpPowerFactor(-1.0, -2.0))
        assert compare_growth(f2, f1, "zero") == -1
        assert compare_growth(f1, f2, "zero") == 1

    def test_superpolynomial_ties(self):
        e1 = piece(ExpPowerFactor(1.0, 1.0))
        # equal beta: the coefficient loses to the dilation
        assert compare_growth(piece(ExpPowerFactor(5.0, 1.0)), e1, "infinity") == -1
        inf = piece(ConstFactor(math.inf))
        assert compare_growth(inf, inf, "infinity") == 0

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    def test_constant_pieces_bound_every_other_piece(self, end):
        # 0 lies below and inf above every positive finite piece, the
        # superpolynomial and superflat ones included
        zero, inf = piece(ConstFactor(0.0)), piece(ConstFactor(math.inf))
        for other in (piece(PowerFactor(2), LogFactor(-3)),
                      fam.exp_type(-1, 1).piece(end), fam.exp_type(-2, 2).piece(end)):
            assert compare_growth(zero, other, end) == -1
            assert compare_growth(other, zero, end) == 1
            assert compare_growth(inf, other, end) == 1
            assert compare_growth(other, inf, end) == -1
        assert compare_growth(zero, inf, end) == -1
        assert compare_growth(inf, zero, end) == 1
        assert compare_growth(zero, zero, end) == 0
        assert compare_growth(inf, inf, end) == 0

    def test_linf_against_exp_type(self):
        linf, exp = fam.linf(), fam.exp_type(-1, 1)
        # Linf dominates through its jump to inf, not through its zero end
        assert compare_growth(linf.near_zero, exp.near_zero, "zero") == -1
        assert compare_growth(linf.near_infinity, exp.near_infinity, "infinity") == 1
        # 0 near zero and exp(t) near infinity stays below exp(-1/t) @0 |
        # exp(t) @inf dilated, at both ends (0 against exp(-1/t) is
        # test_constant_pieces_bound_every_other_piece's case): exp(t) over
        # exp(lambda t) tends to 0
        assert compare_growth(exp.near_infinity, exp.near_infinity, "infinity") == -1

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    def test_explog_powers_differ(self, end):
        def pc(*explogs):
            return piece(PowerFactor(2), *explogs)

        big_up, big_down = pc(ExpLogFactor(1.0, 0.5)), pc(ExpLogFactor(-1.0, 0.5))
        small_up = pc(ExpLogFactor(3.0, 0.3))
        assert compare_growth(big_up, small_up, end) == 1
        assert compare_growth(big_down, small_up, end) == -1
        assert compare_growth(small_up, big_up, end) == -1
        assert compare_growth(small_up, big_down, end) == 1
        # same power: the net coefficients decide
        assert compare_growth(big_up, pc(ExpLogFactor(0.5, 0.5)), end) == 1
        assert compare_growth(pc(), big_up, end) == -1

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    def test_loglog_decides_at_a_tied_power_and_log(self, end):
        a = piece(PowerFactor(2), LogFactor(1), LogLogFactor(1))
        b = piece(PowerFactor(2), LogFactor(1))
        assert compare_growth(a, b, end) == 1
        assert compare_growth(b, a, end) == -1
        assert compare_growth(a, a, end) == 0

    @pytest.mark.parametrize("end", ["zero", "infinity"])
    def test_shared_explog_factor_leaves_the_l_level(self, end):
        # both log_exponents are +inf here; the l(t) exponents still decide
        a = piece(PowerFactor(2), LogFactor(1), ExpLogFactor(1.0))
        b = piece(PowerFactor(2), ExpLogFactor(1.0))
        assert compare_growth(a, b, end) == 1
        assert compare_growth(b, a, end) == -1


def _two_piece_value(f: fam.AsymptoticFamily, t: np.ndarray) -> np.ndarray:
    """``AsymptoticFamily.value`` as both pieces on every point, one picked
    per point by the sign of log t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(all="ignore"):
        u = np.log(t)
        out = np.where(u <= 0, fam._finite_exp(f.near_zero.log_value(u)),
                       fam._finite_exp(f.near_infinity.log_value(u)))
    return np.where(t == 0.0, 0.0, out)


_VALUE_POINTS = np.concatenate([
    [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1e-20,
     0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0,
     1e20, 1e300, np.finfo(float).max, np.inf],
    np.geomspace(1e-300, 1e300, 241),
])


def test_value_is_the_two_piece_value_bit_for_bit(family_battery):
    # each piece is evaluated on its own half only; the points interleave
    # the halves, so the subsets are not contiguous
    rng = np.random.default_rng(5)
    for name, f in family_battery.items():
        for t in (_VALUE_POINTS, rng.permutation(_VALUE_POINTS),
                  _VALUE_POINTS.reshape(16, 16)):
            with np.errstate(all="ignore"):
                got = f.value(t)
            assert got.shape == t.shape, name
            assert got.tobytes() == _two_piece_value(f, t).reshape(t.shape).tobytes(), name
        for x in (0.0, 1e-5, 1.0, 3.0):
            with np.errstate(all="ignore"):
                got = f.value(x)
            assert isinstance(got, float) and got == _two_piece_value(f, x)[0], name


@pytest.mark.parametrize("factors,want", [
    # coefficients whose products leave double range cancel as in exact
    # arithmetic: t**1e308 t**-1e308 t**2 is t**2
    ((PowerFactor(1e308), PowerFactor(-1e308), PowerFactor(2.0)), lambda t: t * t),
    # a log value past double range saturates: l(t)**1e308 t**1e308 is 0
    # below 1, where t**1e308 wins, and +inf above
    ((LogFactor(1e308), PowerFactor(1e308)),
     lambda t: np.where(t < 1.0, 0.0, np.where(t > 1.0, np.inf, 1.0))),
])
def test_huge_coefficients_saturate_without_warnings(factors, want):
    t = np.array([1e-150, 1e-5, 0.5, 1.0, 2.0, 1e5, 1e150])
    got = piece(*factors).value(t)  # the suite turns warnings into errors
    assert np.allclose(got, want(t), rtol=1e-12, atol=0.0)


def test_an_integer_exponent_renders_without_a_fraction():
    # the integrality test reads the rounded value
    assert PowerFactor(5.999999999999999).render() == "t^6"
    assert LogFactor(-1e-13).render() == "l(t)^0"
    assert LogLogFactor(0.3333333333333333).render() == "ll(t)^0.333333333333"


def test_exp_log_render_names_its_power():
    assert ExpLogFactor(-0.5).render() == "exp(- 0.5 sqrtlog)"
    assert ExpLogFactor(1.0, 0.25).render() == "exp(+ 1 |log t|^0.25)"
