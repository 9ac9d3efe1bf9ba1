"""Dilation function and Boyd indices."""

import math

import numpy as np
import pytest

from orlicz_calc import boyd, families as fam, transforms as tr, young

from conftest import bisect_inverse, make


def dense_dilation_oracle(closed_form, t, ppd=96):
    """sup over a dense grid of inv(s t)/inv(s), with inv computed by an
    independent bisection on the closed form."""
    s = np.power(10.0, np.arange(-12.0, 12.0, 1.0 / ppd))
    inv = np.array([bisect_inverse(closed_form, x) for x in s])
    inv_t = np.array([bisect_inverse(closed_form, x) for x in s * t])
    ratio = inv_t / inv
    return float(np.max(ratio[np.isfinite(ratio)]))


class TestDilation:
    def test_power_scaling(self):
        A = make(fam.lp(3))
        assert boyd.dilation(A, 1e4) == pytest.approx(1e4 ** (1 / 3), rel=1e-9)
        assert boyd.dilation(A, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_zygmund_against_dense_oracle(self):
        A = make(fam.zygmund(2, 1, 2, 1))
        closed = lambda t: t * t * (1.0 + abs(math.log(t)))
        oracle = dense_dilation_oracle(closed, 1e4, ppd=96)
        got = boyd.dilation(A, 1e4)
        assert got == pytest.approx(oracle, rel=0.02)
        # leading order is t^(1/2); the slowly varying boost is genuine
        assert got > 1e2

    def test_identity_for_linf(self):
        assert boyd.dilation(make(fam.linf()), 1e6) == pytest.approx(1.0, abs=1e-9)


class TestIndices:
    @pytest.mark.parametrize("p", [1.2, 2.0, 5.0])
    def test_numeric_powers_within_one_percent(self, p):
        est = boyd.boyd_indices(make(fam.lp(p)), force_numeric=True)
        assert est.method == "numeric-limit"
        assert est.i_lower == pytest.approx(p, rel=0.01)
        assert est.I_upper == pytest.approx(p, rel=0.01)

    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_zygmund_log_shift_within_two_percent(self, alpha):
        est = boyd.boyd_indices(make(fam.zygmund(2, alpha, 2, alpha)),
                                force_numeric=True)
        assert est.i_lower == pytest.approx(2.0, rel=0.02)
        assert est.I_upper == pytest.approx(2.0, rel=0.02)

    def test_symbolic_closed_forms(self):
        assert boyd.boyd_indices(make(fam.zygmund(2, 1, 2, 1))).i_lower == 2.0
        est = boyd.boyd_indices(make(fam.exp_type(-1, 1)))
        assert est.i_lower == math.inf and est.I_upper == math.inf
        mixed = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                          fam.piece(fam.PowerFactor(3))))
        est = boyd.boyd_indices(mixed)
        assert (est.i_lower, est.I_upper) == (2.0, 3.0)

    def test_numeric_matches_symbolic_on_mixed_orders(self):
        mixed = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                          fam.piece(fam.PowerFactor(3))))
        est = boyd.boyd_indices(mixed, force_numeric=True)
        assert est.i_lower == pytest.approx(2.0, rel=0.01)
        assert est.I_upper == pytest.approx(3.0, rel=0.01)

    def test_numeric_exp_type_is_infinite(self):
        est = boyd.boyd_indices(make(fam.exp_type(-1, 1)), force_numeric=True)
        assert est.i_lower == math.inf

    def test_conservative_gating(self):
        est = boyd.boyd_indices(make(fam.lp(2)), force_numeric=True)
        assert est.i_conservative <= est.i_lower <= est.I_upper + est.ci_halfwidth + 1e-12
        assert not est.indeterminate_against(1.5)


class TestOneInverse:
    """The ladder of dilations from one inverse of all its products s t."""

    def test_same_bits_as_one_inverse_per_rung(self, family_battery, monkeypatch, ctx31):
        one_t = boyd._dilations

        def per_rung(A, ts):
            # a loop of what boyd.dilation(A, t) computes, one t at a time
            return np.array([one_t(A, np.array([t]))[0] for t in ts])

        def inputs():
            for name, family in family_battery.items():
                yield name, lambda f=family: young.from_family(f)
                yield f"callable {name}", lambda f=family: young.from_callable(f.value)
                yield f"a_gamma {name}", lambda f=family: tr.a_gamma(young.from_family(f), ctx31)

        for label, build in inputs():
            try:
                got = boyd.boyd_indices(build(), force_numeric=True)
            except tr.TransformGateError:
                continue
            with monkeypatch.context() as m:
                m.setattr(boyd, "_dilations", per_rung)
                want = boyd.boyd_indices(build(), force_numeric=True)
            assert got == want, label

    def test_dilation_is_one_rung(self):
        A = make(fam.zygmund(2, 1, 2, 1))
        ts = np.array([1e-5, 1e4, 1e8])
        assert np.array_equal(boyd._dilations(A, ts), [boyd.dilation(A, t) for t in ts])

    def test_numeric_indices_of_a_callable_take_two_inverses(self, young_calls):
        # ten dilations plus the inverse on the grid took eleven
        A = young.from_callable(fam.zygmund(2, 1, 2, 1).value)
        young_calls.calls.clear()
        boyd.boyd_indices(A, force_numeric=True)
        assert young_calls.calls["inverse_many"] <= 2
