"""The Young-function transforms against closed forms and structure."""

import math

import numpy as np
import pytest

from orlicz_calc import boyd, families as fam, transforms as tr, young
from orlicz_calc.transforms import TransformGateError

import paper_oracles as oracles
from conftest import make


def ell(t):
    return 1.0 + np.abs(np.log(t))


class TestAdmissibility:
    def test_acond(self, ctx31):
        assert tr.check_acond(make(fam.l1()), ctx31)
        assert tr.check_acond(make(fam.lp(3)), ctx31)
        quartic = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(4)),
                                            fam.piece(fam.PowerFactor(4))))
        assert not tr.check_acond(quartic, ctx31)
        assert not tr.check_acond(make(fam.zygmund(3, -1, 3, -1)), ctx31)
        assert tr.check_acond(make(fam.zygmund(3, 1, 3, 1)), ctx31)
        assert not tr.check_acond(make(fam.linf()), ctx31)

    def test_acond_tabulated_heuristic(self, ctx31):
        tab = young.YoungFn(table=make(fam.lp(2)).table)
        assert tr.check_acond(tab, ctx31)
        quartic = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(4)),
                                            fam.piece(fam.PowerFactor(4))))
        tab4 = young.YoungFn(table=quartic.table)
        assert not tr.check_acond(tab4, ctx31)

    def test_bconv(self, ctx31):
        assert tr.check_bconv(make(fam.lp(2)), ctx31)
        assert not tr.check_bconv(make(fam.l1()), ctx31)
        assert not tr.check_bconv(make(fam.lp(1.5)), ctx31)  # critical order
        assert tr.check_bconv(make(fam.zygmund(1.5, -2, 1.5, -2)), ctx31)
        assert not tr.check_bconv(make(fam.zygmund(1.5, -1, 1.5, -1)), ctx31)
        assert tr.check_bconv(make(fam.linf()), ctx31)
        # exponential-decay correction at the critical order converges
        assert tr.check_bconv(make(fam.power_sqrtlog(1.5, -1, 2, 0)), ctx31)


class TestTargetSide:
    def test_g_transform_linear_domain(self, ctx31):
        G = tr.g_transform(make(fam.l1()), ctx31)
        expect = G.t ** (2.0 / 3.0)
        assert np.max(np.abs(G.y - expect) / expect) < 1e-12

    def test_g_constant_at_critical_order(self, ctx31):
        G = tr.g_transform(make(fam.lp(3)), ctx31)
        assert np.max(np.abs(G.y - 1.0)) < 1e-12

    def test_a_gamma_linear_domain(self, ctx31):
        AG = tr.a_gamma(make(fam.l1()), ctx31)
        t = np.geomspace(1e-8, 1e8, 33)
        ratio = np.asarray(AG.eval(t)) / ((2.0 / 3.0) * t ** 1.5)
        assert np.max(np.abs(ratio - 1.0)) < 1e-6

    def test_a_gamma_critical_is_indicator_type(self, ctx31):
        AG = tr.a_gamma(make(fam.lp(3)), ctx31)
        assert AG.eval(0.5) == 0.0
        assert AG.eval(2.0) == math.inf
        assert AG.zero_plateau_end == pytest.approx(1.0, rel=0.2)

    def test_gate_raises(self, ctx31):
        quartic = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(4)),
                                            fam.piece(fam.PowerFactor(4))))
        with pytest.raises(TransformGateError) as err:
            tr.a_gamma(quartic, ctx31)
        assert err.value.code == "acond-violated"

    def test_structure_g_over_t_decreasing(self, ctx31):
        from orlicz_calc.grid import grid_inverse
        for family in (fam.l1(), fam.zygmund(2, 1, 2, 1), fam.lp(2.5)):
            G = tr.g_transform(make(family), ctx31)
            ratio = G.y / G.t
            assert np.all(np.diff(ratio) <= ratio[:-1] * 1e-9 + 1e-300)
            g_inv = grid_inverse(G, G.t)
            fin = np.isfinite(g_inv.y) & (g_inv.y > 0)
            r_inv = g_inv.y[fin] / g_inv.t[fin]
            assert np.all(np.diff(r_inv) >= -r_inv[:-1] * 1e-9)

    def test_a_gamma_tracks_its_running_sup(self, ctx31):
        # the integral form stays within a factor-2 argument dilation of the
        # inverted running supremum it is built from
        for family in (fam.l1(), fam.zygmund(2, 1, 2, 1), fam.lp(2.5)):
            A = make(family)
            G = tr.g_transform(A, ctx31)
            AG = tr.a_gamma(A, ctx31)
            t = np.geomspace(1e-9, 1e9, 73)
            inv_ag = AG.inverse_many(t)
            g_at = np.asarray(G(t), dtype=float)
            # A_gamma(t) <= Ginv(t) <= A_gamma(2t), i.e. in inverse terms
            # G(t) <= inv_ag(t)-side comparisons with constant 2
            assert np.all(inv_ag <= np.asarray(G(2.0 * t)) * (1 + 1e-9) + 1e-300) \
                or np.all(g_at <= AG.inverse_many(2.0 * t) * (1 + 1e-9))
            with np.errstate(invalid="ignore"):
                ratio = inv_ag / g_at
            ratio = ratio[np.isfinite(ratio) & (ratio > 0)]
            assert np.all(ratio <= 2.0 + 1e-6) and np.all(ratio >= 0.5 - 1e-6)

    def test_supout_matches_integral_form(self, ctx31):
        # upper index below n/gamma lets the running sup be dropped
        A = make(fam.power_sqrtlog(2, -1, 2, 1))
        simple = oracles.supout_inverse(A, ctx31)
        AG = tr.a_gamma(A, ctx31)
        t = np.geomspace(1e-9, 1e9, 37)
        full = AG.inverse_many(t)
        ratio = np.asarray(simple(t)) / full
        assert np.nanmax(ratio) / np.nanmin(ratio) < 16.0

    def test_supout_gate(self, ctx31):
        with pytest.raises(TransformGateError):
            oracles.supout_inverse(make(fam.lp(3)), ctx31)


class TestDomainSide:
    def test_domain_near_gamma_equal_n(self):
        # q* = 30: s**(-q*) overflows on the widened grid just where
        # exp(-1/s) has underflowed to 0, and those cells add nothing
        ctx = young.GammaContext(3, 2.9)
        family = fam.exp_type(-1, 1)
        for B in (make(family), young.from_callable(family.value)):
            prof = tr.b_gamma(B, ctx).end_profile("infinity")
            assert prof.q == pytest.approx(3 / 2.9, rel=1e-3)

    def test_f_power_closed_form(self, ctx31):
        B = make(fam.lp(3))
        F = tr.f_transform(B, ctx31)
        sel = (F.t > 1e-8) & (F.t < 1e8)
        expect = F.t[sel] ** 3 / (3.0 - 1.5)
        assert np.max(np.abs(F(F.t[sel]) - expect) / expect) < 1e-9

    def test_f_equivalent_to_b_above_gate(self, ctx31):
        B = make(fam.lp(3))
        F = tr.f_transform(B, ctx31)
        FY = young.YoungFn(table=type(F)(F.t, F.y))
        assert young.equivalent(FY, B).holds

    def test_index_transfer_across_gate(self, ctx31):
        # the F-profile crosses the n/(n-gamma) gate exactly when B does
        gate = ctx31.q_star
        for family, above in ((fam.lp(3), True), (fam.lp(2), True),
                              (fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                                    fam.piece(fam.PowerFactor(1.5))),
                               False)):
            B = make(family)
            i_B = boyd.boyd_indices(B).i_lower
            F = tr.f_transform(B, ctx31)
            FY = young.YoungFn(table=type(F)(F.t, F.y))
            i_F = boyd.boyd_indices(FY, force_numeric=True).i_lower
            assert (i_B > gate * 1.001) == above
            assert (i_F > gate * 1.001) == above

    def test_b_gamma_linf(self, ctx31):
        BG = tr.b_gamma(make(fam.linf()), ctx31)
        t = np.geomspace(1e-8, 1e8, 33)
        ratio = np.asarray(BG.eval(t)) / (t ** 3 / 3.0)
        assert np.max(np.abs(ratio - 1.0)) < 1e-6

    def test_b_gamma_linf_keeps_the_left_node_at_the_jump(self, ctx31):
        # F of Linf is 0 up to the node t = 1 and inf past it, so F^{-1} = 1
        # and E^{-1}(s) = s^3 exactly; the right node of F's jump cell would
        # give 0.24996 t^3
        BG = tr.b_gamma(make(fam.linf()), ctx31)
        t, y = BG.table.t, BG.table.y
        assert np.all(np.abs(y - t ** 3 / 3.0) <= 1e-12 * t ** 3 / 3.0)

    def test_b_gamma_power(self, ctx31):
        BG = tr.b_gamma(make(fam.lp(3)), ctx31)
        t = np.geomspace(1e-8, 1e8, 33)
        ratio = np.asarray(BG.eval(t)) / t ** 1.5
        assert np.nanmax(ratio) / np.nanmin(ratio) < 1.001

    def test_b_gamma_critical_infinity_log(self, ctx31):
        # order n/(n-gamma) with no log: domain grows like t l(t)^(1-gamma/n)
        B = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                      fam.piece(fam.PowerFactor(1.5))))
        BG = tr.b_gamma(B, ctx31)
        t = np.geomspace(1e3, 1e10, 17)
        ratio = np.asarray(BG.eval(t)) / (t * ell(t) ** (2.0 / 3.0))
        assert np.nanmax(ratio) / np.nanmin(ratio) < 4.0

    def test_b_gamma_hint_below_a_critical_power_past_25(self):
        # at (3, 2.9) q* = 30: t^27 is integrable against s^-31 toward
        # infinity, so the domain is t there, although the end screens
        # count an order of 25 or more as superpolynomial
        B = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(40)),
                                      fam.piece(fam.PowerFactor(27))))
        BG = tr.b_gamma(B, young.GammaContext(3, 2.9))
        assert BG.closed_form.render() == "t^1.008403361345 @0 | t^1 @inf"

    def test_intout_matches_integral_form(self, ctx31):
        B = make(fam.zygmund(3, 1, 3, 1))
        simple = oracles.intout_inverse(B, ctx31)
        BG = tr.b_gamma(B, ctx31)
        t = np.geomspace(1e-9, 1e9, 37)
        full = BG.inverse_many(t)
        ratio = np.asarray(simple(t)) / full
        assert np.nanmax(ratio) / np.nanmin(ratio) < 16.0

    def test_e_structure(self, ctx31):
        from orlicz_calc.grid import GridFn, grid_inverse
        for family in (fam.lp(3), fam.linf(), fam.zygmund(2, -1, 2, -1)):
            B = make(family)
            F = tr.f_transform(B, ctx31)
            f_inv = grid_inverse(F, F.t)
            e_vals = np.maximum.accumulate(f_inv.y * f_inv.t ** ctx31.s_star)
            E = GridFn(F.t, e_vals)
            fin = np.isfinite(E.y) & (E.y > 0)
            r = E.y[fin] / E.t[fin]
            assert np.all(np.diff(r) <= r[:-1] * 1e-9 + 1e-300)
            e_inv = grid_inverse(E, E.t)
            fin = np.isfinite(e_inv.y) & (e_inv.y > 0)
            r_inv = e_inv.y[fin] / e_inv.t[fin]
            assert np.all(np.diff(r_inv) >= -r_inv[:-1] * 1e-9)

    def test_intout_gate(self, ctx31):
        with pytest.raises(TransformGateError):
            oracles.intout_inverse(make(fam.lp(1.5)), ctx31)

    def test_bconv_gate_raises(self, ctx31):
        with pytest.raises(TransformGateError) as err:
            tr.b_gamma(make(fam.l1()), ctx31)
        assert err.value.code == "bconv-violated"


class TestImprovedDomain:
    def test_monotone_case_unchanged(self, ctx31):
        A = make(fam.lp(2))
        AS = tr.a_sup(A, ctx31)
        assert young.equivalent(A, AS).holds

    def test_mixed_orders_improve_near_infinity(self, ctx31):
        A = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                      fam.piece(fam.PowerFactor(4))))
        AS = tr.a_sup(A, ctx31)
        lo = np.geomspace(1e-8, 1e-2, 13)
        hi = np.geomspace(1e2, 1e8, 13)
        r_lo = np.asarray(AS.eval(lo)) / lo ** 2
        r_hi = np.asarray(AS.eval(hi)) / hi ** 3
        assert np.nanmax(r_lo) / np.nanmin(r_lo) < 1.001
        assert np.nanmax(r_hi) / np.nanmin(r_hi) < 1.001
        assert not young.equivalent(A, AS).holds

    def test_target_preserved(self, ctx31):
        A = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                      fam.piece(fam.PowerFactor(4))))
        AS = tr.a_sup(A, ctx31)
        assert young.equivalent(tr.a_gamma(A, ctx31), tr.a_gamma(AS, ctx31)).holds

    def test_idempotent(self, ctx31):
        A = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                      fam.piece(fam.PowerFactor(4))))
        AS = tr.a_sup(A, ctx31)
        ASS = tr.a_sup(AS, ctx31)
        assert young.equivalent(AS, ASS).holds


class TestClosedFormTables:
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_zygmund_targets(self, ctx31, p, alpha):
        A = make(fam.zygmund(p, alpha, p, alpha))
        AG = tr.a_gamma(A, ctx31)
        qp = 3 * p / (3 - p)
        ap = 3 * alpha / (3 - p)
        T = make(fam.zygmund(qp, ap, qp, ap))
        t = np.geomspace(1e-10, 1e10, 81)
        ratio = AG.inverse_many(t) / T.inverse_many(t)
        assert np.nanmax(ratio) < 16.0 and np.nanmin(ratio) > 1 / 16.0

    def test_zygmund_domains(self, ctx31):
        B = make(fam.zygmund(3, 1, 3, 1))
        BG = tr.b_gamma(B, ctx31)
        T = make(fam.zygmund(1.5, 0.5, 1.5, 0.5))
        v = young.equivalent(BG, T)
        assert v.holds and max(v.constant_ab, v.constant_ba) < 16.0
