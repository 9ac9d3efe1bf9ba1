"""Boundedness criteria, their agreement, and the endpoint shortcuts."""

import math

import pytest

from orlicz_calc import families as fam, reduction as red, transforms as tr, young

from conftest import make


def mixed(p0, pinf, a0=0.0, ainf=0.0):
    return fam.AsymptoticFamily(
        fam.piece(fam.PowerFactor(p0), fam.LogFactor(a0)),
        fam.piece(fam.PowerFactor(pinf), fam.LogFactor(ainf)))


class TestCriteria:
    def test_optimal_power_pair(self, ctx31):
        v = red.bounded(make(fam.lp(2)), make(fam.lp(6)), ctx31)
        assert v.holds and v.constant < 10

    def test_log_divergence_breaks_it(self, ctx31):
        # target exactly at the computed-profile scale fails by a log factor
        v3 = red.criterion_iii(make(fam.l1()), make(fam.lp(1.5)), ctx31)
        assert not v3.holds

    def test_power_target_mismatch_rejected_both_sides(self, ctx31):
        A = make(fam.lp(2))
        assert not red.bounded(A, make(fam.lp(5)), ctx31).holds
        assert not red.bounded(A, make(fam.lp(6.5)), ctx31).holds

    def test_log_refinement(self, ctx31):
        A = make(fam.lp(2))
        assert red.bounded(A, make(fam.zygmund(6, -1, 6, -1)), ctx31).holds
        assert not red.bounded(A, make(fam.zygmund(6, 0.5, 6, 0.5)), ctx31).holds

    def test_convergent_mixed_domain_from_l1(self, ctx31):
        B = make(mixed(2.0, 1.2))
        v3 = red.criterion_iii(make(fam.l1()), B, ctx31)
        v4 = red.criterion_iv(make(fam.l1()), B, ctx31)
        assert v3.holds and v4.holds

    def test_divergent_lhs_flagged(self, ctx31):
        v = red.criterion_iii(make(fam.l1()), make(fam.l1()), ctx31)
        assert not v.holds and "lhs-divergent" in v.flags

    def test_acond_gate_flagged(self, ctx31):
        quartic = make(fam.AsymptoticFamily(fam.piece(fam.PowerFactor(4)),
                                            fam.piece(fam.PowerFactor(4))))
        v = red.criterion_iii(quartic, make(fam.lp(6)), ctx31)
        assert not v.holds and "acond-failed" in v.flags

    def test_exponential_borderline_pair(self, ctx31):
        A = make(fam.zygmund(3, 1, 3, -2))
        B = make(fam.AsymptoticFamily(
            fam.piece(fam.ExpPowerFactor(-1.0, -3.0)),
            fam.piece(fam.ExpPowerFactor(1.0, 1.5))))
        v = red.bounded(A, B, ctx31)
        assert v.holds

    def test_agreement_battery(self, ctx31, criteria_battery):
        for name, A, B in criteria_battery:
            v3 = red.criterion_iii(A, B, ctx31)
            v4 = red.criterion_iv(A, B, ctx31)
            assert v3.holds == v4.holds, (name, v3, v4)


@pytest.fixture(scope="session")
def criteria_battery(ctx31):
    """Twenty pairs spanning the power-log and exponential families."""
    pairs = []

    def add(name, a, b):
        pairs.append((name, make(a, label=name + ":A"), make(b, label=name + ":B")))

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
    add("mixed-order", mixed(2.0, 4.0), mixed(6.0, 3.0, 0.0, 0.0))
    add("mixed-fail", mixed(2.0, 4.0), fam.lp(6))
    add("domain-improved", mixed(2.0, 1.4), mixed(6.0, 1.4 * 3 / (3 - 1.4)))
    add("exp-domain", fam.exp_type(-1, 1), fam.linf())
    add("too-big-target", fam.lp(3), fam.lp(2))
    assert len(pairs) == 20
    return pairs


class TestBoundedPolicy:
    def test_narrow_miss_rejected_by_both(self, ctx31):
        v = red.bounded(make(fam.lp(2.99)), make(fam.linf()), ctx31)
        assert not v.holds

    def test_conservative_on_disagreement(self, ctx31, monkeypatch):
        yes = red.Verdict(True, 2.0, "iii", 1.0, ())
        no = red.Verdict(False, math.nan, "iv", 1.0, ())
        monkeypatch.setattr(red, "criterion_iii", lambda *a, **k: yes)
        monkeypatch.setattr(red, "criterion_iv", lambda *a, **k: no)
        v = red.bounded(make(fam.lp(2)), make(fam.lp(6)), ctx31)
        assert not v.holds
        assert "criterion-disagreement" in v.flags

    @pytest.mark.parametrize("cap", [0.5, 0.0, -1.0, math.nan, math.inf])
    def test_constant_cap_below_one_rejected(self, ctx31, cap):
        with pytest.raises(ValueError, match="constant cap"):
            red.bounded(make(fam.lp(2)), make(fam.lp(6)), ctx31, constant_cap=cap)

    def test_target_monotone(self, ctx31):
        A = make(fam.lp(2))
        assert red.bounded(A, make(fam.lp(6)), ctx31).holds
        smaller = make(fam.zygmund(6, -1, 6, -1))  # dominated by t^6
        assert young.dominates(make(fam.lp(6)), smaller).holds
        assert red.bounded(A, smaller, ctx31).holds

    def test_domain_monotone(self, ctx31):
        B = make(fam.lp(6))
        assert red.bounded(make(fam.lp(2)), B, ctx31).holds
        bigger = make(fam.zygmund(2, 1, 2, 1))  # dominates t^2
        assert young.dominates(bigger, make(fam.lp(2))).holds
        assert red.bounded(bigger, B, ctx31).holds


class TestOtherContexts:
    """Nothing is special about (n, gamma) = (3, 1)."""

    @pytest.mark.parametrize("n,gamma", [(5, 2.5), (3, 0.5), (2, 1.3), (4, 3.7)])
    def test_lebesgue_scaling_line(self, n, gamma):
        ctx = red.GammaContext(n, gamma)
        p = min(1.5, 1.0 + 0.4 * (ctx.r_star - 1.0))
        qp = n * p / (n - gamma * p)
        A, B = make(fam.lp(p)), make(fam.lp(qp))
        assert red.bounded(A, B, ctx).holds
        assert not red.bounded(A, make(fam.lp(qp * 1.5)), ctx).holds

    def test_steep_exponents_stay_finite_valued(self):
        ctx = red.GammaContext(2, 1.3)
        B = make(fam.lp(60.0))
        assert B.finite_sup == math.inf
        assert B.zero_plateau_end == 0.0
        assert red.bounded(make(fam.lp(1.5)), B, ctx).holds


class TestEndpoints:
    def test_linf_target(self, ctx31):
        assert red.endpoint_linf_target(make(fam.lp(3)), ctx31).holds
        assert not red.endpoint_linf_target(make(fam.lp(2.99)), ctx31).holds
        assert not red.endpoint_linf_target(make(fam.zygmund(3, 0, 3, -1)), ctx31).holds
        assert red.endpoint_linf_target(make(fam.zygmund(3, 0, 3, 1)), ctx31).holds
        # superflat near zero loses the lower bound there
        assert not red.endpoint_linf_target(make(fam.exp_type(-1, 1)), ctx31).holds

    def test_l1_domain(self, ctx31):
        assert red.endpoint_l1_domain(make(mixed(2.0, 1.2)), ctx31).holds
        assert not red.endpoint_l1_domain(make(fam.lp(1.5)), ctx31).holds
        assert red.endpoint_l1_domain(
            make(fam.zygmund(1.5, -2, 1.5, -2)), ctx31).holds
        assert not red.endpoint_l1_domain(make(fam.linf()), ctx31).holds

    def test_endpoint_consistency(self, ctx31):
        linf = make(fam.linf())
        for A in (make(fam.lp(3)), make(fam.lp(2.99)), make(fam.zygmund(3, 1, 3, 1)),
                  make(fam.lp(4))):
            lhs = red.endpoint_linf_target(A, ctx31).holds
            rhs = red.bounded(A, linf, ctx31).holds
            assert lhs == rhs, A.label
        l1 = make(fam.l1())
        for B in (make(mixed(2.0, 1.2)), make(fam.lp(1.5)),
                  make(fam.zygmund(1.5, -2, 1.2, 0)), make(fam.lp(3)),
                  make(fam.linf()), make(mixed(1.7, 1.3))):
            lhs = red.endpoint_l1_domain(B, ctx31).holds
            rhs = red.bounded(l1, B, ctx31).holds
            assert lhs == rhs, B.label


class TestEndRule:
    """The end-exponent gates give one answer per profile, whether it comes
    as a closed form, a callable or a table."""

    CHECKS = {
        "acond": tr.check_acond,
        "bconv": tr.check_bconv,
        "linf": lambda A, ctx: red.endpoint_linf_target(A, ctx).holds,
        "l1": lambda A, ctx: red.endpoint_l1_domain(A, ctx).holds,
    }

    @staticmethod
    def forms(family):
        return (young.from_family(family), young.from_callable(family.value),
                young.from_table(young.from_family(family).table))

    @pytest.mark.parametrize("ctx", [young.GammaContext(3, 1.0),
                                     young.GammaContext(1, 0.5)],
                             ids=["3,1", "1,0.5"])
    def test_forms_agree_on_battery(self, family_battery, ctx):
        for name, family in family_battery.items():
            forms = self.forms(family)
            for check_name, check in self.CHECKS.items():
                answers = [check(A, ctx) for A in forms]
                assert len(set(answers)) == 1, (name, check_name, answers)

    @pytest.mark.parametrize("a", [-1.3, -1.08, -1.0, -0.9])
    def test_critical_log_exponent_band(self, ctx31, a):
        # at the critical power q* = 1.5 the l(t) exponent a decides
        # convergence: it holds exactly when a < -1
        for family, check in ((fam.zygmund(1.5, a, 1.5, 0), self.CHECKS["bconv"]),
                              (fam.zygmund(2, 0, 1.5, a), self.CHECKS["l1"])):
            answers = [check(A, ctx31) for A in self.forms(family)]
            assert answers == [a < -1.0] * 3, (family.render(), answers)
