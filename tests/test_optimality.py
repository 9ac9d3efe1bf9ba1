"""Optimal-space decisions, reiteration, and the enlargement witness."""

import math

import numpy as np
import pytest

from orlicz_calc import families as fam, optimality as op, reduction as red
from orlicz_calc import transforms as tr, young

from conftest import assert_level_bits, make


def mixed(p0, pinf):
    return fam.AsymptoticFamily(fam.piece(fam.PowerFactor(p0)),
                                fam.piece(fam.PowerFactor(pinf)))


class TestOptimalTarget:
    def test_power_log_family_is_optimal(self, ctx31):
        r = op.optimal_target(make(fam.zygmund(2, 0, 2, 0)), ctx31)
        assert r.kind == "optimal"
        assert r.index_value == pytest.approx(6.0)
        assert r.gate == pytest.approx(1.5)

    def test_order_one_has_no_optimal(self, ctx31):
        r = op.optimal_target(make(fam.zygmund(1, 0, 1, 0)), ctx31)
        assert r.kind == "no-optimal-exists"
        assert r.index_value == pytest.approx(1.5)

    def test_too_steep_has_no_target(self, ctx31):
        r = op.optimal_target(make(mixed(4.0, 4.0)), ctx31)
        assert r.kind == "no-target-exists"
        assert "acond-failed" in r.flags

    def test_minimality_on_fixtures(self, ctx31):
        A = make(fam.lp(2))
        result = op.optimal_target(A, ctx31)
        assert result.kind == "optimal"
        target = result.target
        assert red.bounded(A, target, ctx31).holds
        for bfam in (fam.lp(6), fam.zygmund(6, -1, 6, -1), fam.lp(5.5),
                     fam.zygmund(6, 1, 6, 1), mixed(6.0, 5.0)):
            B = make(bfam)
            if red.bounded(A, B, ctx31).holds:
                assert young.dominates(target, B).holds, bfam

    def test_indeterminate_for_tabulated_straddle(self, ctx31, monkeypatch):
        from orlicz_calc.boyd import BoydEstimate
        monkeypatch.setattr(
            op, "boyd_indices",
            lambda *a, **k: BoydEstimate(1.5, 1.5, 0.05, "numeric-limit"))
        with pytest.raises(op.IndeterminateIndexError):
            op.optimal_target(make(fam.lp(2)), ctx31)


class TestOptimalDomain:
    def test_power_log_domain(self, ctx31):
        r = op.optimal_domain(make(fam.zygmund(3, 1, 3, 1)), ctx31)
        assert r.kind == "optimal" and r.simplified
        T = make(fam.zygmund(1.5, 0.5, 1.5, 0.5))
        assert young.equivalent(r.domain, T).holds

    def test_no_domain_below_critical(self, ctx31):
        assert op.optimal_domain(make(fam.l1()), ctx31).kind == "no-domain-exists"

    def test_linf_domain(self, ctx31):
        r = op.optimal_domain(make(fam.linf()), ctx31)
        assert r.kind == "optimal"
        assert young.equivalent(r.domain, make(fam.lp(3))).holds

    def test_maximality_on_fixtures(self, ctx31):
        B = make(fam.lp(6))
        result = op.optimal_domain(B, ctx31)
        domain = result.domain
        assert red.bounded(domain, B, ctx31).holds
        for afam in (fam.lp(2), fam.zygmund(2, 1, 2, 1), fam.lp(2.5),
                     mixed(2.0, 4.0)):
            A = make(afam)
            if red.bounded(A, B, ctx31).holds:
                assert young.dominates(A, domain).holds, afam


class TestReiteration:
    def test_range_roundtrip_above_gate(self, ctx31):
        rr = op.reiterate_range(make(fam.lp(3)), ctx31)
        assert rr.target_optimal and rr.roundtrip_equivalent

    def test_range_gate_failure_reported(self, ctx31):
        rr = op.reiterate_range(make(fam.lp(1.5)), ctx31)
        assert not rr.roundtrip_equivalent
        assert "bconv-failed" in rr.flags

    def test_range_dichotomy_at_critical_index(self, ctx31):
        B = make(mixed(2.0, 1.5))  # lower index exactly at the gate
        rr = op.reiterate_range(B, ctx31)
        assert not rr.target_optimal
        assert not rr.roundtrip_equivalent
        # the roundtrip produces a strictly larger profile near infinity
        t = np.geomspace(1e4, 1e10, 13)
        ratio = np.asarray(rr.target.eval(t)) / np.asarray(B.eval(t))
        assert np.all(np.diff(ratio) > 0)

    def test_linf_roundtrip(self, ctx31):
        rr = op.reiterate_range(make(fam.linf()), ctx31)
        assert rr.target_optimal and rr.roundtrip_equivalent

    def test_domain_improvement(self, ctx31):
        dd = op.reiterate_domain(make(mixed(2.0, 4.0)), ctx31)
        assert dd.improvement_strict and dd.target_optimal and dd.target_preserved

    def test_domain_gate_failure_reported(self, ctx31):
        # t^6 has A(t) t^(-3) -> 0 near zero: no target, hence no improvement
        dd = op.reiterate_domain(make(fam.lp(6)), ctx31)
        assert dd.improved is None
        assert not (dd.improvement_strict or dd.target_optimal or dd.target_preserved)
        assert dd.flags == ("acond-failed",)

    def test_domain_improvement_keeps_the_target_at_the_critical_power(self):
        # zyg(2,1,2,1) at (1, 0.5): q = n/gamma = 2 at both ends; toward zero
        # A^{-1}(t) t^-1/2 ~ l(t)^-1/2 -> 0, so the improved domain keeps
        # A's t^2 l(t) there, and A and it share the target exp(-t^-2)
        dd = op.reiterate_domain(make(fam.zygmund(2, 1, 2, 1)), young.GammaContext(1, 0.5))
        assert dd.improved.closed_form.render() == "t^2 l(t)^1 @0 | t^2 @inf"
        assert dd.target_preserved is True

    def test_domain_no_improvement_for_power(self, ctx31):
        dd = op.reiterate_domain(make(fam.lp(2)), ctx31)
        assert not dd.improvement_strict
        assert dd.target_preserved

    @pytest.mark.parametrize("family", [
        mixed(2.0, 4.0), fam.lp(2), fam.zygmund(2, 1, 2, 1),
        mixed(1.5, 5.0), fam.zygmund(2.5, -1, 2.5, -1)])
    def test_index_relation(self, ctx31, family):
        # 1/i(target of improved) + gamma/n = 1/i(improved), within 2%
        from orlicz_calc.boyd import boyd_indices
        A = make(family)
        AS = tr.a_sup(A, ctx31)
        ASG = tr.a_gamma(AS, ctx31)
        i_sup = boyd_indices(AS).i_lower
        i_asg = boyd_indices(ASG).i_lower
        lhs = 1.0 / i_asg + ctx31.s_star
        rhs = 1.0 / i_sup
        assert lhs == pytest.approx(rhs, rel=0.02)


@pytest.fixture(scope="module")
def small_domain_fixture():
    return make(fam.AsymptoticFamily(
        fam.piece(fam.PowerFactor(1.5), fam.LogFactor(-2)),
        fam.piece(fam.PowerFactor(1.2))), label="B")


@pytest.fixture(scope="module")
def direct_branch(ctx31, small_domain_fixture):
    """The witness against a D with D(t)/t^q* vanishing at zero."""
    A = make(fam.zygmund(1, -0.5, 1, 0.5))
    D = tr.a_gamma(A, ctx31)
    return A, op.witness_improvement(small_domain_fixture, D, ctx31)


def scalar_tau(B, level):
    """One level at a time: sup{s in (0, 1]: B(s)/s <= level}."""
    def phi(s):
        return float(B._monotone_eval(np.array([s]))[0]) / s
    lo, hi = math.log(1e-90), 0.0
    if phi(math.exp(lo)) > level:
        return 0.0
    if phi(1.0) <= level:
        return 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if phi(math.exp(mid)) <= level:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


def tau_ok(B, levels):
    """The predicate of the tau search, B(s)/s <= level at s = exp(u) by
    libm's exp, as ``assert_level_bits`` reads it."""
    def ok(u, idx):
        s = young.libm_exp(u)
        return B._monotone_eval(s) / s <= levels[idx]
    return ok


class TestTauMany:

    @pytest.fixture(params=["small-domain", "t^2"])
    def profile(self, request, small_domain_fixture):
        if request.param == "t^2":
            return make(fam.lp(2))
        return small_domain_fixture

    def test_matches_scalar_bisection(self, profile):
        lo = float(profile._monotone_eval(np.array([1e-90]))[0]) / 1e-90
        hi = float(profile._monotone_eval(np.array([1.0]))[0])
        rng = np.random.default_rng(4)
        levels = np.exp(rng.uniform(math.log(lo) - 3.0, math.log(hi) + 3.0, 40))
        want = [scalar_tau(profile, float(level)) for level in levels]
        assert_level_bits(tau_ok(profile, levels), young.libm_exp,
                          op._tau_many(profile, levels), want)

    def test_end_values(self, profile):
        lo = float(profile._monotone_eval(np.array([1e-90]))[0]) / 1e-90
        hi = float(profile._monotone_eval(np.array([1.0]))[0])
        taus = op._tau_many(profile, np.array([0.5 * lo, hi, 2.0 * hi]))
        assert taus.tolist() == [0.0, 1.0, 1.0]

    def test_level_not_exceeded_inside(self, profile):
        levels = np.geomspace(1e-40, 1e-1, 60)
        taus = op._tau_many(profile, levels)
        inside = (taus > 0.0) & (taus < 1.0)
        assert inside.sum() > 30
        phi = profile._monotone_eval(taus[inside]) / taus[inside]
        assert np.all(phi <= levels[inside])


class TestWitness:

    def test_bounded_precondition(self, ctx31, small_domain_fixture):
        assert red.bounded(make(fam.zygmund(1, 0, 1, 0)),
                           small_domain_fixture, ctx31).holds

    def test_constant_ratio_path(self, ctx31, small_domain_fixture):
        A = make(fam.zygmund(1, 0, 1, 0))
        D = tr.a_gamma(A, ctx31)
        w = op.witness_improvement(small_domain_fixture, D, ctx31)
        assert "auxiliary-profile" in w.flags
        assert len(w.t_rungs) >= 2
        # the ladder is forced shallow by double precision and is reported
        assert ("witness-unconstructible" in w.flags) == (len(w.t_rungs) < 3)
        assert all(r >= 10.0 * (k + 1) for k, r in enumerate(w.selection_ratios))
        assert w.bound_margin <= 1.0 + 1e-6
        assert red.criterion_iii(A, w.young, ctx31).holds

    def test_vanishing_ratio_path(self, ctx31, direct_branch):
        A, w = direct_branch
        assert "auxiliary-profile" not in w.flags
        assert len(w.t_rungs) >= 3
        assert "witness-unconstructible" not in w.flags
        assert all(r >= 10.0 * (k + 1) for k, r in enumerate(w.selection_ratios))
        # growth evidence along the ladder scales at least like the targets
        floors = [10.0 * (k + 1) / 2.0 for k in range(len(w.domination_ratios))]
        assert all(r >= f for r, f in zip(w.domination_ratios, floors))
        assert w.bound_margin <= 1.0 + 1e-6
        assert red.criterion_iii(A, w.young, ctx31).holds

    def test_witness_still_dominated_by_construction_profile(self, direct_branch,
                                                             small_domain_fixture):
        _, w = direct_branch
        B1, B = w.young, small_domain_fixture
        # B1 >= B everywhere, strictly larger inside the chords
        t = np.geomspace(1e-12, 1e12, 101)
        v1 = np.asarray(B1._monotone_eval(t))
        v0 = np.asarray(B._monotone_eval(t))
        assert np.all(v1 >= v0 * (1 - 1e-9))
