"""Property-based invariants over randomly drawn profiles and inputs."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orlicz_calc import boyd, families as fam, optimality, reduction, specdsl as dsl
from orlicz_calc import transforms as tr, young
from orlicz_calc.families import (AsymPiece, ConstFactor, ExpLogFactor, ExpPowerFactor, LogFactor,
                                  LogLogFactor, PowerFactor, piece)
from orlicz_calc.grid import StepFn

import paper_oracles as oracles
from conftest import bisect_inverse, closed_profile


def _zygmund_params(draw_p, draw_a):
    p, a = draw_p, draw_a
    if abs(p - 1.0) < 1e-9:
        a = -abs(a)
    return p, a


families = st.one_of(
    st.builds(fam.lp, st.floats(1.0, 8.0)),
    st.builds(
        lambda p0, a0, pinf, ainf: fam.zygmund(
            *_zygmund_params(p0, a0), *(lambda p, a: (p, abs(a) if abs(p - 1.0) < 1e-9 else a))(pinf, ainf)),
        st.floats(1.0, 5.0), st.floats(-2.0, 2.0),
        st.floats(1.0, 5.0), st.floats(-2.0, 2.0)),
)


@settings(max_examples=25, deadline=None)
@given(families)
def test_table_invariants(family):
    A = young.from_family(family)
    assert oracles.validate(A) == []


@settings(max_examples=25, deadline=None)
@given(families, st.floats(1e-8, 1e8))
def test_rescaling_inequality(family, t):
    A = young.from_family(family)
    for k in (2.0, 10.0):
        lhs = k * float(np.atleast_1d(A.table(np.array([t])))[0])
        rhs = float(np.atleast_1d(A.table(np.array([k * t])))[0])
        if math.isinf(rhs):
            continue
        assert lhs <= rhs * (1 + 1e-6) + 1e-300


@settings(max_examples=15, deadline=None)
@given(families)
@example(fam.zygmund(1.0, -1.96875, 1.0, 2.0))
def test_young_product_bounds(family):
    A = young.from_family(family)
    C = young.conjugate(A)
    t = np.geomspace(1e-10, 1e10, 41)
    prod = A.inverse_many(t) * C.inverse_many(t)
    ratio = prod / t
    assert np.nanmin(ratio) >= 1 - 1e-6
    assert np.nanmax(ratio) <= 2 + 2e-6


@settings(max_examples=15, deadline=None)
@given(families, st.floats(1e-6, 1e6))
def test_indicator_norm_formula(family, r):
    A = young.from_family(family)
    g = StepFn(np.array([r]), np.array([1.0]))
    got = young.luxemburg_norm(A, g)
    oracle = 1.0 / bisect_inverse(
        lambda u: float(np.atleast_1d(A._monotone_eval(np.array([u])))[0]), 1.0 / r)
    assert got == pytest.approx(oracle, rel=1e-4)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 50.0), st.floats(0.01, 10.0)),
                min_size=1, max_size=8))
def test_rearrangement_preserves_norm(cells):
    A = young.from_family(fam.zygmund(2, 1, 2, 1))
    fstar = young.rearrangement(cells)
    breaks = np.cumsum([m for _, m in cells])
    direct = StepFn(np.array(breaks), np.array([v for v, _ in cells]))
    n1 = young.luxemburg_norm(A, fstar)
    n2 = young.luxemburg_norm(A, direct)
    assert n1 == pytest.approx(n2, rel=1e-6)
    assert fstar.total_integral() == pytest.approx(
        sum(v * m for v, m in cells), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(families, st.floats(0.01, 100.0), st.floats(0.01, 100.0))
# order-1 ends whose fitted order lands a hair below 1 (h(4) > h(2)**2 once)
@example(fam.zygmund(1, -1, 1, 1), 2.0, 2.0)
def test_dilation_submultiplicative(family, s, t):
    A = young.from_family(family)
    h_st = boyd.dilation(A, s * t)
    h_s = boyd.dilation(A, s)
    h_t = boyd.dilation(A, t)
    assert h_st <= h_s * h_t * (1 + 1e-6)


@settings(max_examples=15, deadline=None)
@given(families)
def test_boyd_ordering(family):
    A = young.from_family(family)
    est = boyd.boyd_indices(A, force_numeric=True)
    assert 1.0 - 1e-9 <= est.i_lower <= est.I_upper


@settings(max_examples=10, deadline=None)
@given(families, families)
def test_domination_defines_preorder(f1, f2):
    A, B = young.from_family(f1), young.from_family(f2)
    assert young.dominates(A, A).holds
    v_ab = young.dominates(A, B)
    v_ba = young.dominates(B, A)
    eq = young.equivalent(A, B)
    assert eq.holds == (v_ab.holds and v_ba.holds)


# -- optimality consistency --------------------------------------------------
#
# Where the optimal target exists, M_gamma maps L^A into L^B exactly when the
# target embeds in B; where the optimal domain exists, exactly when A embeds
# in the domain.  The criteria and ``dominates`` both decide through
# ``young.ladder_verdict``, so a change there that breaks one side shows here.

# exponents drawn near the critical ones of both contexts as well as at random
_POWERS = st.one_of(st.sampled_from((1.0, 1.5, 2.0, 3.0)),
                    st.floats(1.0, 6.0).map(lambda x: round(x, 2)))
_LOGS = st.one_of(st.sampled_from((-1.0, 0.0, 1.0)),
                  st.floats(-2.0, 2.0).map(lambda x: round(x, 2)))
_CLOSED_TEXT = st.one_of(
    st.builds("Zygmund({},{},{},{})".format, _POWERS, _LOGS, _POWERS, _LOGS),
    st.builds("Pow @0 t^{} l(t)^{} @inf t^{} l(t)^{}".format,
              _POWERS, _LOGS, _POWERS, _LOGS),
)


def _closed(text):
    """The Young function of a closed description, or None where the DSL
    refuses the exponents (an order-1 end with a log exponent of the wrong
    sign)."""
    try:
        return dsl.parse_spec(text).to_young()
    except dsl.SpecParseError:
        return None


@settings(max_examples=200, deadline=None)
@given(_CLOSED_TEXT, _CLOSED_TEXT, st.sampled_from(((3, 1.0), (1, 0.5))))
@example("Zygmund(2,1,2,1)", "Lp(6)", (3, 1.0))
@example("Lp(2)", "Zygmund(6,0,6,0.04)", (3, 1.0))
def test_bounded_agrees_with_the_optimal_spaces(text_a, text_b, n_gamma):
    A, B = _closed(text_a), _closed(text_b)
    assume(A is not None and B is not None)
    ctx = young.GammaContext(*n_gamma)
    holds = reduction.bounded(A, B, ctx).holds
    target = optimality.optimal_target(A, ctx)
    if target.kind == "optimal":
        assert young.dominates(target.target, B).holds == holds
    domain = optimality.optimal_domain(B, ctx)
    if domain.kind == "optimal":
        assert young.dominates(A, domain.domain).holds == holds


# -- exact end comparisons against the log-space forms at huge |log t| -------
#
# Every order is either tied or at least 0.05 from its tie, and the ranges
# keep each level ahead of all lower ones already at |log t| = 1e8: the
# l(l(t)) exponent moves log f by at least 0.033 between 1e8 and 1e16, an
# l(t) exponent of 0.05 outweighs an l(l(t)) exponent of 1, and an exp-log
# factor outweighs every l(t) exponent drawn here.

_OFFSETS = st.one_of(st.just(0.0), st.floats(0.05, 3.0), st.floats(-3.0, -0.05))
_LL_OFFSETS = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))
_COEFS = st.one_of(st.floats(0.05, 2.0), st.floats(-2.0, -0.05))
# powers of q/8: the tied shifts -q and -1 - q are exact, so ties cancel exactly
_END_ORDERS = st.tuples(
    st.integers(8, 64).map(lambda k: k / 8.0), _OFFSETS, _OFFSETS, _LL_OFFSETS,
    st.dictionaries(st.sampled_from((0.25, 0.5, 0.75)), _COEFS, max_size=2).map(
        lambda d: tuple(ExpLogFactor(c, k) for k, c in d.items())),
    st.sampled_from(("zero", "infinity")))
# exp-log factors at two powers whose coefficients sum to the wrong sign
_TWO_EXPLOGS = (2.0, 0.0, 0.0, 0.0, (ExpLogFactor(1.0, 0.5), ExpLogFactor(-2.0, 0.3)))


def _trend(pc: fam.AsymPiece, end: str) -> int:
    """Does log pc rise (+1), fall (-1) or stay put (0) from |log t| = 1e8
    to 1e16 toward the end?"""
    u = np.array([1e8, 1e16]) * (1.0 if end == "infinity" else -1.0)
    lo, hi = pc.log_value(u)
    return 0 if abs(hi - lo) < 0.01 else int(np.sign(hi - lo))


@settings(max_examples=300, deadline=None)
@given(_END_ORDERS)
@example(_TWO_EXPLOGS + ("zero",))
@example(_TWO_EXPLOGS + ("infinity",))
def test_limit_sign_follows_the_log_trend(orders):
    q, dq, da, dll, explogs, end = orders
    rest = (LogFactor(da), LogLogFactor(dll), *explogs)
    shift = dq - q
    # the shift sits next to the power, so that a tie cancels exactly
    oracle = _trend(piece(PowerFactor(q), PowerFactor(shift), *rest), end)
    pc = piece(PowerFactor(q), *rest)
    assert oracles.limit_sign(pc, shift, end) == oracle
    assert fam.end_sign(closed_profile(pc, end), shift, end) == oracle


@settings(max_examples=300, deadline=None)
@given(_END_ORDERS)
@example(_TWO_EXPLOGS + ("zero",))
@example(_TWO_EXPLOGS + ("infinity",))
def test_integrable_follows_the_log_trend(orders):
    """The integral of f(s) s**w converges exactly when s**(w+1) f(s) l(s)
    l(l(s)) tends to 0."""
    q, dq, da, dll, explogs, end = orders
    w = dq - 1.0 - q
    log_f, loglog_f = LogFactor(da - 1.0), LogLogFactor(dll - 1.0)
    # each critical shift sits next to its exponent, so that a tie cancels exactly
    oracle = _trend(piece(PowerFactor(q), PowerFactor(w + 1.0), log_f, LogFactor(1.0),
                          loglog_f, LogLogFactor(1.0), *explogs), end)
    pc = piece(PowerFactor(q), log_f, loglog_f, *explogs)
    assert oracles.integrable(pc, w, end) == (oracle < 0)
    assert fam.integral_sign(closed_profile(pc, end), w, end) == -oracle


# the factors of a closed-form piece: powers, l(t) and l(l(t)) powers,
# exp(c |log t|**k) with k in {0.25, 0.5} (coefficients that can cancel),
# exp(c t**beta), active toward infinity for beta > 0 and toward zero for
# beta < 0, and now and then a constant
_FACTOR = st.one_of(
    st.floats(-4.0, 4.0).map(PowerFactor),
    st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)).map(LogFactor),
    st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)).map(LogLogFactor),
    st.builds(ExpLogFactor, st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
              st.sampled_from((0.25, 0.5))),
    st.builds(ExpPowerFactor, st.sampled_from((-1.0, 1.0)),
              st.sampled_from((-2.0, -0.5, 0.5, 2.0))),
)
_PIECE = st.one_of(
    st.lists(_FACTOR, min_size=1, max_size=6).map(lambda fs: AsymPiece(tuple(fs))),
    st.lists(st.one_of(_FACTOR, st.sampled_from((0.0, math.inf)).map(ConstFactor)),
             min_size=1, max_size=4).map(lambda fs: AsymPiece(tuple(fs))),
)


@settings(max_examples=400, deadline=None)
@given(_PIECE, st.sampled_from(("zero", "infinity")))
@example(piece(ConstFactor(0.0)), "zero")
@example(piece(ConstFactor(math.inf)), "infinity")
@example(piece(PowerFactor(2.0), ExpLogFactor(1.0, 0.5), ExpLogFactor(-1.0, 0.5),
               LogLogFactor(0.5)), "infinity")
def test_profile_is_the_factor_reading(pc, end):
    """``AsymPiece.profile`` reads the same exponents as the oracle's own
    factor reader."""
    assert pc.profile(end) == oracles.read_factors(pc, end).profile()


# pieces on which every map of the end-profile algebra is defined: a power
# in [lo, 8] and l(t), l(l(t)) and exp(c |log t|**k) factors, k <= 1/2
def _mapped_pieces(lo: float):
    slow = st.one_of(st.floats(-3.0, 3.0).map(LogFactor), st.floats(-3.0, 3.0).map(LogLogFactor),
                     st.builds(ExpLogFactor, st.floats(-2.0, 2.0), st.sampled_from((0.25, 0.5))))
    return st.builds(lambda q, fs: AsymPiece((PowerFactor(q), *fs)),
                     st.floats(lo, 8.0), st.lists(slow, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_mapped_pieces(0.05), st.sampled_from(fam.ENDS))
def test_inverse_of_the_inverse_is_the_identity(pc, end):
    """inv o inv gives back the exact exponents, and the rounded piece
    reads the input's exponents bit for bit."""
    p = fam.rational(pc.exponents(end))
    twice = fam.inverse(fam.inverse(p, end), end)
    assert twice == p
    assert fam.realize(twice, end).exponents(end) == pc.exponents(end)


@settings(max_examples=300, deadline=None)
@given(_mapped_pieces(1.01), _mapped_pieces(1.01))
def test_conjugate_hint_is_an_involution(zero, infinity):
    """For q > 1 the conjugate of the conjugate hint is the input, up to
    the rounding of the two composites."""
    A = fam.AsymptoticFamily(zero, infinity)
    back = fam.conjugate_family(fam.conjugate_family(A))
    for end in fam.ENDS:
        got, want = back.piece(end).exponents(end), A.piece(end).exponents(end)
        assert [k for k, _, _ in got.explogs] == [k for k, _, _ in want.explogs]
        pairs = [(got.q, want.q), (got.alpha, want.alpha),
                 (got.loglog_exponent, want.loglog_exponent),
                 *((c, c0) for (_, c, _), (_, c0, _) in zip(got.explogs, want.explogs))]
        for x, y in pairs:
            assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12), (end, x, y)


_CONTEXTS = ((3, 1.0), (1, 0.5), (2, 1.0), (3, 2.9))
# powers at each context's n/gamma, where the improved domain departs from A
_ORDERS = st.one_of(st.sampled_from([young.GammaContext(*c).r_star for c in _CONTEXTS]),
                    st.floats(1.0, 6.0))
_POWER_PIECE = st.builds(lambda q, fs: AsymPiece((PowerFactor(q), *fs)), _ORDERS, st.lists(
    st.one_of(st.sampled_from((-1.0, -0.5, 0.5, 1.0)).map(LogFactor),
              st.sampled_from((-1.0, -0.5, 0.5, 1.0)).map(LogLogFactor),
              st.builds(ExpLogFactor, st.sampled_from((-1.0, 1.0)), st.sampled_from((0.25, 0.5)))),
    max_size=3))


@settings(max_examples=200, deadline=None)
@given(_POWER_PIECE, st.one_of(_POWER_PIECE, st.sampled_from(
    (piece(ExpPowerFactor(1.0, 1.0)), piece(ConstFactor(math.inf))))), st.sampled_from(_CONTEXTS))
@example(piece(PowerFactor(2.0), LogFactor(1.0)), piece(PowerFactor(2.0), LogFactor(1.0)),
         (1, 0.5))
def test_improved_domain_keeps_the_target_hint(zero, infinity, n_gamma):
    """The paper's reiteration at the hint level: where A passes the
    A-condition, A and its improved domain have the same target."""
    ctx = young.GammaContext(*n_gamma)
    A = young.from_family(fam.AsymptoticFamily(zero, infinity))
    assume(tr.check_acond(A, ctx))
    improved = tr.improved_profile_family(A, ctx)
    assert improved is not None
    assert (tr.target_profile_family(young.from_family(improved), ctx)
            == tr.target_profile_family(A, ctx))


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_power_factor_needs_a_finite_exponent(p):
    with pytest.raises(ValueError):
        PowerFactor(p)
