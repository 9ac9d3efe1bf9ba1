"""Property-based invariants over randomly drawn profiles and inputs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orlicz_calc import boyd, families as fam, young
from orlicz_calc.grid import StepFn

from conftest import bisect_inverse


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
    assert young.validate(A) == []


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
