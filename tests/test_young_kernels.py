"""The numeric kernels of the Young calculus against the brute-force
versions they replaced, kept here as references: the table inverse of
``YoungFn.inverse_many`` against its 90-step bisection (and against a
50-digit inverse of the same power interpolant), ``young.log_bisect`` and
the 64-way plateau search against plain bisections (bit for bit), and the
hull-based conjugate evaluator against the dense (points x nodes) maximum."""

import math
import tracemalloc

import numpy as np
import pytest

from orlicz_calc import families as fam
from orlicz_calc import transforms as tr
from orlicz_calc import young
from orlicz_calc.grid import GridFn, GridSpec
from orlicz_calc.specdsl import parse_spec
from orlicz_calc.young import GammaContext

CONTEXTS = (GammaContext(3, 1.0), GammaContext(1, 0.5))


def plain_log_bisect(ok, lo, hi, iters):
    """``young.log_bisect`` without its exit: every bracket is halved
    ``iters`` times, and ``ok`` sees every midpoint at every step."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    every = np.arange(lo.size)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        up = ok(mid, every)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return lo


def scalar_boundary(pred, lo, hi):
    """``young._bisect_boundary`` as a 90-step bisection in log x that asks
    ``pred`` about one x at a time."""
    def holds(x):
        return bool(pred(np.array([x]))[0])

    if not holds(lo):
        return 0.0
    if holds(hi):
        return math.inf
    a, b = math.log(lo), math.log(hi)
    for _ in range(90):
        mid = 0.5 * (a + b)
        if holds(math.exp(mid)):
            a = mid
        else:
            b = mid
    return math.exp(a)


def bisect_inverse_many(A, s):
    """``inverse_many`` as a 90-step bisection of the monotone view in log t."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    lo = np.full_like(s, math.log(1e-300))
    hi = np.full_like(s, math.log(1e300))
    dead = ~(A._monotone_eval(np.exp(lo)) <= s)
    out[dead] = 0.0
    alive_hi = A._monotone_eval(np.exp(hi)) <= s
    out[alive_hi] = A.finite_sup
    work = ~(dead | alive_hi)
    if work.any():
        sw = s[work]
        wl = plain_log_bisect(lambda u, i: A._monotone_eval(np.exp(u)) <= sw[i],
                              lo[work], hi[work], 90)
        out[work] = np.exp(wl)
    return out


def dense_conjugate(L, ts):
    """The conjugate evaluator ``L`` (a ``young._Legendre``) as one maximum
    over every node and every interior cell per point."""
    s_i, y_i = L.s_i, L.y_i
    rows = np.arange(ts.size)
    best = np.zeros_like(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        cand = s_i[None, :] * ts[:, None] - y_i[None, :]
    node = cand.argmax(axis=1)
    best = np.maximum(best, cand[rows, node])
    if len(L.m):
        mi, lci = L.m[None, :], L.log_c[None, :]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ls = (np.log(ts[:, None]) - lci - np.log(mi)) / (mi - 1.0)
            inside = (ls > L.log_tl[None, :]) & (ls < L.log_tr[None, :])
            s_star = np.where(inside, np.exp(np.where(inside, ls, 0.0)), 0.0)
            val = s_star * ts[:, None] * (1.0 - 1.0 / mi)
        if L.A is not None:
            cell = val.argmax(axis=1)
            seed = val[rows, cell] > cand[rows, node]
            if seed.any():
                best[seed] = np.maximum(best[seed], young._refine_sup(
                    L.A, ts[seed], ls[rows, cell][seed]))
            rest = ~seed & (cand[rows, node] > 0.0)
            if rest.any():
                best[rest] = np.maximum(best[rest], young._refine_sup(
                    L.A, ts[rest], np.log(s_i[node[rest]])))
        else:
            best = np.maximum(best, val.max(axis=1))
    for tail, bound, is_upper in ((L.lo_tail, s_i[0], False), (L.hi_tail, s_i[-1], True)):
        if (is_upper and L.saturated) or tail.kind != "power":
            continue
        q = tail.exponent
        if q > 1.0 + 1e-9:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                lq = (np.log(ts) - tail.log_coefficient - math.log(q)) / (q - 1.0)
                sq = np.exp(np.minimum(lq, 709.0))
                outside = sq > bound if is_upper else sq < bound
                v = np.where(outside, sq * ts * (1.0 - 1.0 / q), 0.0)
                v = np.where(np.isnan(v), np.inf, v)
            best = np.maximum(best, v)
        elif is_upper:
            best = np.where(np.log(ts) > tail.log_coefficient, np.inf, best)
    return best


# ---------------------------------------------------------------------------
# inverse


def _transform_outputs(family_battery):
    """Every a_gamma / b_gamma output of the battery, closed and callable."""
    for name, family in family_battery.items():
        for form, A in (("closed", young.from_family(family)),
                        ("callable", young.from_callable(family.value))):
            for ctx in CONTEXTS:
                for tname, transform in (("a_gamma", tr.a_gamma), ("b_gamma", tr.b_gamma)):
                    try:
                        yield f"{tname}({name}, {form}, n={ctx.n})", transform(A, ctx)
                    except tr.TransformGateError:
                        continue


def _assert_inverses_agree(A, s, label):
    got, want = A.inverse_many(s), bisect_inverse_many(A, s)
    assert np.array_equal(got == 0.0, want == 0.0), label
    assert np.array_equal(np.isinf(got), np.isinf(want)), label
    pos = (want > 0.0) & np.isfinite(want)
    assert np.all(np.abs(got[pos] - want[pos]) <= 1e-13 * want[pos]), label


def _asked_levels(A):
    """What the transforms and boyd.dilation ask: the abscissae and their
    dilations by up to 1e8, the table values, and the extreme levels."""
    tab = A.table
    return np.concatenate([tab.t * 10.0 ** k for k in (-8, -4, 0, 4, 8)]
                          + [tab.y[np.isfinite(tab.y)], [0.0, 1e-310, 1e300, np.inf]])


def _assert_live_bisection_is_plain(A, s, label, monkeypatch):
    got = A.inverse_many(s)
    with monkeypatch.context() as m:
        m.setattr(young, "log_bisect", plain_log_bisect)
        want = A.inverse_many(s)
    assert np.array_equal(got, want), label


def test_inverse_matches_bisection_on_transform_outputs(family_battery, monkeypatch):
    checked = 0
    for label, X in _transform_outputs(family_battery):
        s = _asked_levels(X)
        _assert_inverses_agree(X, s, label)
        _assert_live_bisection_is_plain(X, s, label, monkeypatch)
        checked += 1
    assert checked > 40


def test_live_bisection_is_plain_bisection_on_exact_sources(family_battery, monkeypatch):
    # closed forms and callables whose evaluator backs the monotone view:
    # every level between the extreme ones is bisected
    for name, family in family_battery.items():
        for form, A in (("closed", young.from_family(family)),
                        ("callable", young.from_callable(family.value))):
            _assert_live_bisection_is_plain(A, _asked_levels(A), f"{name}, {form}",
                                            monkeypatch)


@pytest.mark.parametrize("y_of_t", [
    lambda t: np.where(t < 1e-3, 0.0, t ** 2),                   # zero plateau
    lambda t: np.where(t < 1e-3, 0.0, np.maximum(t ** 2 - 1e-6, 0.0)),
    lambda t: np.where(t > 1e5, np.inf, t ** 2),                 # jump to inf
    lambda t: np.where(t > 1e5, np.inf, np.where(t < 1e-4, 0.0, t ** 1.5)),
], ids=["zero-plateau", "zero-plateau-continuous", "jump-to-inf", "both"])
def test_inverse_matches_bisection_on_plateau_tables(y_of_t):
    t = young.DEFAULT_GRID.abscissae()
    A = young.from_table(GridFn(t, y_of_t(t)))
    s = np.concatenate([np.geomspace(1e-30, 1e30, 1201), A.table.y[np.isfinite(A.table.y)],
                        [0.0, np.inf]])
    _assert_inverses_agree(A, s, "plateau table")


def test_table_inverse_is_closer_to_a_50_digit_inverse():
    """Decides the CLI corpus lines that moved with the table inverse: the
    targets of these inputs, whose monotone view is their table, are built
    from A^{-1} on the abscissae."""
    mpmath = pytest.importorskip("mpmath")
    specs = ("Zygmund(1.5,-2,1.5,-2)", "Zygmund(2,1,2,1)",
             "Pow @0 t^2 exp(-1 sqrtlog) @inf t^2 exp(+1 sqrtlog)")
    for spec in specs:
        A = parse_spec(spec).to_young()
        assert not A._mono_source
        t, y = A.table.t, A.table.y
        s = A.grid.abscissae()
        s = s[(s >= y[0]) & (s < y[-1])]
        new, old = A.inverse_many(s), bisect_inverse_many(A, s)
        with mpmath.workdps(50):
            exact = []
            for level in s:
                r = int(np.searchsorted(y, level, side="right"))
                tl, tr_, yl, yr = (mpmath.mpf(float(v))
                                   for v in (t[r - 1], t[r], y[r - 1], y[r]))
                m = (mpmath.log(yr) - mpmath.log(yl)) / (mpmath.log(tr_) - mpmath.log(tl))
                u = mpmath.log(tl) + (mpmath.log(float(level)) - mpmath.log(yl)) / m
                exact.append(min(tr_, mpmath.exp(u)))

            def errors(inv):
                return np.array([float(abs(mpmath.mpf(float(x)) - e) / e)
                                 for x, e in zip(inv, exact)])

            new, old = errors(new), errors(old)
        assert new.max() < 4e-15, spec
        assert new.max() <= old.max() and new.mean() < old.mean(), spec


# ---------------------------------------------------------------------------
# plateau search


@pytest.mark.parametrize("edge", [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
                                  1.0 + 1e-13, 1e-12, 3.7e-5, 0.5, 123.456, 9.99e12])
@pytest.mark.parametrize("strict", [False, True])
def test_plateau_search_matches_scalar_bisection_on_thresholds(edge, strict):
    # doubles of log x near x = 1 are far denser than 90 halvings resolve:
    # neither search reaches adjacent doubles there, and only the rounding
    # of exp makes their results agree
    def pred(x):
        return x < edge if strict else x <= edge

    got = young._bisect_boundary(pred, 1e-12, 1e13)
    assert got == scalar_boundary(pred, 1e-12, 1e13)


def test_plateau_search_matches_scalar_bisection(family_battery, monkeypatch):
    inside = 0
    for name, family in family_battery.items():
        for form, A in (("closed", young.from_family(family)),
                        ("callable", young.from_callable(family.value))):
            for label, X in ((f"{name}, {form}", A), (f"conj {name}, {form}",
                                                      young.conjugate(A))):
                got = (X._find_zero_plateau(), X._find_finite_sup())
                with monkeypatch.context() as m:
                    m.setattr(young, "_bisect_boundary", scalar_boundary)
                    want = (X._find_zero_plateau(), X._find_finite_sup())
                assert got == want, label
                inside += sum(0.0 < x < math.inf for x in got)
    assert inside >= 8


def test_linf_plateau_ends_at_one():
    A = young.from_family(fam.linf())
    assert (A.zero_plateau_end, A.finite_sup) == (1.0, 1.0)


def test_plateau_search_takes_few_view_evaluations(young_calls):
    # the scalar bisection took 93: one probe, both ends and 90 halvings
    A = young.from_family(fam.linf())
    for search in (A._find_zero_plateau, A._find_finite_sup):
        young_calls.calls.clear()
        search()
        assert young_calls.calls["_monotone_eval"] <= 25


# ---------------------------------------------------------------------------
# conjugate


def _assert_conjugate_is_dense(C, label):
    L = C.raw
    near_ties = L.edge_slopes[np.isfinite(L.edge_slopes) & (L.edge_slopes > 0)]
    ts = np.concatenate([np.geomspace(1e-40, 1e40, 801),
                         near_ties * (1.0 - 1e-15), near_ties, near_ties * (1.0 + 1e-15)])
    for chunk in np.array_split(ts, max(1, len(ts) // 400)):
        got, want = L(chunk), dense_conjugate(L, chunk)
        assert np.array_equal(got, want), label


def test_conjugate_matches_dense_maximum(young_battery):
    for name, A in young_battery.items():
        _assert_conjugate_is_dense(young.conjugate(A), name)
        _assert_conjugate_is_dense(young.conjugate(young.from_callable(A.symbolic.value)),
                                   f"callable {name}")


def test_conjugate_matches_dense_maximum_on_a_non_convex_table():
    # a wavy t^3, not normalized: the nodes leave the hull and the cells'
    # slope intervals overlap, so the windows hold several cells
    A = young.from_callable(lambda t: np.asarray(t, float) ** 3
                            * (2.0 + np.sin(3.0 * np.log(np.asarray(t, float)))),
                            normalize=False)
    C = young.conjugate(A)
    assert len(C.raw.hull) < len(C.raw.s_i)
    _assert_conjugate_is_dense(C, "non-convex")


def test_conjugate_memory_is_linear():
    # the dense (points x nodes) evaluator peaked at 102 MB on this span
    tracemalloc.start()
    try:
        young.conjugate(young.from_family(fam.lp(2), GridSpec(1e-30, 1e30)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
