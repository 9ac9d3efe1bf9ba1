"""The numeric kernels of the Young calculus against the brute-force
versions they replaced, kept here as references: the table inverse of
``YoungFn.inverse_many`` against its 90-step bisection (and against a
50-digit inverse of the same power interpolant), every bisection of
``inverse_many``, from a bracket grown around its guess, against a plain
90-step bisection from the root bracket (bit for bit, or, where the view
is not monotone in its last bits, by the exact rule of
``conftest.assert_level_bits``), the search's cost in evaluations,
``young.log_bisect`` and the 64-way plateau search against plain
bisections (bit for bit), the
lower hull that normalises every source and carries the conjugate against
exact integer cross products, the hull-based conjugate evaluator against
the dense (points x nodes) maximum,
and the Luxemburg modular on fixed cell geometry against a fresh ``GridFn``
per evaluation (bit for bit)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orlicz_calc import families as fam
from orlicz_calc import grid
from orlicz_calc import optimality
from orlicz_calc import oracle as orc
from orlicz_calc import transforms as tr
from orlicz_calc import young
from orlicz_calc.grid import GridFn, GridSpec, StepFn
from orlicz_calc.specdsl import parse_spec
from orlicz_calc.young import GammaContext

from conftest import assert_level_bits

CONTEXTS = (GammaContext(3, 1.0), GammaContext(1, 0.5))


def plain_log_bisect(ok, lo, hi, iters, exp=None):
    """``young.log_bisect`` without its exits: every bracket is halved
    ``iters`` times, and ``ok`` sees every midpoint at every step (``exp``,
    which the exits read, is unused)."""
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


@pytest.fixture(scope="module")
def views(family_battery):
    """The views whose inverses the checks below bisect, built once: the
    battery's closed forms and callables ("exact"), every a_gamma / b_gamma
    output of them ("transform") and their conjugates ("conjugate")."""
    out = {"exact": {}, "transform": {}, "conjugate": {}}
    for name, family in family_battery.items():
        for form, A in (("closed", young.from_family(family)),
                        ("callable", young.from_callable(family.value))):
            out["exact"][f"{name}, {form}"] = A
            out["conjugate"][f"conj {name}, {form}"] = young.conjugate(A)
            for ctx in CONTEXTS:
                for tname, transform in (("a_gamma", tr.a_gamma), ("b_gamma", tr.b_gamma)):
                    try:
                        out["transform"][f"{tname}({name}, {form}, n={ctx.n})"] = \
                            transform(A, ctx)
                    except tr.TransformGateError:
                        continue
    return out


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


ROOT = (math.log(1e-300), math.log(1e300))
LOG_BISECT = young.log_bisect


def _bisections(A, s, monkeypatch):
    """``A.inverse_many(s)``, and per ``log_bisect`` call that it made: the
    predicate and the returned lo."""
    calls = []

    def recording(ok, lo, hi, iters, exp):
        got = LOG_BISECT(ok, lo, hi, iters, exp)
        calls.append((ok, got))
        return got

    with monkeypatch.context() as m:
        m.setattr(young, "log_bisect", recording)
        return A.inverse_many(s), calls


def _assert_bisected_from_root(A, s, label, monkeypatch):
    """Every level that ``A.inverse_many(s)`` bisects gets the bits of
    ``plain_log_bisect`` over 90 steps from the root bracket
    [log 1e-300, log 1e300], or ends where the view is not monotone in its
    last bits (``assert_level_bits``); returns how many levels differ."""
    _, calls = _bisections(A, s, monkeypatch)
    differ = 0
    for ok, got in calls:
        n = got.size
        want = plain_log_bisect(ok, np.full(n, ROOT[0]), np.full(n, ROOT[1]), 90)
        differ += assert_level_bits(ok, np.exp, np.exp(got), np.exp(want), label)
    return differ


def test_inverse_matches_bisection_on_transform_outputs(views, monkeypatch):
    for label, X in views["transform"].items():
        s = _asked_levels(X)
        _assert_inverses_agree(X, s, label)
        assert _assert_bisected_from_root(X, s, label, monkeypatch) == 0, label
    assert len(views["transform"]) > 40


def test_live_bisection_is_plain_bisection_on_exact_sources(views, monkeypatch):
    # closed forms, callables and conjugates whose evaluator backs the
    # monotone view: every level between the extreme ones is bisected.  The
    # closed forms and callables keep the root search's bits; the levels
    # that move are those of conjugates whose Legendre view is not monotone
    # in its last bits (t^1.5 and zyg-1branch, closed and callable)
    for label, A in views["exact"].items():
        assert _assert_bisected_from_root(A, _asked_levels(A), label, monkeypatch) == 0
    moved = {label: _assert_bisected_from_root(C, _asked_levels(C)[::8], label,
                                               monkeypatch)
             for label, C in views["conjugate"].items()}
    assert {label for label, n in moved.items() if n} <= {
        f"conj {name}, {form}" for name in ("t^1.5", "zyg-1branch")
        for form in ("closed", "callable")}


def test_inverse_points_on_exact_sources(views, young_calls):
    # the points at which inverse_many evaluates the views (and what they
    # read) on every asked level of the exact sources and every 8th of
    # their conjugates: 1,528,377 with the bracket grown around the guess,
    # 2,019,455 when each bisection started at a checked node of the root
    # search's tree
    before = young_calls.points["_monotone_eval"]
    for A in views["exact"].values():
        A.inverse_many(_asked_levels(A))
    for C in views["conjugate"].values():
        C.inverse_many(_asked_levels(C)[::8])
    assert young_calls.points["_monotone_eval"] - before <= 1_600_000


def test_each_inverse_level_is_answered_on_its_own(views):
    # a level's result does not depend on the other levels of the call:
    # every 97th asked level of the exact sources and every 401st of their
    # conjugates, and every 9th of the levels past a transform output's
    # table inverse (the others are read from its table), each asked alone
    for kind, step in (("exact", 97), ("conjugate", 401), ("transform", 9)):
        for label, A in views[kind].items():
            s = _asked_levels(A)
            if kind == "transform":
                s = s[np.isnan(A._table_inverse(s))]
            s = s[::step]
            got = A.inverse_many(s)
            alone = np.concatenate([A.inverse_many(s[i:i + 1]) for i in range(s.size)])
            assert got.tobytes() == alone.tobytes(), label


@pytest.mark.parametrize("guess", [lambda t: 10.0 * t, lambda t: np.full_like(t, np.nan)],
                         ids=["ten-times-off", "nan"])
def test_bad_guesses_keep_the_root_bits(views, monkeypatch, guess):
    # the table's power-cell inverse is where the guess starts; made 10x off
    # or NaN (read as t = 1 before the Newton steps), the bracket grows
    # further and still ends on the root's bits, but where the view is not
    # monotone in its last bits (views whose table inverse answers some
    # levels read it too, so only exact sources are run)
    inverse = GridFn.inverse
    with monkeypatch.context() as m:
        m.setattr(GridFn, "inverse", lambda self, s: guess(inverse(self, s)))
        for label, A in views["exact"].items():
            if A._mono_source:
                s = _asked_levels(A)

                def ok(u, i):
                    return A._monotone_eval(np.exp(u)) <= s[i]

                assert_level_bits(ok, np.exp, A.inverse_many(s),
                                  bisect_inverse_many(A, s), label)


def test_bisection_past_the_table_keeps_the_root_bits():
    # a domain level past the table, where the closed-form extension of the
    # view is not monotone in its last bit: across adjacent doubles of u
    # the predicate flips more than once, so a search from another bracket
    # can end on another flip (a secant search once moved this level by
    # 2.8e-14 relative); the bracket grown around the guess ends on the
    # root search's
    D = optimality.optimal_domain(young.from_family(fam.zygmund(2, 1, 2, 1)),
                                  GammaContext(3, 1.0)).domain
    s = np.logspace(-150, 150, 301)[87:88]
    got = D.inverse_many(s)
    assert got[0] < D.table.t[0]
    assert got.tobytes() == bisect_inverse_many(D, s).tobytes()
    u = math.log(got[0])
    near = u + np.arange(-8, 9) * np.spacing(u)
    holds = D._monotone_eval(np.exp(near)) <= s[0]
    assert np.count_nonzero(holds[1:] != holds[:-1]) > 1


def test_bracket_at_one_ends_once_exp_cannot_move(family_battery):
    # the level s = 1 of every closed form's inverse_on_grid: its bracket
    # closes on u = 0, where doubles of u are far denser than those of
    # exp(u), so no midpoint rounds to an end and, without the check of
    # exp(lo) against exp(hi), it runs all 90 halvings
    lo, hi = np.full(1, ROOT[0]), np.full(1, ROOT[1])
    for name in ("t^2", "t^3", "zyg(2,1)", "sqrtlog"):
        A = young.from_family(family_battery[name])
        steps = []

        def ok(u, idx):
            steps.append(idx.size)
            return A._monotone_eval(np.exp(u)) <= 1.0

        got = young.log_bisect(ok, lo, hi, 90, np.exp)
        want = plain_log_bisect(lambda u, i: A._monotone_eval(np.exp(u)) <= 1.0,
                                lo, hi, 90)
        assert len(steps) <= 63, name
        assert np.exp(got).tobytes() == np.exp(want).tobytes(), name
        assert np.exp(got)[0] == 1.0, name


def test_search_levels_grows_each_bracket_within_the_root():
    # exact guesses, guesses far below and above the answer, one past the
    # root, one whose answer lies next to a root end and NaN: each bracket
    # grows, clipped to the root, until it holds its level, and a view
    # monotone over the doubles gives the root search's bits
    root = (math.log(1e-30), math.log(1e30))
    s = np.array([2.0, 1e-40, 1e40, 1e-40, 1.000001e-60, 9.99999e59, 3.0])
    guess = np.array([math.log(2.0) / 2, 0.0, 0.0, 2 * root[1], root[1], root[0], np.nan])
    seen = []

    def view(x):
        seen.extend(x.tolist())
        return x * x

    got = young.search_levels(view, s, guess, root, 90, np.exp)
    want = plain_log_bisect(lambda u, i: np.exp(u) * np.exp(u) <= s[i],
                            np.full(s.size, root[0]), np.full(s.size, root[1]), 90)
    assert got.tobytes() == np.exp(want).tobytes()
    assert {math.exp(root[0]), math.exp(root[1])} <= set(seen)


@pytest.mark.parametrize("y_of_t", [
    lambda t: np.where(t < 1e-3, 0.0, t ** 2),                   # zero plateau
    lambda t: np.where(t < 1e-3, 0.0, np.maximum(t ** 2 - 1e-6, 0.0)),
    lambda t: np.where(t > 1e5, np.inf, t ** 2),                 # jump to inf
    lambda t: np.where(t > 1e5, np.inf, np.where(t < 1e-4, 0.0, t ** 1.5)),
], ids=["zero-plateau", "zero-plateau-continuous", "jump-to-inf", "both"])
def test_inverse_matches_bisection_on_plateau_tables(y_of_t, monkeypatch):
    t = young.DEFAULT_GRID.abscissae()
    A = young.YoungFn(table=GridFn(t, y_of_t(t)))
    s = np.concatenate([np.geomspace(1e-30, 1e30, 1201), A.table.y[np.isfinite(A.table.y)],
                        [0.0, np.inf]])
    _assert_inverses_agree(A, s, "plateau table")
    _assert_bisected_from_root(A, s, "plateau table", monkeypatch)


def _power_cell_levels(g):
    """The abscissae of g that lie in one of its power cells when read as
    levels: yl <= s < yr with yl > 0 and yr finite."""
    s = g.t[(g.t >= g.y[0]) & (g.t < g.y[-1])]
    r = np.searchsorted(g.y, s, side="right")
    return s[(g.y[r - 1] > 0.0) & np.isfinite(g.y[r])]


def _log_difference_inverse(g, s):
    """The cell formula the table inverse replaced: the power cell solved as
    exp(log tl + (log s - log yl) / m), with m a quotient of differences of
    logs, capped at tr."""
    r = np.searchsorted(g.y, s, side="right")
    with np.errstate(divide="ignore"):
        lt, ly = np.log(g.t), np.log(g.y)
    m = (ly[r] - ly[r - 1]) / (lt[r] - lt[r - 1])
    return np.minimum(np.exp(lt[r - 1] + (np.log(s) - ly[r - 1]) / m), g.t[r])


def _cell_inverse_errors(mpmath, g, s, *answers):
    """The relative error of each answer at the levels s against the
    50-digit inverse of the power cell of g that holds each level."""
    exact = []
    with mpmath.workdps(50):
        for level in s:
            r = int(np.searchsorted(g.y, level, side="right"))
            tl, tr_, yl, yr = (mpmath.mpf(float(v))
                               for v in (g.t[r - 1], g.t[r], g.y[r - 1], g.y[r]))
            m = (mpmath.log(yr) - mpmath.log(yl)) / (mpmath.log(tr_) - mpmath.log(tl))
            u = mpmath.log(tl) + (mpmath.log(float(level)) - mpmath.log(yl)) / m
            exact.append(min(tr_, mpmath.exp(u)))
        return [np.array([float(abs(mpmath.mpf(float(x)) - e) / e)
                          for x, e in zip(answer, exact)]) for answer in answers]


def _inverted_tables(A, ctx):
    """The tables that a_gamma, a_sup and b_gamma invert: G, G_sup, F and E."""
    out = []
    if tr.check_acond(A, ctx):
        G = tr.g_transform(A, ctx)
        out += [G, GridFn(G.t, np.maximum.accumulate(G.y * G.t ** ctx.s_star))]
    if tr.check_bconv(A, ctx):
        F = tr.f_transform(A, ctx)
        f_inv = grid.grid_inverse(F, F.t)
        out += [F, GridFn(F.t, np.maximum.accumulate(f_inv.y * F.t ** ctx.s_star))]
    return out


def test_table_inverse_is_closer_to_a_50_digit_inverse(family_battery):
    """``GridFn.inverse`` against the 50-digit inverse of each level's power
    cell, and against the same cell solved from differences of logs, on
    the tables of three specs whose monotone view is their table (their CLI
    targets are built from A^{-1} on the abscissae, so the cell formula
    decides 4 corpus lines) and on the G, G_sup, F and E tables that the
    transforms of four battery profiles invert."""
    mpmath = pytest.importorskip("mpmath")
    specs = ("Zygmund(1.5,-2,1.5,-2)", "Zygmund(2,1,2,1)",
             "Pow @0 t^2 exp(-1 sqrtlog) @inf t^2 exp(+1 sqrtlog)")
    young_errors = []
    for spec in specs:
        A = parse_spec(spec).to_young()
        assert not A._mono_source
        s = _power_cell_levels(A.table)
        new, logdiff, bisected = _cell_inverse_errors(
            mpmath, A.table, s, A.inverse_many(s), _log_difference_inverse(A.table, s),
            bisect_inverse_many(A, s))
        assert new.max() <= bisected.max() and new.mean() < bisected.mean(), spec
        young_errors.append((new, logdiff))
    transform_errors = []
    for name in ("t^2", "zyg(2,1)", "zyg(1.5,-2)", "Linf"):
        A = young.from_family(family_battery[name])
        for ctx in CONTEXTS:
            for g in _inverted_tables(A, ctx):
                s = _power_cell_levels(g)
                transform_errors.append(_cell_inverse_errors(
                    mpmath, g, s, g.inverse(s), _log_difference_inverse(g, s)))
    # measured: 3.17e-16 and 7.49e-17 on the specs' 1,731 levels, 5.44e-15
    # and 1.08e-16 on the 8,670 of the 22 transform tables, whose largest
    # error is in the flat cells of G of zyg(2,1) at (1, 0.5), where a small
    # m magnifies the rounding of log(s/yl) (5.9e-15 from differences of logs)
    for errors, max_bound, mean_bound in ((young_errors, 3.5e-16, 8e-17),
                                          (transform_errors, 6e-15, 1.2e-16)):
        new, logdiff = (np.concatenate(e) for e in zip(*errors))
        assert new.max() < max_bound and new.mean() < mean_bound
        assert new.max() <= logdiff.max() and new.mean() < logdiff.mean()


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


def test_plateau_search_matches_scalar_bisection(views, monkeypatch):
    inside = 0
    for label, X in {**views["exact"], **views["conjugate"]}.items():
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
# lower hull


def brute_lower_hull(x, y):
    """The vertices of the lower hull of integer points, x strictly
    increasing: i is kept when no chord (j, k) with j < i < k passes at or
    below it, by exact integer cross products."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    j, i, k = np.meshgrid(*(np.arange(x.size),) * 3, indexing="ij")
    cross = (x[k] - x[j]) * (y[i] - y[j]) - (y[k] - y[j]) * (x[i] - x[j])
    on_or_above = (j < i) & (i < k) & (cross >= 0)
    return np.flatnonzero(~on_or_above.any(axis=(0, 2)))


@st.composite
def integer_polylines(draw):
    """At most 40 points with integer coordinates in [-1000, 1000] and x
    strictly increasing: each step either repeats the last step (a collinear
    run) or draws a new one, often flat (repeated y)."""
    steps, last = [], None
    for _ in range(draw(st.integers(0, 39))):
        if last is None or not draw(st.booleans()):
            last = (draw(st.integers(1, 24)),
                    draw(st.one_of(st.just(0), st.integers(-20, 20))))
        steps.append(last)
    start = [draw(st.integers(0, 40)), draw(st.integers(-200, 200))]
    x, y = np.cumsum(np.array([start, *steps], dtype=np.int64), axis=0).T
    return x, y


@given(integer_polylines())
def test_lower_hull_matches_exact_cross_products(points):
    # integers this small make every float slope compare exact, so the
    # kernel must keep exactly the strict vertices
    x, y = points
    got = young._lower_hull(x.astype(float), y.astype(float))
    assert got.tolist() == brute_lower_hull(x, y).tolist()


def _zero_at_the_end(t):
    y = np.asarray(t, dtype=float) ** 2
    y[-1] = 0.0
    return y


def test_minorant_stays_below_the_samples(family_battery):
    # the battery, perfbench's probe inputs Lp(30) and L1, and a callable
    # that is not monotone: the minorant is convex, does not decrease and
    # lies at or below every finite sample (a cross-product test rose above
    # Lp(30)'s subnormal samples near 1e-12, and above L1's by an ulp)
    sources = {f"{name}, closed": (young.from_family(f), f.value)
               for name, f in {**family_battery, "Lp(30)": fam.lp(30)}.items()}
    sources.update({f"{name}, callable": (young.from_callable(f.value), f.value)
                    for name, f in family_battery.items()})
    sources["t^2 with 0 last"] = young.from_callable(_zero_at_the_end), _zero_at_the_end
    eps = np.finfo(float).eps
    for label, (A, f) in sources.items():
        t = A.table.t
        raw = np.asarray(f(t), dtype=float)
        out = young._convex_minorant(t, raw)
        fin = np.isfinite(raw)
        assert np.all(out[fin] <= raw[fin]), label
        o, x = out[fin], t[fin]
        assert np.all(np.diff(o) >= 0.0), label
        chord = o[:-2] + (o[2:] - o[:-2]) * ((x[1:-1] - x[:-2]) / (x[2:] - x[:-2]))
        assert np.all(o[1:-1] <= chord + 4.0 * eps * np.abs(o[1:-1])), label
        if label == "Lp(30), closed":
            low = t <= 3.2e-11
            assert np.count_nonzero(low) == 37
            assert out[low].tobytes() == raw[low].tobytes()


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


def test_conjugate_matches_dense_maximum(views):
    for label, C in views["conjugate"].items():
        _assert_conjugate_is_dense(C, label)


def test_conjugate_matches_dense_maximum_on_a_non_convex_table():
    # a wavy t^3, not normalized: the nodes leave the hull and the cells'
    # slope intervals overlap, so the windows hold several cells
    A = young.from_callable(lambda t: np.asarray(t, float) ** 3
                            * (2.0 + np.sin(3.0 * np.log(np.asarray(t, float)))),
                            normalize=False)
    C = young.conjugate(A)
    assert len(C.raw.hull) < len(C.raw.s_i)
    _assert_conjugate_is_dense(C, "non-convex")


def test_conjugate_is_the_same_alone_and_in_a_batch(views):
    # the refinement on the exact evaluator stops each point on its own
    # step; stopped on one rule for the whole batch, a point's value moved
    # with the other points of its call
    ts = np.geomspace(1e-8, 1e8, 97)
    for name in ("t^1.5", "zyg-1branch", "zyg(2,1)", "sqrtlog"):
        for form in ("closed", "callable"):
            C = views["conjugate"][f"conj {name}, {form}"]
            alone = np.concatenate([C(ts[k:k + 1]) for k in range(ts.size)])
            assert C(ts).tobytes() == alone.tobytes(), f"{name}, {form}"


def test_conjugate_memory_is_linear():
    # the dense (points x nodes) evaluator peaked at 102 MB on this span
    tracemalloc.start()
    try:
        young.conjugate(young.from_family(fam.lp(2), GridSpec(1e-30, 1e30)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# modular


def reference_cell_integrals(t, y, w):
    """``grid._cell_integrals`` before the part that depends only on the
    abscissae moved into ``grid.CellGeometry``: every call recomputes it."""
    tl, tr = t[:-1], t[1:]
    yl, yr = y[:-1], y[1:]
    out = np.zeros(len(t) - 1)
    finite = np.isfinite(yl) & np.isfinite(yr)
    pos = finite & (yl > 0) & (yr > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.where(pos, np.log(np.where(pos, yr, 1.0) / np.where(pos, yl, 1.0))
                     / np.log(tr / tl), 0.0)
        a = m + w + 1.0
        ratio = tr / tl
        small = np.abs(a) <= 1e-9
        powxa = np.where(small, np.log(ratio), (ratio ** np.where(small, 1.0, a) - 1.0)
                         / np.where(small, 1.0, a))
        cell = yl * tl ** (w + 1.0) * powxa
        out[pos] = cell[pos]
    steep = pos & ~(np.isfinite(m) & np.isfinite(cell))
    if steep.any():
        left = np.log(yl[steep]) + (w + 1.0) * np.log(tl[steep])
        right = np.log(yr[steep]) + (w + 1.0) * np.log(tr[steep])
        d = np.abs(right - left)
        with np.errstate(over="ignore", invalid="ignore"):
            shape = np.where(d > 0.0, -np.expm1(-d) / d, 1.0)
            out[steep] = (np.exp(np.maximum(left, right)) * shape
                          * np.log(tr[steep] / tl[steep]))
    lin = finite & ~pos
    if lin.any():
        ymid = 0.5 * (yl[lin] + yr[lin])
        with np.errstate(over="ignore", invalid="ignore"):
            if abs(w + 1.0) > 1e-12:
                seg = (tr[lin] ** (w + 1.0) - tl[lin] ** (w + 1.0)) / (w + 1.0)
            else:
                seg = np.log(tr[lin] / tl[lin])
            out[lin] = np.where(ymid > 0.0, ymid * seg, 0.0)
            over = np.isnan(seg)
            if over.any():
                over &= ymid > 0.0
                a = w + 1.0
                log_big = np.log(np.where(a < 0.0, tl[lin], tr[lin])[over])
                width = np.log(tr[lin] / tl[lin])[over]
                out[np.flatnonzero(lin)[over]] = np.exp(
                    np.log(ymid[over]) + a * log_big
                    + np.log(-np.expm1(-abs(a) * width) / abs(a)))
    out[np.isinf(yl) | np.isinf(yr)] = np.inf
    return out


def reference_modular(A, g):
    """``young._modular``'s modular as a fresh ``GridFn`` of A(g/lam) on the
    whole widened abscissae per evaluation; exact for step functions."""
    if isinstance(g, StepFn):
        widths = np.diff(np.concatenate(([0.0], g.breaks)))
        return lambda lam: float(np.sum(np.where(
            widths > 0, A._monotone_eval(g.values / lam) * widths, 0.0)))
    ts = np.concatenate([g.t[0] * np.power(10.0, -np.arange(8.0, 0.0, -1.0)), g.t,
                         g.t[-1] * np.power(10.0, np.arange(1.0, 9.0))])
    gv = np.atleast_1d(np.asarray(g(ts), dtype=float))

    def modular(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            hv = A._monotone_eval(gv / lam)
        return GridFn(ts, hv).total_integral(0.0)

    return modular


LAMBDAS = (1e-12, 1e-3, 1.0, 1e3, 1e12)


def _probe_functions(ctx):
    """The default probe family at DEFAULT_SCALES, and their H' images."""
    for index, fn in enumerate(orc.default_probe_family()):
        for scale in orc.DEFAULT_SCALES:
            g = fn.realize(scale)
            g = g.to_gridfn() if isinstance(g, StepFn) else g
            yield f"fn{index}@{scale:g}", g
            yield f"H'fn{index}@{scale:g}", orc.hardy_dual_apply(g, ctx)


def _assert_modular_is_reference(A, g, label):
    _, modular = young._modular(A, g)
    want = reference_modular(A, g)
    for lam in LAMBDAS:
        assert float.hex(modular(lam)) == float.hex(want(lam)), (label, lam)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"n={c.n}")
def test_modular_matches_reference_on_probe_functions(young_battery, ctx):
    # the power-log profiles vanish at both widened ends (their abscissae are
    # cut to the support), the images are positive there (two-point tail
    # windows), and Linf at lam = 1e-12 has infinite cells
    functions = list(_probe_functions(ctx))
    for name, A in young_battery.items():
        for label, g in functions:
            _assert_modular_is_reference(A, g, f"{name}, {label}")


def test_modular_matches_reference_on_edge_cases(young_battery, ctx31):
    t = young.DEFAULT_GRID.abscissae()
    steep = orc.hardy_dual_apply(orc.default_probe_family()[1].realize(1e-4), ctx31)
    _assert_modular_is_reference(young.from_family(fam.lp(30)), steep, "Lp(30) steep")
    bump = GridFn(t, np.where((t > 1e-3) & (t < 1e3), t ** -0.5, 0.0))
    gaps = GridFn(t, np.where((t > 1e-6) & (t < 1e6), 1.0 + np.sin(t) ** 2, 0.0)
                  * (np.abs(np.log10(t)) > 1.0))
    for name, A in young_battery.items():
        _assert_modular_is_reference(A, GridFn(t, np.zeros_like(t)), f"{name}, zero")
        _assert_modular_is_reference(A, bump, f"{name}, bump")
        _assert_modular_is_reference(A, gaps, f"{name}, gaps")


def test_modular_cuts_the_abscissae_to_the_support():
    t = young.DEFAULT_GRID.abscissae()
    g = GridFn(t, np.where((t > 1e-3) & (t < 1e3), 1.0, 0.0))
    values, _ = young._modular(young.from_family(fam.lp(2)), g)
    # the support and one zero sample either side
    assert values.size == np.count_nonzero(g.y) + 2
    assert values[0] == values[-1] == 0.0
    values, _ = young._modular(young.from_family(fam.lp(2)), GridFn(t, np.zeros_like(t)))
    assert values.tolist() == [0.0]


def test_luxemburg_norm_builds_no_gridfn(young_battery, ctx31, gridfn_builds,
                                         modular_calls):
    images = [g for _, g in _probe_functions(ctx31)]
    before = gridfn_builds.calls
    for name in ("t^2", "Linf", "zyg(2,1)"):
        for g in images:
            young.luxemburg_norm(young_battery[name], g)
    assert modular_calls.calls > 3 * len(images)
    assert gridfn_builds.calls == before


@pytest.mark.parametrize("w", [0.0, -1.0] + [-c.q_star - 1.0 for c in CONTEXTS])
def test_cell_integrals_match_reference(w):
    rng = np.random.default_rng(7)
    grids = [young.DEFAULT_GRID.abscissae(),
             grid.merge_breakpoints(young.DEFAULT_GRID, [1e-3, 0.5, 7.0]),
             GridSpec(1e-160, 1e160, 4).abscissae()]
    for t in grids:
        for _ in range(40):
            # log-uniform values over the whole double range (steep cells),
            # with zero, inf and subnormal samples
            y = np.exp(rng.uniform(-700.0, 700.0, t.size))
            y[rng.random(t.size) < 0.1] = 0.0
            y[rng.random(t.size) < 0.03] = np.inf
            subnormal = 5e-324 * rng.integers(1, 1000, t.size)
            y = np.where(rng.random(t.size) < 0.05, subnormal, y)
            want = reference_cell_integrals(t, y, w)
            got = grid._cell_integrals(grid.CellGeometry(t, w), y)
            assert got.tobytes() == want.tobytes()
