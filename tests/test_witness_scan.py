"""The witness rung scan and its tau search, held to references.

The rung scan bisects only the candidates that can still become the rung,
in growing blocks: it may move no bit against the scan of every candidate.
Each tau is bisected from a bracket grown around its guess: it has the bits
of ``scalar_tau`` and of ``root_tau``, the searches from the root bracket,
except where B(s)/s is not monotone in its last bits, where it is held to
the exact rule of ``conftest.assert_level_bits``.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_calc import families as fam, optimality as op, transforms as tr, young
from orlicz_calc.young import GammaContext, YoungFn, libm_exp

from conftest import assert_level_bits, make
from test_optimality import scalar_tau, tau_ok
from test_witness_golden import GOLDEN, PROBE

CTX = GammaContext(3, 1.0)
TEST07_B = fam.AsymptoticFamily(fam.piece(fam.PowerFactor(1.5), fam.LogFactor(-2)),
                                fam.piece(fam.PowerFactor(1.2)))

# (B, the domain whose a_gamma is D): the two golden cases, a B whose prefix
# integral diverges (the auxiliary ladder has no rung), and two B that
# underflow to 0 along the scan
CASES = {
    "golden-auxiliary": (TEST07_B, GOLDEN["auxiliary"]["a"]),
    "golden-direct": (TEST07_B, GOLDEN["direct"]["a"]),
    "no-ladder": (fam.l1(), fam.l1()),
    "underflow-direct": (fam.lp(6), fam.lp(2)),
    "underflow-auxiliary": (fam.exp_type(-1, 1), fam.zygmund(1, 0, 1, 0)),
}


def inputs(name):
    b, a = CASES[name]
    return make(b), tr.a_gamma(make(a), CTX)


def root_tau(B, levels):
    """Every level bisected from the root bracket [log 1e-90, 0] in 80
    plain halvings, all levels in step: the bits of ``scalar_tau``."""
    lo_s = 1e-90
    dead = B._monotone_eval(np.array([lo_s]))[0] / lo_s > levels
    top = B._monotone_eval(np.array([1.0]))[0] <= levels
    lo, hi = np.full(levels.shape, math.log(lo_s)), np.zeros(levels.shape)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        s = libm_exp(mid)
        up = B._monotone_eval(s) / s <= levels
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.where(dead, 0.0, np.where(top, 1.0, libm_exp(lo)))


def full_scan(B, D, q_star, tau_of=root_tau):
    """The rung loop that bisects every candidate of every rung from the
    root (``tau_of``) and then keeps the first that passes (ratios that
    saturate to inf or NaN never pass)."""
    t_rungs, tau_rungs, ratios = [], [], []
    prev_t, prev_dr, cursor = 1.0, None, 0.3
    for k in range(1, op._MAX_RUNGS + 1):
        cands = []
        t = min(cursor, prev_t * 0.49)
        while t > op._SCAN_FLOOR:
            cands.append(t)
            t /= 10.0 ** (1.0 / op._SCAN_PPD)
        ts = np.array(cands)
        d_ratio = D._monotone_eval(ts) / np.array([x ** q_star for x in cands])
        level = d_ratio * np.array([x ** (q_star - 1.0) for x in cands])
        tau = tau_of(B, level)
        ok = (tau >= 2.0 * ts) & (tau < prev_t)
        if prev_dr is not None:
            ok &= d_ratio <= 0.5 * prev_dr
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = (B._monotone_eval(tau) / tau) * (ts / B._monotone_eval(k * ts))
        hit = np.nonzero(ok & np.isfinite(ratio) & (ratio >= 10.0 * k))[0]
        if not hit.size:
            break
        j = hit[0]
        t_rungs.append(cands[j])
        tau_rungs.append(float(tau[j]))
        ratios.append(float(ratio[j]))
        prev_t, prev_dr, cursor = cands[j], float(d_ratio[j]), cands[j] / 2.0
    return t_rungs, tau_rungs, ratios


def _fields(w):
    """A WitnessResult as plain values: its profiles by their values on
    PROBE, NaN as a string so that equal results compare equal."""
    def plain(x):
        if isinstance(x, YoungFn):
            return tuple(map(float, x._monotone_eval(PROBE)))
        if isinstance(x, float) and math.isnan(x):
            return "nan"
        return x
    return {f: plain(getattr(w, f)) for f in w.__dataclass_fields__}


@pytest.fixture(scope="module")
def asked():
    """Per golden case: B, every level that its witness asks ``_tau_many``,
    and every level of every candidate that the full scan bisects."""
    out, real = {}, op._tau_many
    for name in ("golden-auxiliary", "golden-direct"):
        lazy, full = [], []

        def recording(B, levels, seen, tau_of):
            seen.append(np.array(levels))
            return tau_of(B, levels)

        B, D = inputs(name)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(op, "_tau_many", lambda B, lv: recording(B, lv, lazy, real))
            D_used = op.witness_improvement(B, D, CTX).auxiliary or D
        full_scan(B, D_used, CTX.q_star, lambda B, lv: recording(B, lv, full, root_tau))
        out[name] = B, np.concatenate(lazy), np.concatenate(full)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_scan_is_the_full_scan(name, monkeypatch):
    B, D = inputs(name)
    lazy = op.witness_improvement(B, D, CTX)
    monkeypatch.setattr(op, "_select_rungs",
                        lambda B, D, q_star: full_scan(B, D, q_star, op._tau_many))
    assert _fields(op.witness_improvement(B, D, CTX)) == _fields(lazy)


def test_seeded_tau_is_the_scalar_bisection(asked):
    # every level the two witnesses ask, many of them with tau past B's
    # table, where the closed-form extension is not monotone in its last
    # bit: a tau whose bits differ from the scalar bisection's ends on
    # another flip of B(s)/s <= level (26 of the direct case's 368 levels)
    past = 0
    for B, levels, _ in asked.values():
        taus = op._tau_many(B, levels)
        want = [scalar_tau(B, float(x)) for x in levels]
        assert_level_bits(tau_ok(B, levels), libm_exp, taus, want)
        past += np.count_nonzero((taus > 0.0) & (taus < B.table.t[0]))
    assert past > 50


@pytest.mark.parametrize("name", ["golden-auxiliary", "golden-direct"])
def test_seeded_tau_is_the_root_bisection_on_every_candidate(asked, name):
    B, _, levels = asked[name]
    assert levels.size > 1000
    assert_level_bits(tau_ok(B, levels), libm_exp, op._tau_many(B, levels),
                      root_tau(B, levels), name)


@pytest.mark.parametrize("name", ["golden-auxiliary", "golden-direct"])
def test_each_tau_is_answered_on_its_own(asked, name):
    B, levels, _ = asked[name]
    taus = op._tau_many(B, levels)
    assert all(op._tau_many(B, levels[i:i + 1])[0] == taus[i]
               for i in range(levels.size))


@pytest.mark.parametrize("guess", [lambda u: u + 1e-9, lambda u: u + 0.5,
                                   lambda u: np.full_like(u, np.nan)],
                         ids=["slightly-off", "half-off", "nan"])
def test_bad_tau_guesses_keep_the_root_bits(asked, monkeypatch, guess):
    # guesses that miss grow their brackets further (to the whole root for
    # NaN), and still end on the root search's bits where phi is monotone
    real = op.guess_levels
    monkeypatch.setattr(op, "guess_levels", lambda *args: guess(real(*args)))
    for B, levels, _ in asked.values():
        assert_level_bits(tau_ok(B, levels), libm_exp, op._tau_many(B, levels),
                          root_tau(B, levels))


def test_tau_of_a_table_with_no_finite_positive_ratio():
    # B jumps from 0 to inf at 1/2: no sample of B(s)/s is finite and
    # positive, so the guess's table has no power cell, and the bisection
    # still ends on the root search's bits
    B = young.from_callable(lambda t: np.where(np.asarray(t) < 0.5, 0.0, np.inf))
    levels = np.array([0.0, 1.0, 1e5])
    assert op._tau_many(B, levels).tolist() == [scalar_tau(B, x) for x in levels]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["underflow-direct", "underflow-auxiliary"])
def test_saturated_ratios_make_no_rung(name):
    # B(k t) underflows to 0 along the scan: t / B(k t) is inf there, and
    # such a candidate must not pass the selection test
    B, D = inputs(name)
    w = op.witness_improvement(B, D, CTX)
    assert all(math.isfinite(r) for r in w.selection_ratios)
    k_t = np.arange(1, len(w.t_rungs) + 1) * np.array(w.t_rungs)
    assert np.all(B._monotone_eval(k_t) > 0.0)


def test_scan_points_where_both_sides_are_zero_hold_the_bound():
    # no rung is found, and at some scan points both the prefix integral of
    # B and the right-hand side 5 C d underflow to 0: such a point holds the
    # bound, where 0/0 once read as inf and flagged it exceeded
    B, D = inputs("underflow-direct")
    w = op.witness_improvement(B, D, CTX)
    assert w.t_rungs == ()
    assert 0.0 <= w.bound_margin < 1e-3
    assert w.flags == ("witness-unconstructible",)


def test_no_auxiliary_ladder_gives_no_rungs():
    # L1's prefix integral of B(s)/s^(q*+1) diverges at 0, so no d_k rung
    # exists and no auxiliary profile can be built
    B, D = inputs("no-ladder")
    w = op.witness_improvement(B, D, CTX)
    assert w.t_rungs == w.tau_rungs == w.selection_ratios == ()
    assert w.flags == ("auxiliary-profile", "witness-unconstructible")
    assert w.auxiliary is None and w.young is B


def test_tau_points_per_witness(monkeypatch):
    # the points at which _tau_many evaluates B for one witness call: 442
    # and 5,134 here (529 and 5,503 when each bisection started at a
    # checked node of the root search's tree), about 140k per case when
    # every candidate was bisected from the root, and over 30k per case
    # when the lazy scan is undone
    counts = SimpleNamespace(on=False, points=0)
    real_eval, real_tau = YoungFn._monotone_eval, op._tau_many

    def counted_eval(self, t):
        counts.points += np.size(t) if counts.on else 0
        return real_eval(self, t)

    def counted_tau(B, levels):
        counts.on = True
        try:
            return real_tau(B, levels)
        finally:
            counts.on = False

    monkeypatch.setattr(YoungFn, "_monotone_eval", counted_eval)
    monkeypatch.setattr(op, "_tau_many", counted_tau)
    for name in ("golden-auxiliary", "golden-direct"):
        B, D = inputs(name)
        counts.points = 0
        op.witness_improvement(B, D, CTX)
        assert 0 < counts.points <= 10_000, name
