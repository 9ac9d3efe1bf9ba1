"""The witness rung scan and its tau bisection, held to references that
compute every candidate's tau from the root bracket.

The rung scan bisects only the candidates that can still become the rung,
in growing blocks, and each tau bisection starts at a checked node of the
root search's tree.  Neither may move a bit: the references below are the
scan of every candidate and the scalar bisection of ``scalar_tau``.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_calc import families as fam, optimality as op, transforms as tr, young
from orlicz_calc.young import GammaContext, YoungFn, libm_exp

from conftest import make
from test_optimality import scalar_tau
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
    monkeypatch.setattr(op, "_select_rungs", full_scan)
    assert _fields(op.witness_improvement(B, D, CTX)) == _fields(lazy)


def test_seeded_tau_is_the_scalar_bisection(asked):
    # every level the two witnesses ask, many of them with tau past B's
    # table, where the closed-form extension is not monotone in its last bit
    past = 0
    for B, levels, _ in asked.values():
        taus = op._tau_many(B, levels)
        assert [scalar_tau(B, float(x)) for x in levels] == taus.tolist()
        past += np.count_nonzero((taus > 0.0) & (taus < B.table.t[0]))
    assert past > 50


@pytest.mark.parametrize("name", ["golden-auxiliary", "golden-direct"])
def test_seeded_tau_is_the_root_bisection_on_every_candidate(asked, name):
    B, _, levels = asked[name]
    assert levels.size > 1000
    assert op._tau_many(B, levels).tobytes() == root_tau(B, levels).tobytes()


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
    # guesses that miss the seed nodes fall back to shallower nodes or the
    # root, and still end on the root search's bits
    real = op._tau_guess
    monkeypatch.setattr(op, "_tau_guess", lambda B, lv: guess(real(B, lv)))
    for B, levels, _ in asked.values():
        assert op._tau_many(B, levels).tobytes() == root_tau(B, levels).tobytes()


def test_tau_seed_nodes_lie_above_the_exits_of_the_root_search():
    # the twin, on the tau search's root [log 1e-90, 0], of the inverse's
    # test: at the deepest seed depth a node is still several doubles of u
    # wide at |u| = 207, and wider than where the exp check starts
    root = op._TAU_ROOT
    c = np.array([root[0], -100.0, -1.0, -1e-20, root[1]])
    lo, hi = young.tree_node(c, np.full(c.shape, max(young._SEED_DEPTHS)), root)
    assert np.all((root[0] <= lo) & (hi <= root[1]))
    assert np.all((lo <= c) & ((c < hi) | (hi == root[1])))
    assert np.all(hi - lo > 4.0 * np.spacing(root[0]))
    assert np.all(hi - lo > young._EXP_ADJACENT_WIDTH)


def test_tau_of_a_table_with_no_finite_positive_ratio():
    # B jumps from 0 to inf at 1/2: no sample of B(s)/s is finite and
    # positive, so the guess has no table to read, and the bisection still
    # ends on the root search's bits
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


def test_no_auxiliary_ladder_gives_no_rungs():
    # L1's prefix integral of B(s)/s^(q*+1) diverges at 0, so no d_k rung
    # exists and no auxiliary profile can be built
    B, D = inputs("no-ladder")
    w = op.witness_improvement(B, D, CTX)
    assert w.t_rungs == w.tau_rungs == w.selection_ratios == ()
    assert w.flags == ("auxiliary-profile", "witness-unconstructible")
    assert w.auxiliary is None and w.young is B


def test_tau_points_per_witness(monkeypatch):
    # the points at which _tau_many evaluates B for one witness call: 529
    # and 5,507 here, about 140k per case when every candidate was bisected
    # from the root, and over 20k on the direct case when either the lazy
    # scan or the seeded brackets are undone
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
