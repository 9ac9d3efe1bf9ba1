"""Optimal-space decisions and the essential-enlargement witness.

Target side: given an admissible domain profile A, the computed target is the
smallest Orlicz range exactly when its lower Boyd index exceeds n/(n-gamma);
otherwise no optimal Orlicz range exists and every admissible range can be
shrunk essentially (witnessed constructively below).  Domain side: the domain
profile of B is always the largest admissible Orlicz domain once its defining
integral converges.  Reiterating the constructions characterises when both
sides are simultaneously optimal, with the improved domain produced by the
supremum construction.

The witness construction modifies B on a sparse ladder of intervals
(t_k, tau_k) chosen so that the chord of B over each interval inflates the
ratio B1(2 t_k)/B(k t_k) beyond any dilation, while the defining integral
inequality survives with the constant bumped from C to 5C.  When the
comparison profile D has D(t)/t^q* bounded below near zero, an auxiliary
profile is first manufactured from B itself on a d_k = 1/log(k+1) ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transforms as tr
from .boyd import boyd_indices
from .young import (
    GammaContext,
    YoungFn,
    _with_plateau_breakpoints,
    equivalent,
    from_callable,
    grid_leq,
    least_constant,
    libm_exp,
    log_bisect,
    newton_log,
    seed_brackets,
)


class IndeterminateIndexError(ValueError):
    """A Boyd estimate straddles a decision gate and the input is tabulated."""


@dataclass(frozen=True)
class TargetResult:
    kind: str  # "optimal" | "no-optimal-exists" | "no-target-exists"
    target: YoungFn | None
    index_value: float
    gate: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class DomainResult:
    kind: str  # "optimal" | "no-domain-exists"
    domain: YoungFn | None
    simplified: bool
    flags: tuple[str, ...] = ()


def optimal_target(A: YoungFn, ctx: GammaContext) -> TargetResult:
    """Smallest Orlicz target, or the reason none exists."""
    if not tr.check_acond(A, ctx):
        return TargetResult("no-target-exists", None, math.nan, ctx.q_star,
                            ("acond-failed",))
    AG = tr.a_gamma(A, ctx)
    est = boyd_indices(AG)
    gate = ctx.q_star
    if est.indeterminate_against(gate):
        raise IndeterminateIndexError(
            f"lower Boyd index {est.i_lower:.4g} +- {est.ci_halfwidth:.2g} "
            f"straddles the gate {gate:.4g}")
    flags = est.flags + (est.method,)
    if est.i_conservative > gate:
        return TargetResult("optimal", AG, est.i_lower, gate, flags)
    return TargetResult("no-optimal-exists", AG, est.i_lower, gate, flags)


def optimal_domain(B: YoungFn, ctx: GammaContext) -> DomainResult:
    """Largest Orlicz domain, or the reason none exists."""
    if not tr.check_bconv(B, ctx):
        return DomainResult("no-domain-exists", None, False, ("bconv-failed",))
    BG = tr.b_gamma(B, ctx)
    est = boyd_indices(B)
    simplified = est.i_conservative > ctx.q_star
    return DomainResult("optimal", BG, simplified, est.flags)


@dataclass(frozen=True)
class RangeReiteration:
    domain: YoungFn | None
    target: YoungFn | None
    target_optimal: bool
    roundtrip_equivalent: bool
    flags: tuple[str, ...] = ()


def reiterate_range(B: YoungFn, ctx: GammaContext) -> RangeReiteration:
    """Domain of B, then the target of that domain; the roundtrip returns B
    exactly when the lower Boyd index of B clears n/(n-gamma)."""
    if not tr.check_bconv(B, ctx):
        return RangeReiteration(None, None, False, False, ("bconv-failed",))
    BG = tr.b_gamma(B, ctx)
    if not tr.check_acond(BG, ctx):
        return RangeReiteration(BG, None, False, False, ("acond-failed",))
    AG = tr.a_gamma(BG, ctx)
    est = boyd_indices(B)
    target_optimal = est.i_conservative > ctx.q_star
    roundtrip = equivalent(AG, B).holds
    return RangeReiteration(BG, AG, target_optimal, roundtrip, est.flags)


@dataclass(frozen=True)
class DomainReiteration:
    improved: YoungFn | None
    improvement_strict: bool
    target_optimal: bool
    target_preserved: bool
    flags: tuple[str, ...] = ()


def reiterate_domain(A: YoungFn, ctx: GammaContext) -> DomainReiteration:
    """Improved domain via the supremum construction; optimality of the pair
    is governed by the improved domain's lower Boyd index exceeding 1."""
    if not tr.check_acond(A, ctx):
        return DomainReiteration(None, False, False, False, ("acond-failed",))
    AS = tr.a_sup(A, ctx)
    est = boyd_indices(AS)
    strict = not equivalent(A, AS).holds
    target_optimal = est.i_conservative > 1.0
    preserved = equivalent(tr.a_gamma(A, ctx), tr.a_gamma(AS, ctx)).holds
    return DomainReiteration(AS, strict, target_optimal, preserved, est.flags)


# ---------------------------------------------------------------------------
# essential enlargement witness


@dataclass(frozen=True)
class WitnessResult:
    young: YoungFn
    t_rungs: tuple[float, ...]
    tau_rungs: tuple[float, ...]
    selection_ratios: tuple[float, ...]
    domination_ratios: tuple[float, ...]
    constant: float
    bound_margin: float
    flags: tuple[str, ...] = ()
    auxiliary: YoungFn | None = None


# the ladder may descend far below the sample grid: closed-form anchored
# extrapolation keeps the scan exact down here, and the exact-tail head
# integral keeps sub-floor chords integrable for the boundedness criteria
_SCAN_FLOOR = 1e-60
_SCAN_PPD = 16
_MAX_RUNGS = 12
_TAU_ROOT = (math.log(1e-90), 0.0)
# Newton steps of the guess that seeds each tau bisection
_TAU_GUESS_STEPS = 5
# the rung scan bisects its candidates in blocks of this many, doubling
_FIRST_BLOCK = 16


def _auxiliary_profile(B: YoungFn, ctx: GammaContext):
    """Manufacture a comparison profile from B on the d_k = 1/log(k+1) ladder.

    Returns (profile, rung abscissae); the profile's density is piecewise
    d_k t^q* below 1 and C t^q* beyond, integrated over (0, 2t).  The
    profile is None when the ladder has no rung: B's prefix integral
    exceeds d_1 on all of the scan."""
    q_star = ctx.q_star
    scan = np.power(10.0, np.arange(math.log10(_SCAN_FLOOR), 0.31, 1.0 / _SCAN_PPD))
    prefix = B.sampled(scan).prefix_integral(-q_star - 1.0)
    total_below_1 = float(np.interp(1.0, scan, prefix))

    t_rungs = [1.0]
    for k in range(1, 60):
        d_k = 1.0 / math.log(k + 1.0)
        limit = t_rungs[-1] / (k if k > 1 else 1.0)
        ok = (scan <= limit * (1 + 1e-12)) & (prefix <= d_k)
        idx = np.nonzero(ok)[0]
        if len(idx) == 0 or scan[idx[-1]] <= _SCAN_FLOOR * 10:
            break
        t_rungs.append(float(scan[idx[-1]]))
    rungs = np.array(t_rungs[1:][::-1])  # ascending
    if not rungs.size:
        return None, rungs
    dvals = np.array([1.0 / math.log(k + 1.0)
                      for k in range(len(rungs), 0, -1)])
    top = max(total_below_1, 1.0 / math.log(2.0)) * 1.01

    # profile(t) = int_0^{2t} density(s)/s ds, accumulated in closed form on
    # the rung partition (each cell integrates coef * s^(q*-1)); the deepest
    # coefficient extends below the ladder, which only enlarges the profile
    knots = np.unique(np.concatenate([rungs, [1.0, 1e16]]))

    def coef_at(x: np.ndarray) -> np.ndarray:
        i = np.searchsorted(rungs, x, side="right") - 1
        c = np.where(i < 0, dvals[0], dvals[np.clip(i, 0, len(dvals) - 1)])
        return np.where(x >= 1.0, top, c)

    kcoef = np.append(coef_at(knots[:-1]), top)
    cum = np.empty(len(knots))
    cum[0] = dvals[0] * knots[0] ** q_star / q_star
    for i in range(len(knots) - 1):
        cum[i + 1] = cum[i] + kcoef[i] * (knots[i + 1] ** q_star
                                          - knots[i] ** q_star) / q_star

    def profile(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = 2.0 * t
        idx = np.searchsorted(knots, u, side="right") - 1
        deep = idx < 0
        idx = np.clip(idx, 0, len(knots) - 1)
        out = cum[idx] + kcoef[idx] * (u ** q_star - knots[idx] ** q_star) / q_star
        return np.where(deep, dvals[0] * u ** q_star / q_star, out)

    D = from_callable(profile, grid=B.grid, label="auxiliary-profile",
                      normalize=False)
    return D, rungs


def _tau_guess(B: YoungFn, levels: np.ndarray) -> np.ndarray:
    """A guess of log sup{s: B(s)/s <= level} per level, to pick the nodes
    that ``seed_brackets`` checks: the table of phi = B(s)/s read backwards
    in log-log, cell by cell and past its ends along its end cells, then
    Newton steps on phi itself (``newton_log``) from that cell's slope."""
    tab = B.table
    with np.errstate(divide="ignore", invalid="ignore"):
        logt = np.log(tab.t)
        logphi = np.log(tab.y) - logt
        usable = np.isfinite(logphi)
        x, y = logphi[usable], logt[usable]
        loglv = np.log(levels)
        if x.size < 2:
            u, slope = np.full_like(levels, 0.5 * _TAU_ROOT[0]), np.ones_like(levels)
        else:
            cell = np.clip(np.searchsorted(x, loglv), 1, x.size - 1)
            slope = (x[cell] - x[cell - 1]) / (y[cell] - y[cell - 1])
            u = y[cell] + (loglv - x[cell]) / slope
        u = np.clip(np.nan_to_num(u, nan=0.0), *_TAU_ROOT)
        return newton_log(lambda s: B._monotone_eval(s) / s, u, loglv, slope,
                          _TAU_GUESS_STEPS)


def _tau_many(B: YoungFn, levels: np.ndarray) -> np.ndarray:
    """sup{s in (0, 1]: B(s)/s <= level} for every level at once.

    B(s)/s is nondecreasing, so each level is bisected in log s over the
    root bracket [log 1e-90, 0] with up to 80 halvings, through libm's exp
    so that the rungs do not depend on numpy's; 0.0 where the level lies
    below B(1e-90)/1e-90 and 1.0 where B(1) <= level.  Each bisection starts
    at a checked node of the root search's tree (``seed_brackets``, picked
    by ``_tau_guess``), which gives the bits of the search from the root;
    so every level is answered on its own, whatever else is in the call."""
    lo_s = math.exp(_TAU_ROOT[0])
    phi_lo = B._monotone_eval(np.array([lo_s]))[0] / lo_s
    phi_1 = B._monotone_eval(np.array([1.0]))[0]
    dead = phi_lo > levels
    work = ~dead & ~(phi_1 <= levels)
    out = np.where(dead, 0.0, 1.0)
    lv = levels[work]

    def below(u, idx):
        s = libm_exp(u)
        return B._monotone_eval(s) / s <= lv[idx]

    if lv.size:
        lo, hi, used = seed_brackets(_tau_guess(B, lv), below, _TAU_ROOT)
        out[work] = libm_exp(log_bisect(below, lo, hi, 80, libm_exp, used))
    return out


def _select_rungs(B: YoungFn, D: YoungFn, q_star: float):
    """The witness ladder: the rungs t_k and tau_k, and their selection ratios.

    Rung k scans its candidates t downward in 16 per decade; the first that
    passes every test becomes the rung: D(t)/t^q* at most half the last
    rung's, tau = sup{s: B(s)/s <= D(t)/t} in [2t, last t), and the
    selection ratio (B(tau)/tau) * (t / B(k t)) finite and at least 10 k.
    The first test needs no tau, so it runs first; the candidates that pass
    it get their tau in growing blocks, in scan order, and the scan stops at
    the first block that holds a rung.  Each tau is answered on its own
    (``_tau_many``), so the rung is the one a scan of every candidate finds.
    """
    t_rungs: list[float] = []
    tau_rungs: list[float] = []
    sel_ratios: list[float] = []
    prev_t = 1.0
    prev_dr = None
    cursor = 0.3
    for k in range(1, _MAX_RUNGS + 1):
        cands = []
        t = min(cursor, prev_t * 0.49)
        while t > _SCAN_FLOOR:
            cands.append(t)
            t /= 10.0 ** (1.0 / _SCAN_PPD)
        ts = np.array(cands)
        # python-float powers: numpy's array power takes a sqrt shortcut at 0.5
        d_ratio = D._monotone_eval(ts) / np.array([x ** q_star for x in cands])
        level = d_ratio * np.array([x ** (q_star - 1.0) for x in cands])  # D(t)/t
        live = (np.arange(ts.size) if prev_dr is None
                else np.nonzero(d_ratio <= 0.5 * prev_dr)[0])
        rung = None
        start, size = 0, _FIRST_BLOCK
        while rung is None and start < live.size:
            block = live[start:start + size]
            start, size = start + size, 2 * size
            tau = _tau_many(B, level[block])
            ok = (tau >= 2.0 * ts[block]) & (tau < prev_t)
            idx, tau = block[ok], tau[ok]
            # B(k t) underflows to 0 deep down: a ratio that saturates to
            # inf (or NaN) is no evidence of growth and never makes a rung
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ratio = ((B._monotone_eval(tau) / tau)
                         * (ts[idx] / B._monotone_eval(k * ts[idx])))
            hit = np.nonzero(np.isfinite(ratio) & (ratio >= 10.0 * k))[0]
            if hit.size:
                rung = idx[hit[0]], float(tau[hit[0]]), float(ratio[hit[0]])
        if rung is None:
            break
        j, tau_j, ratio_j = rung
        t_rungs.append(cands[j])
        tau_rungs.append(tau_j)
        sel_ratios.append(ratio_j)
        prev_t = cands[j]
        prev_dr = float(d_ratio[j])
        cursor = prev_t / 2.0
    return t_rungs, tau_rungs, sel_ratios


def witness_improvement(B: YoungFn, D: YoungFn, ctx: GammaContext) -> WitnessResult:
    """Essentially enlarge B while keeping the integral inequality against D.

    Selects a decreasing ladder t_k with chords over (t_k, tau_k) where
    B(tau)/tau = D(t)/t, accepting a rung when the selection ratio
    (B(tau)/tau) * (t / B(k t)) clears 10 k; the modified function still
    satisfies the integral bound with constant 5C.  Fewer than 3 rungs is
    reported as "witness-unconstructible" (grid resolution bound, not fatal).
    """
    q_star = ctx.q_star
    flags: list[str] = []
    auxiliary = None

    # case split on D(t)/t^q* near zero: vanishing -> direct, bounded below ->
    # manufacture the auxiliary profile from B itself
    probe = np.array([B.grid.t_min, 1e-6, 1.0])
    dr = np.atleast_1d(np.asarray(D._monotone_eval(probe), dtype=float)) / probe ** q_star
    if not (dr[0] < 0.25 * dr[2]):
        D_used, _ = _auxiliary_profile(B, ctx)
        auxiliary = D_used
        flags.append("auxiliary-profile")
        if D_used is None:
            # nothing to compare against: no rung, no constant, B unchanged
            return WitnessResult(B, (), (), (), (), math.nan, math.nan,
                                 (*flags, "witness-unconstructible"))
    else:
        D_used = D

    # the constant in the defining inequality against D_used on (0, 1)
    scan = np.power(10.0, np.arange(math.log10(_SCAN_FLOOR), 0.0, 1.0 / _SCAN_PPD))
    prefix = B.sampled(scan).prefix_integral(-q_star - 1.0)

    def d_scaled(c: float) -> np.ndarray:
        """D(c t)/t^q* on the scan, as c^q* * D(ct)/(ct)^q*."""
        ct = scan * c
        return D_used._monotone_eval(ct) / ct ** q_star * c ** q_star

    c_found = least_constant(lambda c: grid_leq(prefix, d_scaled(c)),
                             np.power(2.0, np.arange(-6.0, 21.0)))
    if c_found is None:
        flags.append("defining-inequality-unverified")
        c_found = 1.0

    t_rungs, tau_rungs, sel_ratios = _select_rungs(B, D_used, q_star)

    if len(t_rungs) < 3:
        flags.append("witness-unconstructible")

    tk = np.array(t_rungs)
    tauk = np.array(tau_rungs)
    b_tk = B._monotone_eval(tk)
    b_tauk = B._monotone_eval(tauk)
    slopes = (b_tauk - b_tk) / (tauk - tk)

    def b1(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base = np.atleast_1d(np.asarray(B._monotone_eval(x), dtype=float))
        for i in range(len(tk)):
            inside = (x > tk[i]) & (x < tauk[i])
            if inside.any():
                base = np.where(inside, b_tk[i] + slopes[i] * (x - tk[i]), base)
        return base

    # the chords live on a compact ladder: the end behaviour stays B's
    bps = tuple(float(x) for x in np.concatenate([tk, tauk]))
    B1 = _with_plateau_breakpoints(bps, raw=b1, grid=B.grid,
                                   label=f"witness({B.label})", normalize=False,
                                   profile_hint=B.closed_form)

    # growth evidence along the ladder and the 5C bound on (0, 1); below the
    # deepest rung B1 is B, so its prefix carries B's exact zero tail
    dom_ratios = tuple(map(float, b1(2 * tk)
                           / B._monotone_eval(np.arange(1, len(tk) + 1) * tk)))
    prefix1 = B1.sampled(scan).prefix_integral(-q_star - 1.0)
    rhs = d_scaled(5.0 * c_found)
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.where(rhs > 0, prefix1 / rhs, np.inf)
    bound_margin = float(np.nanmax(margins))
    if bound_margin > 1.0 + 1e-6:
        flags.append("bound-exceeded")

    return WitnessResult(B1, tuple(map(float, tk)), tuple(map(float, tauk)),
                         tuple(sel_ratios), dom_ratios, c_found, bound_margin,
                         tuple(flags), auxiliary)
