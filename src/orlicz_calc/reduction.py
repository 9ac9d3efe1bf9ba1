"""Boundedness of the fractional maximal operator between Orlicz spaces.

The decision reduces to one-dimensional inequalities between the Young
functions.  Two equivalent criteria are implemented:

* target-side: int_0^t B(s)/s^(q*+1) ds <= A_gamma(C t) / t^q* for all t,
  together with the admissibility of A near zero;
* domain-side: B_gamma(t) <= A(C t) for all t, together with the convergence
  of the defining integral of B_gamma.

Both end in ``young.ladder_verdict``, the decision ``young.dominates`` makes
too: the end profiles screen beyond-grid behaviour, then the least rung of a
geometric ladder on [1, constant_cap] that fits on the grid is the constant.
Endpoint shortcuts cover the L-infinity target (A(t) >= C t^(n/gamma)) and
the L^1 domain (full-line convergence of the B-integral).
"""

from __future__ import annotations

import math

import numpy as np

from . import transforms as tr
# the ladder constants live with the ladder in ``young``; they are named
# here too because the criteria below search that ladder
from .young import (  # noqa: F401
    CONSTANT_CAP,
    CONSTANT_STEPS,
    DoubleRangeError,
    EndProfile,
    GammaContext,
    Verdict,
    YoungFn,
    _q_category,
    constant_ladder,
    end_integrable,
    end_sign,
    exponent_signs,
    ladder_verdict,
)


def _lhs_profile(pb: EndProfile, ctx: GammaContext, end: str) -> EndProfile:
    """End profile of the prefix integral t -> int_0^t B(s)/s^(q*+1) ds,
    mapped from B's own profile."""
    if pb.kind != "power" or _q_category(pb) == "super":
        # plateaus pass through (0 stays 0, +inf stays +inf), and so does a
        # superpolynomial scale
        return pb
    dq, da = exponent_signs(pb, -ctx.q_star, 1.0)
    if dq > 0:
        return EndProfile("power", pb.q - ctx.q_star, pb.alpha, exact=pb.exact)
    if end == "zero" or (dq == 0 and da > 0):
        return EndProfile("power", 0.0, pb.alpha + 1.0, exact=pb.exact)
    # convergent at infinity: the integral levels off
    return EndProfile("power", 0.0, 0.0, exact=pb.exact and (dq, da) != (0, 0))


def _rhs_profile(pa: EndProfile, ctx: GammaContext) -> EndProfile:
    """End profile of t -> A_gamma(t)/t^q*, mapped from the target profile."""
    if pa.kind != "power" or _q_category(pa) == "super":
        return pa
    return EndProfile("power", pa.q - ctx.q_star, pa.alpha, exact=pa.exact)


def criterion_iii(A: YoungFn, B: YoungFn, ctx: GammaContext, *,
                  constant_cap: float = CONSTANT_CAP) -> Verdict:
    """Target-side criterion: the prefix integral of B against the target
    profile of A."""
    ladder = constant_ladder(constant_cap)
    if not tr.check_acond(A, ctx):
        return Verdict(False, math.nan, "iii", A.grid.t_min, ("acond-failed",))
    AG = tr.a_gamma(A, ctx)
    L = tr.lower_fractional_integral(B, ctx)
    t = L.t
    if not np.isfinite(L.y).any():
        return Verdict(False, math.nan, "iii", float(t[0]), ("lhs-divergent",))

    q_star = ctx.q_star
    with np.errstate(over="ignore"):
        tq = t ** q_star

    def rhs_at(c):
        if tq[0] == 0.0:  # A_gamma(ct) / 0 is inf or NaN, the true quotient neither
            raise DoubleRangeError(f"A_gamma(ct) / t^q* at q* = {q_star:.4g}: t^q* "
                                   f"underflows (t = {t[tq == 0.0][-1]:.3g})")
        with np.errstate(over="ignore", invalid="ignore"):
            return AG._monotone_eval(c * t) / tq

    return ladder_verdict("iii", lambda end: _rhs_profile(AG.end_profile(end), ctx),
                          lambda end: _lhs_profile(B.end_profile(end), ctx, end),
                          t, L.y, rhs_at, ladder)


def criterion_iv(A: YoungFn, B: YoungFn, ctx: GammaContext, *,
                 constant_cap: float = CONSTANT_CAP) -> Verdict:
    """Domain-side criterion: the domain profile of B against A."""
    ladder = constant_ladder(constant_cap)
    if not tr.check_bconv(B, ctx):
        return Verdict(False, math.nan, "iv", B.grid.t_min, ("bconv-failed",))
    BG = tr.b_gamma(B, ctx)
    t = BG.table.t
    return ladder_verdict("iv", A.end_profile, BG.end_profile, t, BG.table.y,
                          lambda c: A._monotone_eval(c * t), ladder)


def bounded(A: YoungFn, B: YoungFn, ctx: GammaContext, *,
            constant_cap: float = CONSTANT_CAP) -> Verdict:
    """Both criteria, which must agree; on disagreement the conservative
    (negative) verdict is returned with a diagnostic flag."""
    v3 = criterion_iii(A, B, ctx, constant_cap=constant_cap)
    v4 = criterion_iv(A, B, ctx, constant_cap=constant_cap)
    if v3.holds != v4.holds:
        neg = v4 if v3.holds else v3
        return Verdict(False, neg.constant, neg.criterion_used, neg.worst_t,
                       neg.flags + ("criterion-disagreement",))
    use = v3 if v3.holds or not v4.holds else v4
    flags = tuple(sorted(set(v3.flags) | set(v4.flags)))
    return Verdict(v3.holds, use.constant, use.criterion_used, use.worst_t, flags)


def endpoint_linf_target(A: YoungFn, ctx: GammaContext) -> Verdict:
    """Boundedness into L-infinity: A(t) >= C t^(n/gamma) on (0, inf)."""
    r = ctx.r_star
    if A.zero_plateau_end > 0.0:
        return Verdict(False, math.nan, "endpoint-i", A.zero_plateau_end,
                       ("zero-plateau",))
    ok = end_sign(A, -r, "zero") >= 0 and end_sign(A, -r, "infinity") >= 0
    flags = [] if A.closed_form is not None else ["heuristic"]
    t = A.table.t
    vals = np.atleast_1d(np.asarray(A._monotone_eval(t), dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = vals / t ** r
    finite = ratio[np.isfinite(ratio)]
    inf_val = float(np.min(finite)) if len(finite) else math.inf
    if np.any(vals == 0.0):
        ok = False
        inf_val = 0.0
    worst = float(t[int(np.argmin(np.where(np.isfinite(ratio), ratio, np.inf)))])
    return Verdict(bool(ok), inf_val if ok else math.nan, "endpoint-i", worst,
                   tuple(flags))


def endpoint_l1_domain(B: YoungFn, ctx: GammaContext) -> Verdict:
    """Boundedness from L^1: the full-line integral of B(s)/s^(q*+1) converges."""
    q_star = ctx.q_star
    if not tr.check_bconv(B, ctx):
        return Verdict(False, math.nan, "endpoint-ii", B.grid.t_min,
                       ("diverges-at-zero",))
    if math.isfinite(B.finite_sup):
        return Verdict(False, math.nan, "endpoint-ii", B.finite_sup,
                       ("diverges-at-infinity",))
    ok = end_integrable(B, -q_star - 1.0, "infinity")
    flags = [] if B.closed_form is not None else ["heuristic"]
    if not ok:
        return Verdict(False, math.nan, "endpoint-ii", B.grid.t_max, tuple(flags))
    g = tr.widened_sample(B)
    partial = float(g.prefix_integral(-q_star - 1.0)[-1])
    total = float(partial + g.tail_integral(-q_star - 1.0, "infinity"))
    if not math.isfinite(total):
        # analytic upper-tail term disagrees with the profile decision: report
        # the convergent verdict with the partial integral and a flag
        flags.append("tail-term-indeterminate")
        total = partial
    return Verdict(True, total, "endpoint-ii", B.grid.t_max, tuple(flags))
