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
"""

from __future__ import annotations

import math
from dataclasses import replace

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
    ladder_verdict,
)


def _rhs_profile(pa: EndProfile, ctx: GammaContext) -> EndProfile:
    """End profile of t -> A_gamma(t)/t^q*, mapped from the target profile."""
    if pa.kind != "power" or _q_category(pa) == "super":
        return pa
    return replace(pa, q=pa.q - ctx.q_star)


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
                          lambda end: tr.lower_integral_profile(B.end_profile(end), ctx, end),
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
    (negative) verdict is returned with a diagnostic flag.

    A false criterion iv decides alone: the verdict is false whatever iii
    says, so a range error in iii then only adds the flag
    ``iii-out-of-range``.  Otherwise iii's range error is raised."""
    try:
        v3 = criterion_iii(A, B, ctx, constant_cap=constant_cap)
    except DoubleRangeError:
        try:
            v4 = criterion_iv(A, B, ctx, constant_cap=constant_cap)
        except DoubleRangeError:
            v4 = None
        if v4 is None or v4.holds:
            raise
        return Verdict(False, v4.constant, v4.criterion_used, v4.worst_t,
                       tuple(sorted(v4.flags + ("iii-out-of-range",))))
    v4 = criterion_iv(A, B, ctx, constant_cap=constant_cap)
    if v3.holds != v4.holds:
        neg = v4 if v3.holds else v3
        return Verdict(False, neg.constant, neg.criterion_used, neg.worst_t,
                       neg.flags + ("criterion-disagreement",))
    use = v3 if v3.holds or not v4.holds else v4
    flags = tuple(sorted(set(v3.flags) | set(v4.flags)))
    return Verdict(v3.holds, use.constant, use.criterion_used, use.worst_t, flags)
