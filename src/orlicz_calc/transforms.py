"""Young-function transforms for the smoothing operator of order gamma.

Given the context exponents q* = n/(n-gamma), r* = n/gamma, s* = gamma/n:

* target construction: G(t) = sup_{s<=t} A^{-1}(s) s^(-s*) and the target
  profile with inverse equivalent to G, built as the integral of G^{-1}(s)/s;
  admissible when A(t) t^(-r*) stays bounded away from 0 near zero.
* domain construction: F(t) = t^q* * int_0^t B(s) / s^(q*+1) ds, then
  E(t) = t^s* F^{-1}(t), and the domain profile as the integral of
  E^{-1}(s)/s; admissible when the defining integral converges at zero.
* domain improvement: G_sup(t) = t^s* G(t), integrated the same way; applying
  the target construction to the improved domain reproduces the original
  target up to equivalence.

Every transform is a single monotone pass over the shared log grid (running
suprema and prefix quadratures), with the sub-grid singularity handled by the
fitted (or closed-form) power of the lowest decade plus its analytic integral.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from . import families as fam
from .families import EndProfile
from .grid import GridFn, GridSpec, grid_inverse
from .young import (DoubleRangeError, GammaContext, YoungFn, _bands, _q_category, end_sign,
                    integral_sign, inverse_on_grid, per_young)


class TransformGateError(ValueError):
    """A transform's admissibility condition failed."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


# ---------------------------------------------------------------------------
# closed-form asymptotics of the transform outputs

def _scaled_piece(power: float, mult: float, alpha: float, llog: float,
                  explogs) -> fam.AsymPiece:
    factors: list = [fam.PowerFactor(power)]
    if alpha:
        factors.append(fam.LogFactor(alpha * mult))
    if llog:
        factors.append(fam.LogLogFactor(llog * mult))
    for f in explogs:
        factors.append(fam.ExpLogFactor(f.coef * mult ** (1.0 + f.power), f.power))
    return fam.AsymPiece(tuple(factors))


def _target_piece(A: YoungFn, ctx: GammaContext, end: str) -> fam.AsymPiece | None:
    """Closed-form piece of the target profile at one end, when derivable."""
    closed = A.closed_form
    if closed is None:
        return None
    pc = closed.piece(end)
    p = pc.profile(end)
    if end == "infinity" and (p.kind == "plateau-infinity" or p.q == math.inf):
        # superpolynomial growth: the supremum saturates
        return fam.piece(fam.ConstFactor(math.inf))
    parts = pc.power_log_parts()
    if parts is None:
        return None
    q, alpha, llog, explogs = parts
    tie = _bands(p)
    order = fam.lex_sign((q - ctx.r_star,), tie)
    if order < 0:
        mult = ctx.n / (ctx.n - ctx.gamma * q)
        return _scaled_piece(q * mult, mult, alpha, llog, explogs)
    log_sign = fam.lex_sign((alpha,), tie)
    if end == "infinity":
        if order > 0 or log_sign >= 0 or llog or explogs:
            return fam.piece(fam.ConstFactor(math.inf))
        return fam.piece(fam.ExpPowerFactor(1.0, -ctx.r_star / alpha))
    # zero end under the admissibility condition: q = r with alpha >= 0
    if order == 0 and not llog and not explogs:
        if log_sign > 0:
            return fam.piece(fam.ExpPowerFactor(-1.0, -ctx.r_star / alpha))
        if log_sign == 0:
            return fam.piece(fam.ConstFactor(0.0))
    return None


def target_profile_family(A: YoungFn, ctx: GammaContext) -> fam.AsymptoticFamily | None:
    z = _target_piece(A, ctx, "zero")
    i = _target_piece(A, ctx, "infinity")
    if z is None or i is None:
        return None
    return fam.AsymptoticFamily(z, i)


def _domain_piece(B: YoungFn, ctx: GammaContext, end: str) -> fam.AsymPiece | None:
    """Closed-form piece of the domain profile at one end, when derivable."""
    closed = B.closed_form
    if closed is None:
        plateau = (B.zero_plateau_end > 0.0 if end == "zero"
                   else math.isfinite(B.finite_sup))
        return fam.piece(fam.PowerFactor(ctx.r_star)) if plateau else None
    pc = closed.piece(end)
    p = pc.profile(end)
    if p.kind != "power":
        return fam.piece(fam.PowerFactor(ctx.r_star))
    if math.isinf(p.q):
        if any(not isinstance(f, fam.ExpPowerFactor) for f in pc.factors):
            return None
        # exponential scale: the simplified inverse gives t^(n/gamma) times
        # a log correction of exponent -(n/gamma)/beta
        return fam.piece(fam.PowerFactor(ctx.r_star),
                         fam.LogFactor(-ctx.r_star / p.exp_beta))
    parts = pc.power_log_parts()
    if parts is None:
        return None
    q, alpha, llog, explogs = parts
    order = fam.lex_sign((q - ctx.q_star,), _bands(p))
    if order > 0:
        mult = ctx.n / (ctx.n + ctx.gamma * q)
        return _scaled_piece(q * mult, mult, alpha, llog, explogs)
    if llog or explogs:
        return None
    # at or below q*, F(t) = t^q* L(t) and the domain is t L(t)^(1 - gamma/n),
    # for L the prefix integral of B(s)/s^(q*+1)
    L = lower_integral_profile(p, ctx, end)
    if L.q:
        # an order of 25 or more passes unmapped (``young._q_category``);
        # below q* its integral still levels off toward infinity
        return fam.piece(fam.PowerFactor(1.0)) if end == "infinity" and order < 0 else None
    return _scaled_piece(1.0, 1.0 - ctx.s_star, L.alpha, L.loglog_exponent, ())


def domain_profile_family(B: YoungFn, ctx: GammaContext) -> fam.AsymptoticFamily | None:
    z = _domain_piece(B, ctx, "zero")
    i = _domain_piece(B, ctx, "infinity")
    if z is None or i is None:
        return None
    return fam.AsymptoticFamily(z, i)


def improved_profile_family(A: YoungFn, ctx: GammaContext) -> fam.AsymptoticFamily | None:
    """Profile of the improved domain: the original piece where the order sits
    below n/gamma, the pure power t^(n/gamma) beyond."""
    closed = A.closed_form
    if closed is None:
        return None
    pieces = []
    for end in ("zero", "infinity"):
        pc = closed.piece(end)
        p = pc.profile(end)
        if p.kind == "power" and math.isfinite(p.q):
            if pc.power_log_parts() is None:
                return None
            if fam.lex_sign((p.q - ctx.r_star,), _bands(p)) < 0:
                pieces.append(pc)
                continue
        pieces.append(fam.piece(fam.PowerFactor(ctx.r_star)))
    return fam.AsymptoticFamily(*pieces)


# ---------------------------------------------------------------------------
# admissibility conditions


def check_acond(A: YoungFn, ctx: GammaContext) -> bool:
    """Is inf over (0,1) of A(t) t^(-n/gamma) positive?

    Read from the zero-end profile, exactly for a closed form.
    """
    return end_sign(A.end_profile("zero"), -ctx.r_star, "zero") >= 0


def check_bconv(B: YoungFn, ctx: GammaContext) -> bool:
    """Does int_0 B(s) / s^(q*+1) ds converge at zero?"""
    return integral_sign(B.end_profile("zero"), -ctx.q_star - 1.0, "zero") > 0


# ---------------------------------------------------------------------------
# target side


def _inverse_on_abscissae(A: YoungFn) -> tuple[np.ndarray, np.ndarray]:
    """The grid's abscissae t and A^{-1}(t), read from ``inverse_on_grid``
    when A's table has exactly these abscissae (no breakpoints merged in)."""
    t = A.grid.abscissae()
    if np.array_equal(A.table.t, t):
        return t, inverse_on_grid(A)
    return t, A.inverse_many(t)


def g_transform(A: YoungFn, ctx: GammaContext) -> GridFn:
    """Running supremum G(t) = sup_{s<=t} A^{-1}(s) s^(-gamma/n) on the grid."""
    if not check_acond(A, ctx):
        raise TransformGateError("acond-violated",
                                 "A(t) t^(-n/gamma) is not bounded below near 0")
    t, inv = _inverse_on_abscissae(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = inv * t ** (-ctx.s_star)
    vals = np.maximum.accumulate(np.where(np.isfinite(vals), vals, np.inf))
    return GridFn(t, vals)


def _integral_young(core: GridFn, label: str, grid,
                    hint: fam.AsymptoticFamily | None = None) -> YoungFn:
    """int_0^t core(s)/s ds as a Young function (core nondecreasing)."""
    vals = core.prefix_integral(-1.0)
    vals = np.maximum.accumulate(vals)
    table = GridFn(core.t, vals)
    return YoungFn(table=table, grid=grid, label=label, profile_hint=hint)


@per_young
def a_gamma(A: YoungFn, ctx: GammaContext) -> YoungFn:
    """The target profile: integral of G^{-1}(s)/s, equivalent to G^{-1}.

    When G stagnates (the supremum saturates), the result jumps to +inf at
    the saturation level, encoded through the table and finite_sup.  For
    power-log inputs the closed-form asymptotics ride along as metadata.
    """
    G = g_transform(A, ctx)
    g_inv = grid_inverse(G, G.t)
    return _integral_young(g_inv, f"a_gamma({A.label})", A.grid,
                           hint=target_profile_family(A, ctx))


# ---------------------------------------------------------------------------
# domain side


@lru_cache(maxsize=64)
def _widened_abscissae(grid: GridSpec) -> np.ndarray:
    """The grid's abscissae widened by eight decades on each side, at the
    same density; read-only, one array per grid."""
    t = grid.abscissae()
    ppd = grid.points_per_decade
    lo = t[0] * np.power(10.0, np.arange(-8 * ppd, 0, dtype=float) / ppd)
    hi = t[-1] * np.power(10.0, np.arange(1, 8 * ppd + 1, dtype=float) / ppd)
    out = np.concatenate([lo, t, hi])
    out.setflags(write=False)
    return out


def widened_sample(B: YoungFn) -> GridFn:
    """B's monotone view on its widened grid, so that integrals of B see its
    sub-grid modifications."""
    return B.sampled(_widened_abscissae(B.grid))


@per_young
def lower_fractional_integral(B: YoungFn, ctx: GammaContext) -> GridFn:
    """Prefix integral L(t) = int_0^t B(s) / s^(q*+1) ds on the widened grid.

    Values may be +inf when the integral diverges at zero.  One L per (B,
    ctx), shared by ``criterion_iii`` and ``f_transform``: its arrays are
    read-only.
    """
    g = widened_sample(B)
    y = np.maximum.accumulate(g.prefix_integral(-ctx.q_star - 1.0))
    y.setflags(write=False)
    return GridFn(g.t, y)


def lower_integral_profile(pb: EndProfile, ctx: GammaContext, end: str) -> EndProfile:
    """End profile of L(t) = int_0^t B(s)/s^(q*+1) ds, mapped from B's own
    end profile pb.

    Above the critical power q* the integral follows B(t)/t^q*.  At infinity
    a convergent integral levels off.  At the critical power the integrand is
    s^-1 l^alpha l(l)^beta, and the integral gains one level: l^(alpha+1)
    l(l)^beta, or l(l)^(beta+1) when a closed form has alpha = -1.
    """
    if pb.kind != "power" or _q_category(pb) == "super":
        # plateaus pass through (0 stays 0, +inf stays +inf), and so does a
        # superpolynomial scale
        return pb
    bands = _bands(pb)
    if fam.lex_sign((pb.q - ctx.q_star,), bands) > 0:
        return replace(pb, q=pb.q - ctx.q_star)
    if end == "infinity":
        sign = integral_sign(pb, -ctx.q_star - 1.0, end)
        if sign >= 0:
            # convergent: the integral levels off; a tie at every level grows
            # past every level, slower than the last, so it is not exact
            return EndProfile("power", exact=pb.exact and sign > 0)
    if pb.exact and fam.lex_sign((pb.alpha + 1.0,), bands[1:]) == 0:
        return EndProfile("power", exact=True, loglog_exponent=pb.loglog_exponent + 1.0)
    return EndProfile("power", 0.0, pb.alpha + 1.0, exact=pb.exact,
                      loglog_exponent=pb.loglog_exponent)


def f_transform(B: YoungFn, ctx: GammaContext) -> GridFn:
    """F(t) = t^q* int_0^t B(s)/s^(q*+1) ds; increasing, F(t)/t^q* nondecreasing."""
    if not check_bconv(B, ctx):
        raise TransformGateError("bconv-violated",
                                 "int_0 B(s)/s^(q*+1) ds diverges at zero")
    L = lower_fractional_integral(B, ctx)
    # past double range F saturates to inf; an inf integral times an
    # underflowed t^q* is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        vals = L.y * L.t ** ctx.q_star
    if np.isnan(vals).any():
        raise DoubleRangeError(
            f"F(t) = t^q* int_0^t B(s)/s^(q*+1) ds at q* = {ctx.q_star:.4g} leaves the "
            f"double range: the integral overflows where t^q* underflows "
            f"(t = {L.t[np.isnan(vals)][0]:.3g})")
    return GridFn(L.t, np.maximum.accumulate(vals))


@per_young
def b_gamma(B: YoungFn, ctx: GammaContext) -> YoungFn:
    """The domain profile: integral of E^{-1}(s)/s with E(t) = t^(gamma/n) F^{-1}(t)."""
    F = f_transform(B, ctx)
    f_inv = grid_inverse(F, F.t)
    e_vals = np.maximum.accumulate(f_inv.y * f_inv.t ** ctx.s_star)
    E = GridFn(F.t, e_vals)
    e_inv = grid_inverse(E, E.t)
    return _integral_young(e_inv, f"b_gamma({B.label})", B.grid,
                           hint=domain_profile_family(B, ctx))


# ---------------------------------------------------------------------------
# domain improvement


@per_young
def a_sup(A: YoungFn, ctx: GammaContext) -> YoungFn:
    """The improved (largest equivalent-target) domain: integral form over
    the inverse of G_sup(t) = t^(gamma/n) sup_{s<=t} A^{-1}(s) s^(-gamma/n);
    dominated by A and with the same target profile as A."""
    G = g_transform(A, ctx)
    Gs = GridFn(G.t, np.maximum.accumulate(G.y * G.t ** ctx.s_star))
    gs_inv = grid_inverse(Gs, Gs.t)
    return _integral_young(gs_inv, f"a_sup({A.label})", A.grid,
                           hint=improved_profile_family(A, ctx))
