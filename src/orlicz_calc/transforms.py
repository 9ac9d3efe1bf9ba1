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
Both the integral forms and the simplified inverse relations (valid under the
Boyd-index gates) are exposed so they can be cross-checked.
"""

from __future__ import annotations

import math

import numpy as np

from . import families as fam
from .boyd import boyd_indices
from .grid import GridFn, grid_inverse
from .young import (GammaContext, YoungFn, end_integrable, end_sign, inverse_on_grid,
                    per_young)


class DoubleRangeError(ValueError):
    """A transform's value is out of double range where a saturated value
    would be wrong: an overflowed integral times an underflowed power."""


class TransformGateError(ValueError):
    """A transform's admissibility condition failed."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


# ---------------------------------------------------------------------------
# closed-form asymptotics of the transform outputs

def _simple_parts(pc: fam.AsymPiece):
    """(q, alpha, llog, explogs) of a plain power-log piece, else None."""
    parts = pc.power_log_parts()
    return parts if parts is not None and math.isfinite(parts[0]) else None


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
    if closed is not None and end == "infinity":
        pc = closed.piece(end)
        if pc.exppower(end)[0] > 0 or pc.is_const() == math.inf:
            # superpolynomial growth: the supremum saturates
            return fam.piece(fam.ConstFactor(math.inf))
    if end == "infinity" and math.isfinite(A.finite_sup):
        return fam.piece(fam.ConstFactor(math.inf))
    if closed is None:
        return None
    pc = closed.piece(end)
    parts = _simple_parts(pc)
    if parts is None:
        return None
    q, alpha, llog, explogs = parts
    r = ctx.r_star
    if q < r - 1e-12:
        mult = ctx.n / (ctx.n - ctx.gamma * q)
        return _scaled_piece(q * mult, mult, alpha, llog, explogs)
    if end == "infinity":
        if q > r + 1e-12 or (abs(q - r) <= 1e-12 and (alpha >= 0 or llog or explogs)):
            return fam.piece(fam.ConstFactor(math.inf))
        if abs(q - r) <= 1e-12 and alpha < 0 and not llog and not explogs:
            return fam.piece(fam.ExpPowerFactor(1.0, -ctx.r_star / alpha))
        return None
    # zero end under the admissibility condition: q = r with alpha >= 0
    if abs(q - r) <= 1e-12 and not llog and not explogs:
        if alpha > 0:
            return fam.piece(fam.ExpPowerFactor(-1.0, -ctx.r_star / alpha))
        if alpha == 0:
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
    if closed is not None:
        pc = closed.piece(end)
        c_ep, beta = pc.exppower(end)
        if c_ep and all(isinstance(f, fam.ExpPowerFactor) for f in pc.factors):
            # exponential scale: the simplified inverse gives t^(n/gamma) times
            # a log correction of exponent -(n/gamma)/beta
            return fam.piece(fam.PowerFactor(ctx.r_star),
                             fam.LogFactor(-ctx.r_star / beta))
        if pc.is_const() is not None:
            return fam.piece(fam.PowerFactor(ctx.r_star))
    if end == "infinity" and math.isfinite(B.finite_sup):
        return fam.piece(fam.PowerFactor(ctx.r_star))
    if end == "zero" and B.zero_plateau_end > 0.0:
        return fam.piece(fam.PowerFactor(ctx.r_star))
    if closed is None:
        return None
    pc = closed.piece(end)
    parts = _simple_parts(pc)
    if parts is None:
        return None
    q, alpha, llog, explogs = parts
    q_star = ctx.q_star
    if q > q_star + 1e-12:
        mult = ctx.n / (ctx.n + ctx.gamma * q)
        return _scaled_piece(q * mult, mult, alpha, llog, explogs)
    if llog or explogs:
        return None
    scale = 1.0 - ctx.s_star
    if abs(q - q_star) <= 1e-12:
        if end == "zero":
            if alpha < -1.0:
                return fam.piece(fam.PowerFactor(1.0), fam.LogFactor(scale * (alpha + 1.0)))
            return None
        if alpha > -1.0:
            return fam.piece(fam.PowerFactor(1.0), fam.LogFactor(scale * (alpha + 1.0)))
        if alpha == -1.0:
            return fam.piece(fam.PowerFactor(1.0), fam.LogLogFactor(scale))
        return fam.piece(fam.PowerFactor(1.0))
    if end == "infinity":
        return fam.piece(fam.PowerFactor(1.0))
    return None


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
        if end == "infinity" and math.isfinite(A.finite_sup):
            pieces.append(fam.piece(fam.PowerFactor(ctx.r_star)))
            continue
        pc = closed.piece(end)
        q = pc.effective_power(end)
        parts = _simple_parts(pc)
        if parts is None and not math.isinf(q):
            return None
        if q < ctx.r_star - 1e-12:
            pieces.append(pc)
        else:
            pieces.append(fam.piece(fam.PowerFactor(ctx.r_star)))
    return fam.AsymptoticFamily(*pieces)


# ---------------------------------------------------------------------------
# admissibility conditions


def check_acond(A: YoungFn, ctx: GammaContext) -> bool:
    """Is inf over (0,1) of A(t) t^(-n/gamma) positive?

    Decided exactly for closed-form profiles, else from the zero-end profile.
    """
    return end_sign(A, -ctx.r_star, "zero") >= 0


def check_bconv(B: YoungFn, ctx: GammaContext) -> bool:
    """Does int_0 B(s) / s^(q*+1) ds converge at zero?"""
    return end_integrable(B, -ctx.q_star - 1.0, "zero")


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


def supout_inverse(A: YoungFn, ctx: GammaContext) -> GridFn:
    """Simplified target inverse A^{-1}(t) t^(-gamma/n), valid when the upper
    Boyd index of A sits below n/gamma."""
    est = boyd_indices(A)
    if not (est.I_conservative < ctx.r_star):
        raise TransformGateError("index-gate-failed",
                                 f"upper Boyd index {est.I_upper:.4g} is not below "
                                 f"n/gamma = {ctx.r_star:.4g}")
    t, inv = _inverse_on_abscissae(A)
    vals = inv * t ** (-ctx.s_star)
    return GridFn(t, np.maximum.accumulate(vals))


# ---------------------------------------------------------------------------
# domain side


def widened_sample(B: YoungFn) -> GridFn:
    """B's monotone view on its grid widened by eight decades on each side,
    so that integrals of B see its sub-grid modifications."""
    t = B.grid.abscissae()
    ppd = B.grid.points_per_decade
    lo = t[0] * np.power(10.0, np.arange(-8 * ppd, 0, dtype=float) / ppd)
    hi = t[-1] * np.power(10.0, np.arange(1, 8 * ppd + 1, dtype=float) / ppd)
    return B.sampled(np.concatenate([lo, t, hi]))


def lower_fractional_integral(B: YoungFn, ctx: GammaContext) -> GridFn:
    """Prefix integral L(t) = int_0^t B(s) / s^(q*+1) ds on the widened grid.

    Values may be +inf when the integral diverges at zero.
    """
    g = widened_sample(B)
    return GridFn(g.t, np.maximum.accumulate(g.prefix_integral(-ctx.q_star - 1.0)))


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


def intout_inverse(B: YoungFn, ctx: GammaContext) -> GridFn:
    """Simplified domain inverse t^(gamma/n) B^{-1}(t), valid when the lower
    Boyd index of B exceeds n/(n-gamma)."""
    est = boyd_indices(B)
    if not (est.i_conservative > ctx.q_star):
        raise TransformGateError("index-gate-failed",
                                 f"lower Boyd index {est.i_lower:.4g} is not above "
                                 f"n/(n-gamma) = {ctx.q_star:.4g}")
    t, inv = _inverse_on_abscissae(B)
    vals = t ** ctx.s_star * inv
    return GridFn(t, np.maximum.accumulate(vals))


# ---------------------------------------------------------------------------
# domain improvement


def gsup_transform(A: YoungFn, ctx: GammaContext) -> GridFn:
    """G_sup(t) = t^(gamma/n) sup_{s<=t} A^{-1}(s) s^(-gamma/n); increasing."""
    G = g_transform(A, ctx)
    vals = G.y * G.t ** ctx.s_star
    return GridFn(G.t, np.maximum.accumulate(vals))


@per_young
def a_sup(A: YoungFn, ctx: GammaContext) -> YoungFn:
    """The improved (largest equivalent-target) domain: integral form over
    G_sup^{-1}; dominated by A and with the same target profile as A."""
    Gs = gsup_transform(A, ctx)
    gs_inv = grid_inverse(Gs, Gs.t)
    return _integral_young(gs_inv, f"a_sup({A.label})", A.grid,
                           hint=improved_profile_family(A, ctx))
