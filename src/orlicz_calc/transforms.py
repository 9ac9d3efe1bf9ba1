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

from functools import lru_cache

import numpy as np

from . import families as fam
from .families import end_sign, integral_sign, inverse, prefix_integral, running_sup, times
from .grid import GridFn, GridSpec, grid_inverse
from .young import DoubleRangeError, GammaContext, YoungFn, inverse_on_grid, per_young


class TransformGateError(ValueError):
    """A transform's admissibility condition failed."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


# ---------------------------------------------------------------------------
# closed-form asymptotics of the transform outputs: compositions of the
# end-profile maps of ``families`` in the exact context exponents


def _hint(Y: YoungFn, compose, ctx: GammaContext) -> fam.AsymptoticFamily | None:
    """The closed form with the end exponents compose(p, end, gamma, n) of Y's
    closed form, or of Y's exact (plateau) end profiles when it has none."""
    closed = Y.closed_form
    ends = (closed.piece(end).exponents(end) if closed is not None else Y.end_profile(end)
            for end in fam.ENDS)
    return fam.mapped_family(ends, compose, ctx.gamma, ctx.n, like=closed)


def _target(a, end, gamma, n):
    return inverse(running_sup(times(inverse(a, end), -gamma / n), end), end)


def _domain(b, end, gamma, n):  # q* = n/(n - gamma)
    return inverse(times(inverse(times(prefix_integral(b, n / (gamma - n), end), n / (n - gamma)),
                                 end), gamma / n), end)


def _improved(a, end, gamma, n):
    return inverse(times(running_sup(times(inverse(a, end), -gamma / n), end), gamma / n), end)


def target_profile_family(A: YoungFn, ctx: GammaContext) -> fam.AsymptoticFamily | None:
    """The target: the inverse of G = sup_{s<=t} A^{-1}(s) s^(-gamma/n)."""
    return _hint(A, _target, ctx)


def domain_profile_family(B: YoungFn, ctx: GammaContext) -> fam.AsymptoticFamily | None:
    """The domain: the inverse of t^(gamma/n) F^{-1}(t), F = t^q* L for L the
    prefix integral of B(s)/s^(q*+1)."""
    return _hint(B, _domain, ctx)


def improved_profile_family(A: YoungFn, ctx: GammaContext) -> fam.AsymptoticFamily | None:
    """The improved domain: the inverse of t^(gamma/n) G(t)."""
    return _hint(A, _improved, ctx)


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
