"""Dilation function and Boyd indices of a Young function.

The dilation function is h(t) = sup_s A^{-1}(st) / A^{-1}(s); the lower and
upper indices are the limits of log t / log h(t) as t -> inf and t -> 0+.
Closed-form profiles give the indices exactly (power-log profiles have both
indices equal to the power; exponential-type profiles give +inf; mixed powers
give the min / max of the two end orders).  The numeric route evaluates h on
a fixed ladder t = 10**k and extrapolates the reciprocal slope
log h / log t = 1/i + a * log l(t)/log t + b / log t by least squares; the
second basis term soaks up the slowly varying corrections that make the naive
limit converge only at log log speed.  The whole ladder takes two inverses:
A^{-1} on the table abscissae s (``young.inverse_on_grid``, shared with the
transforms) and one ``inverse_many`` call on the products s t that are not
abscissae themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .young import _Q_TOL, YoungFn, inverse_on_grid, per_young

_LADDER_EXPONENTS = (4.0, 5.0, 6.0, 7.0, 8.0)


@dataclass(frozen=True)
class BoydEstimate:
    """Lower index i, upper index I, extrapolation spread and provenance."""

    i_lower: float
    I_upper: float
    ci_halfwidth: float
    method: str  # "symbolic-exact" | "numeric-limit"
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.i_lower >= 1.0 - 1e-9):
            raise ValueError("lower Boyd index must be >= 1")

    @property
    def i_conservative(self) -> float:
        return self.i_lower - self.ci_halfwidth

    def indeterminate_against(self, gate: float) -> bool:
        """Does the estimate straddle a strict-inequality gate at ``gate``?"""
        if self.method == "symbolic-exact":
            return False
        return self.i_lower - self.ci_halfwidth <= gate <= self.i_lower + self.ci_halfwidth


def dilation(A: YoungFn, t: float) -> float:
    """h(t) = sup over the sample grid of A^{-1}(s t) / A^{-1}(s), with the
    end-limit ratios t**(1/q) of the fitted tails joined in.

    One rung of the ladder that ``boyd_indices`` computes at once, with the
    same bits."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(_dilations(A, np.array([float(t)]))[0])


def _dilations(A: YoungFn, ts: np.ndarray) -> np.ndarray:
    """h(t) for every t > 0 of ts, from A^{-1} of the products s t.

    On a geometric table s t is often the abscissa log t / log(spacing)
    places on (24 k places for t = 10**k on the default grid).  A product
    that equals that abscissa bit for bit reads ``inverse_on_grid`` there;
    the other products take one ``inverse_many`` call.  ``inverse_many``
    answers each point on its own, so these are the bits of one call on all
    the products, and of one call per t."""
    s = A.table.t
    n = len(s)
    inv_s = inverse_on_grid(A)
    st = ts[:, None] * s
    spacing = math.log(s[-1] / s[0]) / (n - 1)
    j = np.arange(n) + np.rint(np.log(ts) / spacing).astype(int)[:, None]
    at = np.clip(j, 0, n - 1)
    off_grid = (at != j) | (s[at] != st)
    inv_st = inv_s[at]
    inv_st[off_grid] = A.inverse_many(st[off_grid])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = inv_st / inv_s
    ends = [A.end_profile(end) for end in ("zero", "infinity")]
    out = np.empty(len(ts))
    for k, t in enumerate(ts.tolist()):
        row = ratio[k][np.isfinite(ratio[k]) & (ratio[k] > 0)]
        best = float(row.max()) if len(row) else 1.0
        for prof in ends:
            if prof.kind == "power" and np.isfinite(prof.q) and prof.q >= 1.0 - _Q_TOL:
                # an order within the tie of 1 is order 1 (fits land a hair below)
                best = max(best, t ** (1.0 / max(prof.q, 1.0)))
            elif prof.kind in ("plateau-zero", "plateau-infinity"):
                best = max(best, 1.0)
        out[k] = best
    return out


def _symbolic_indices(A: YoungFn) -> tuple[float, float] | None:
    closed = A.closed_form
    if closed is None:
        return None
    orders = []
    for end in ("zero", "infinity"):
        p = closed.piece(end).profile(end)
        if p.kind != "power":
            orders.append(math.inf)
            continue
        if p.q < 1.0 - 1e-9 and not math.isinf(p.q):
            return None  # not a Young-admissible order; fall back to numerics
        orders.append(p.q)
    lo, hi = min(orders), max(orders)
    return (max(lo, 1.0), max(hi, 1.0))


def _extrapolate(ts: np.ndarray, hs: np.ndarray) -> tuple[float, float, float]:
    """Fit log h / log t over the ladder; returns (index, halfwidth, residual)."""
    u = np.abs(np.log(ts))
    y = np.log(hs) / np.log(ts)  # equals log h / log t with matching signs
    basis = np.column_stack([np.ones_like(u), np.log1p(u) / u, 1.0 / u])
    sol, *_ = np.linalg.lstsq(basis, y, rcond=None)
    fitted = basis @ sol
    resid = float(np.max(np.abs(fitted - y)))

    def to_index(intercept: float) -> float:
        return math.inf if intercept <= 1e-9 else 1.0 / intercept

    center = to_index(float(sol[0]))
    subs = []
    for drop in range(len(u)):
        keep = np.arange(len(u)) != drop
        s2, *_ = np.linalg.lstsq(basis[keep], y[keep], rcond=None)
        subs.append(to_index(float(s2[0])))
    finite = [s for s in subs if math.isfinite(s)]
    if math.isinf(center) or len(finite) < len(subs):
        return (center, 0.0 if math.isinf(center) else math.inf, resid)
    half = 0.5 * (max(finite) - min(finite))
    return (center, half, resid)


@per_young
def boyd_indices(A: YoungFn, *, force_numeric: bool = False) -> BoydEstimate:
    """Boyd indices of A; closed forms for symbolic profiles, otherwise the
    ladder extrapolation.  The flag "indeterminate" marks fits whose ladder
    points spread beyond 10% of the estimate."""
    if not force_numeric:
        sym = _symbolic_indices(A)
        if sym is not None:
            return BoydEstimate(sym[0], sym[1], 0.0, "symbolic-exact")

    flags: list[str] = []
    ts_hi = np.power(10.0, np.array(_LADDER_EXPONENTS))
    ts_lo = np.power(10.0, -np.array(_LADDER_EXPONENTS))
    h_hi, h_lo = np.split(_dilations(A, np.concatenate([ts_hi, ts_lo])), 2)

    if np.all(h_hi <= 1.0 + 1e-12):
        i_est, i_half = math.inf, 0.0
    else:
        i_est, i_half, i_resid = _extrapolate(ts_hi, np.maximum(h_hi, 1.0))
        if math.isfinite(i_est) and i_resid > 0.1 / max(i_est, 1.0):
            flags.append("indeterminate")
    if np.all(h_lo >= 1.0 - 1e-12):
        I_est, I_half = math.inf, 0.0
    else:
        I_est, I_half, I_resid = _extrapolate(ts_lo, np.minimum(h_lo, 1.0))
        if math.isfinite(I_est) and I_resid > 0.1 / max(I_est, 1.0):
            flags.append("indeterminate")

    i_est = max(i_est, 1.0)
    if I_est < i_est:  # numeric dust cannot be allowed to break the ordering
        I_est = i_est
    return BoydEstimate(i_est, I_est, max(i_half, I_half), "numeric-limit",
                        tuple(flags))
