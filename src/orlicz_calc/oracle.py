"""Independent numerical verification of the boundedness verdicts.

Three probes, none of which share code paths with the decision criteria:

* a one-dimensional dual-Hardy probe: the operator reduces to
  g |-> t^(gamma/n - 1) * int_0^t g, so Luxemburg-norm ratios of that image
  over dilated test functions must stay bounded exactly when the verdict says
  the operator is bounded;
* a modular probe evaluating both sides of the modular inequality on a 2-D
  step function with the brute-force operator;
* a brute-force fractional maximal operator on square grids (all in-grid
  axis-parallel squares: prefix-sum block sums, each side's best inherited
  from the squares one side larger), with the rearrangement estimate
  (M f)*(t) <= c1 sup_{s>=t} s^(gamma/n) f**(s) checked empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DEFAULT_GRID, GridFn, GridSpec, StepFn, _sorted_distinct, merge_breakpoints
from .young import (
    GammaContext,
    IntegralDivergentError,
    YoungFn,
    luxemburg_norm,
    rearrangement,
)

MAX_SIDE = 256


# ---------------------------------------------------------------------------
# 1-D dual Hardy probe


def hardy_dual_apply(g: GridFn, ctx: GammaContext) -> GridFn:
    """H'g(t) = t^(gamma/n - 1) int_0^t g(s) ds by prefix quadrature."""
    prefix = g.prefix_integral(0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        vals = g.t ** (ctx.s_star - 1.0) * prefix
    return GridFn(g.t, vals)


@dataclass(frozen=True)
class TestFunction:
    """Nonincreasing test profiles on (0, inf).

    kind "indicator": the characteristic function of (0, r);
    kind "power-log": t**(-p) l(t)**beta restricted to (a, b).
    """

    kind: str
    r: float = 1.0
    p: float = 0.0
    beta: float = 0.0
    a: float = 1e-4
    b: float = 1e4

    def realize(self, scale: float, grid: GridSpec = DEFAULT_GRID) -> StepFn | GridFn:
        """The profile dilated by ``scale``: g(t / scale)."""
        if self.kind == "indicator":
            return StepFn(np.array([self.r * scale]), np.array([1.0]))
        if self.kind == "power-log":
            lo, hi = self.a * scale, self.b * scale
            t = merge_breakpoints(grid, [lo, hi])
            x = t / scale
            with np.errstate(divide="ignore"):
                vals = x ** (-self.p) * (1.0 + np.abs(np.log(x))) ** self.beta
            vals = np.where((t > lo) & (t < hi), vals, 0.0)
            return GridFn(t, vals)
        raise ValueError(self.kind)


def default_probe_family() -> tuple[TestFunction, ...]:
    """Near-extremal indicators plus a couple of power-log profiles."""
    return (TestFunction("indicator", r=1.0),
            TestFunction("power-log", p=0.5, beta=0.0, a=1e-6, b=1.0),
            TestFunction("power-log", p=0.0, beta=-1.0, a=1e-4, b=1e4))


DEFAULT_SCALES = (1e-4, 1e-2, 1.0, 1e2, 1e4)
# a monotone sweep whose ratios spread by this factor classifies as diverging
_GROWTH = 10.0


@dataclass(frozen=True)
class ProbeReport:
    """Norm-ratio sweep of the dual Hardy operator over a test family."""

    ratios: tuple[tuple[int, float, float], ...]  # (function index, scale, ratio)
    max_ratio: float
    trend: str  # "bounded" | "diverging" | "inconclusive"
    flags: tuple[str, ...] = ()


def _classify(ratios: list[float]) -> str:
    finite = [r for r in ratios if math.isfinite(r) and r > 0]
    if any(math.isinf(r) for r in ratios):
        return "diverging"
    if len(finite) < 2:
        return "inconclusive"
    lo, hi = min(finite), max(finite)
    if hi / lo < _GROWTH:
        return "bounded"
    increasing = all(b >= a * 0.999 for a, b in zip(finite, finite[1:]))
    decreasing = all(b <= a * 1.001 for a, b in zip(finite, finite[1:]))
    if increasing or decreasing:
        return "diverging"
    return "inconclusive"


def norm_probe(A: YoungFn, B: YoungFn, ctx: GammaContext,
               family=None) -> ProbeReport:
    """Ratios ||H'g||_B / ||g||_A over test functions dilated by DEFAULT_SCALES.

    A monotone growth of at least a factor 10 across the scale sweep (or a
    divergent image norm) classifies as "diverging"; uniformly bounded sweeps
    classify as "bounded".
    """
    family = default_probe_family() if family is None else tuple(family)
    if not family:
        raise ValueError("need a nonempty family")
    entries: list[tuple[int, float, float]] = []
    flags: list[str] = []
    trends: list[str] = []
    for idx, fn in enumerate(family):
        row: list[float] = []
        for scale in DEFAULT_SCALES:
            g = fn.realize(scale)
            gg = g.to_gridfn() if isinstance(g, StepFn) else g
            try:
                num = luxemburg_norm(B, hardy_dual_apply(gg, ctx))
            except IntegralDivergentError:
                num = math.inf
                flags.append(f"norm-divergent:fn{idx}@{scale:g}")
            try:
                den = luxemburg_norm(A, g)
            except IntegralDivergentError:
                den = math.inf
                flags.append(f"domain-norm-divergent:fn{idx}@{scale:g}")
            ratio = num / den if den > 0 and math.isfinite(den) else math.nan
            entries.append((idx, float(scale), float(ratio)))
            if not math.isnan(ratio):
                row.append(ratio)
        trends.append(_classify(row))
    if "diverging" in trends:
        trend = "diverging"
    elif all(t == "bounded" for t in trends):
        trend = "bounded"
    else:
        trend = "inconclusive"
    finite = [r for _, _, r in entries if math.isfinite(r)]
    return ProbeReport(tuple(entries), max(finite) if finite else math.inf,
                       trend, tuple(flags))


# ---------------------------------------------------------------------------
# brute-force 2-D fractional maximal operator


def maximal_2d(f: np.ndarray, gamma: float, cell: float = 1.0) -> np.ndarray:
    """M f on a square grid: at each pixel, the max over the in-grid
    axis-parallel squares Q that contain it of
    |Q|^(gamma/2 - 1) * (cell sum over Q) * cell**2.

    Squares larger than the grid never beat their in-grid translates.  Name
    a k-square by its lowest corner p.  The (k+1)-squares that contain the
    k-square at p are those at p - {0,1}^2 inside the grid, and every
    larger square that contains it also contains one of them.  So the best
    weighted square containing the k-square at p is the max of its own
    weighted sum and the (k+1)-level results at those (at most four)
    corners: one pass per side k, from N down to 1, whose k = 1 result is
    M f.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("need a square value grid")
    n = f.shape[0]
    if n > MAX_SIDE:
        raise ValueError(f"grid side {n} exceeds the brute-force guard {MAX_SIDE}")
    if not (0.0 < gamma < 2.0):
        raise ValueError("need 0 < gamma < 2 for the planar operator")
    if not np.all(np.isfinite(f) & (f >= 0)):
        raise ValueError("values must be finite and nonnegative")
    pref = np.zeros((n + 1, n + 1))
    pref[1:, 1:] = f.cumsum(axis=0).cumsum(axis=1)
    top = np.zeros((0, 0))  # the (k+1)-level result; none above side N
    for k in range(n, 0, -1):
        bs = (pref[k:, k:] - pref[:-k, k:] - pref[k:, :-k] + pref[:-k, :-k])
        cur = (k * cell) ** (gamma - 2.0) * cell ** 2 * bs
        for inner in (cur[:-1, :-1], cur[:-1, 1:], cur[1:, :-1], cur[1:, 1:]):
            np.maximum(inner, top, out=inner)
        top = cur
    return top


def _embedded(f: np.ndarray) -> np.ndarray:
    """f centred on a zero canvas three times its side."""
    n = f.shape[0]
    canvas = np.zeros((3 * n, 3 * n))
    canvas[n:2 * n, n:2 * n] = f
    return canvas


def modular_probe(A: YoungFn, B: YoungFn, ctx: GammaContext, f: np.ndarray,
                  C2: float, cell: float = 1.0) -> bool:
    """Evaluate the modular inequality
    int B( M f / (C2 (int A(|f|))^(gamma/n)) ) <= int A(|f|)
    on a padded window around the support of f."""
    f = np.asarray(f, dtype=float)
    if ctx.n != 2:
        raise ValueError("the brute-force operator supports n = 2 only")
    m = maximal_2d(_embedded(f), ctx.gamma, cell)
    rhs_vals = np.atleast_1d(np.asarray(A.eval(np.abs(f).ravel()), dtype=float))
    rhs = float(np.sum(rhs_vals)) * cell ** 2
    if rhs == 0.0:
        return True
    denom = C2 * rhs ** ctx.s_star
    with np.errstate(over="ignore"):
        lhs_vals = np.atleast_1d(np.asarray(B.eval(m.ravel() / denom), dtype=float))
    lhs = float(np.sum(lhs_vals)) * cell ** 2
    return lhs <= rhs * (1 + 1e-9)


@dataclass(frozen=True)
class RearrangementBoundReport:
    c1: float
    worst_t: float
    samples: int


def _average_decay(fstar: StepFn) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of the rearrangement and its running integral there."""
    b = fstar.breaks
    v = fstar.values
    widths = np.diff(np.concatenate(([0.0], b)))
    cum = np.cumsum(widths * v)
    return b, cum


def rearrangement_bound_check(f: np.ndarray, ctx: GammaContext,
                              cell: float = 1.0) -> RearrangementBoundReport:
    """Empirical constant in (M f)*(t) <= c1 sup_{s>=t} s^(gamma/n) f**(s)."""
    f = np.asarray(f, dtype=float)
    if ctx.n != 2:
        raise ValueError("the brute-force operator supports n = 2 only")
    gamma = ctx.gamma
    m = maximal_2d(_embedded(f), gamma, cell)
    area = cell ** 2
    mstar = rearrangement(np.column_stack((m.ravel(), np.full(m.size, area))))
    fstar = rearrangement(np.column_stack((f.ravel(), np.full(f.size, area))))
    if len(fstar.values) == 0 or fstar.values.max() == 0.0:
        return RearrangementBoundReport(0.0, 0.0, 0)

    breaks, cum = _average_decay(fstar)
    total = cum[-1]

    def prefix(s: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(breaks, s, side="right")
        lower = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        base = np.where(idx > 0, breaks[np.maximum(idx - 1, 0)], 0.0)
        val = np.append(fstar.values, 0.0)[idx]
        return np.where(idx >= len(breaks), total, lower + (s - base) * val)

    # candidate suprema: breakpoints, a log ladder, and interior critical
    # points of s^(gamma/2 - 1) (c + v s) per linear piece of the prefix
    lo = 0.5 * area
    hi = 2.0 * mstar.breaks[-1] if len(mstar.breaks) else 4.0 * total
    cands = [np.geomspace(lo, max(hi, lo * 10), 400), breaks]
    g_half = gamma / 2.0
    base = np.concatenate(([0.0], breaks[:-1]))
    c_piece = np.concatenate(([0.0], cum[:-1])) - base * fstar.values
    with np.errstate(divide="ignore", invalid="ignore"):
        s_crit = c_piece * (1.0 - g_half) / (fstar.values * g_half)
    ok = (s_crit > base) & (s_crit < breaks) & np.isfinite(s_crit)
    cands.append(s_crit[ok])
    s_all = _sorted_distinct(np.concatenate(cands))
    s_all = s_all[s_all > 0]
    g_vals = s_all ** (g_half - 1.0) * prefix(s_all)
    suffix_sup = np.maximum.accumulate(g_vals[::-1])[::-1]

    lhs = np.atleast_1d(np.asarray(mstar(s_all), dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where((suffix_sup > 0) & (lhs > 0), lhs / suffix_sup, 0.0)
    idx = int(np.argmax(ratios))
    return RearrangementBoundReport(float(ratios[idx]), float(s_all[idx]),
                                    len(s_all))

