"""Log-spaced sample grids, tail extrapolation and piecewise-power quadrature.

Everything downstream works on nonnegative extended-real functions sampled on
a geometric grid.  Between samples a function is interpolated as a power law
(linear in log-log coordinates), which is exact for the power-type profiles
this library manipulates; beyond the grid it is extrapolated with a local
power-law fit of the outermost decade.  ``young.YoungFn.sampled`` is the one
place that attaches an exact tail instead: the closed-form power-log zero
piece of a Young function, with its log-correction exponent.  Integrals are
evaluated cell by cell with the closed-form antiderivative of
``c * s**m * s**w``, so power integrands are integrated exactly and step
functions are exact once their breakpoints are inserted into the abscissae.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TMIN = 1e-12
DEFAULT_TMAX = 1e12
DEFAULT_POINTS_PER_DECADE = 24
# the widest abscissae the transforms represent in doubles: past it, the
# prefix integrals of B(s)/s^(q*+1) on the grid widened by eight decades
# overflow and meet underflowed powers (inf * 0).  Found on the battery at
# (n, gamma) = (3, 1) and (1, 0.5): 1e+-160 passes, 1e+-170 fails.
SPAN_LIMIT = 1e160
# the most abscissae a grid may have.  At 100,017 points (4166 per decade
# over the default 24 decades) the README's CLI commands peak at 46-84 MB;
# 1e8 per decade would ask for a 17.9 GiB array
POINT_LIMIT = 100_000

# Relative offset used to double a breakpoint into a just-below/just-above
# pair so that jumps cost at most ~1e-12 of relative quadrature error.
BREAK_EPS = 1e-12

_EXP_CLIP = 700.0  # exp() overflow guard; beyond this we saturate to inf


@dataclass(frozen=True)
class GridSpec:
    """Geometric abscissae ``t_min .. t_max`` with a fixed per-decade density."""

    t_min: float = DEFAULT_TMIN
    t_max: float = DEFAULT_TMAX
    points_per_decade: int = DEFAULT_POINTS_PER_DECADE

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max < math.inf):
            raise ValueError("need 0 < t_min < t_max < inf")
        if not (1.0 / SPAN_LIMIT <= self.t_min and self.t_max <= SPAN_LIMIT):
            raise ValueError(f"need {1.0 / SPAN_LIMIT:g} <= t_min and "
                             f"t_max <= {SPAN_LIMIT:g}")
        if self.points_per_decade < 2:
            raise ValueError("points_per_decade must be >= 2")
        # compared as int against float, exactly and without overflow
        if self.points_per_decade > (POINT_LIMIT - 1) / self.decades:
            raise ValueError(f"a grid may have at most {POINT_LIMIT} points; "
                             f"{self.points_per_decade} per decade over "
                             f"{self.decades:g} decades is more")

    @property
    def decades(self) -> float:
        return math.log10(self.t_max) - math.log10(self.t_min)

    def abscissae(self) -> np.ndarray:
        return _abscissae_cached(self.t_min, self.t_max, self.points_per_decade)


@lru_cache(maxsize=64)
def _abscissae_cached(t_min: float, t_max: float, ppd: int) -> np.ndarray:
    lo, hi = math.log10(t_min), math.log10(t_max)
    n = int(round((hi - lo) * ppd)) + 1
    pts = np.power(10.0, np.linspace(lo, hi, n))
    pts.setflags(write=False)
    return pts


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class TailFit:
    """Behaviour of a sampled function beyond one end of its grid.

    kind "power": value ~ exp(log_coefficient) * t**exponent * l(t)**log_exponent,
    with l(t) = 1 + |log t|; "zero" / "infinity": identically 0 / inf.
    ``exact`` marks exponents taken from a closed form rather than fitted.
    """

    kind: str  # "power" | "zero" | "infinity"
    exponent: float = 0.0
    log_coefficient: float = 0.0
    log_exponent: float = 0.0
    exact: bool = False

    def log_value(self, logx: np.ndarray) -> np.ndarray:
        logv = self.log_coefficient + self.exponent * logx
        if self.log_exponent:
            logv = logv + self.log_exponent * np.log1p(np.abs(logx))
        return logv

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "infinity":
            return np.full_like(x, np.inf)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            logv = self.log_value(np.log(x))
            return np.where(logv > _EXP_CLIP, np.inf, np.exp(np.minimum(logv, _EXP_CLIP)))

    def inverse(self, s) -> np.ndarray:
        """The x with value(x) = s, for a power tail with a positive exponent;
        its log factor is ignored.  Past exp(_EXP_CLIP) the value jumps to
        inf, so larger s give the x of the jump."""
        with np.errstate(divide="ignore", over="ignore"):
            logs = np.minimum(np.log(np.asarray(s, dtype=float)), _EXP_CLIP)
            return np.exp((logs - self.log_coefficient) / self.exponent)


def ell(t) -> np.ndarray:
    """The slowly varying factor l(t) = 1 + |log t| (natural log)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 + np.abs(np.log(t))


def fit_tail(t: np.ndarray, y: np.ndarray, side: str) -> TailFit:
    """Local power-law fit over the outermost decade of finite positive samples."""
    if side not in ("zero", "infinity"):
        raise ValueError(side)
    edge = 0 if side == "zero" else len(y) - 1
    ye = y[edge]
    if ye == 0.0:
        return TailFit("zero")
    if not np.isfinite(ye):
        return TailFit("infinity")
    if side == "zero":
        window = (t <= t[0] * 10.0) & np.isfinite(y) & (y > 0.0)
    else:
        window = (t >= t[-1] / 10.0) & np.isfinite(y) & (y > 0.0)
    idx = np.nonzero(window)[0]
    # the window must be contiguous with the edge; cut at the first gap
    if side == "zero":
        idx = idx[: np.argmin(idx == np.arange(idx[0], idx[0] + len(idx))) or len(idx)]
    if len(idx) < 2:
        return TailFit("power", 0.0, math.log(ye))
    lt, ly = np.log(t[idx]), np.log(y[idx])
    slope = float(np.polyfit(lt, ly, 1)[0])
    return TailFit("power", slope, math.log(ye) - slope * math.log(t[edge]))


class GridFn:
    """A nonnegative extended-real function sampled on increasing abscissae.

    Values may be 0 or +inf.  Inside the grid, evaluation interpolates as a
    power law between samples that are both finite and positive; a cell with
    a special endpoint evaluates to its left sample (jumps sit at the right
    node, matching left-continuity of Young functions).  Outside the grid the
    tail fits extrapolate.
    """

    __slots__ = ("t", "y", "tail_zero", "tail_infinity", "_logt", "_logy")

    def __init__(self, t: np.ndarray, y: np.ndarray,
                 tail_zero: TailFit | None = None,
                 tail_infinity: TailFit | None = None):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValueError("abscissae/values shape mismatch")
        if np.any(np.diff(t) <= 0):
            raise ValueError("abscissae must be strictly increasing")
        if np.any(y < 0) or np.any(np.isnan(y)):
            raise ValueError("values must be nonnegative and not NaN")
        self.t = t
        self.y = y
        self.tail_zero = tail_zero if tail_zero is not None else fit_tail(t, y, "zero")
        self.tail_infinity = (
            tail_infinity if tail_infinity is not None else fit_tail(t, y, "infinity")
        )
        with np.errstate(divide="ignore"):
            self._logt = np.log(t)
            self._logy = np.log(y)

    # -- basic structure ---------------------------------------------------

    def nondecreasing(self, rtol: float = 0.0) -> bool:
        prev, nxt = self.y[:-1], self.y[1:]
        slack = rtol * np.abs(np.where(np.isfinite(prev), prev, 0.0))
        with np.errstate(invalid="ignore"):
            return bool(np.all(nxt >= prev - slack))

    # -- evaluation --------------------------------------------------------

    def __call__(self, x) -> np.ndarray | float:
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        below = x < self.t[0]
        above = x > self.t[-1]
        inside = ~(below | above)
        if below.any():
            out[below] = self.tail_zero.value(x[below])
        if above.any():
            out[above] = self.tail_infinity.value(x[above])
        if inside.any():
            out[inside] = self._interp(x[inside])
        return float(out[0]) if scalar else out

    def _interp(self, x: np.ndarray) -> np.ndarray:
        t, y = self.t, self.y
        idx = np.searchsorted(t, x, side="right")
        idx = np.clip(idx, 1, len(t) - 1)
        exact = x == t[idx - 1]
        tl, tr = t[idx - 1], t[idx]
        yl, yr = y[idx - 1], y[idx]
        ok = np.isfinite(yl) & np.isfinite(yr) & (yl > 0) & (yr > 0)
        out = np.where(exact | ~ok, yl, 0.0)
        if ok.any():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                m = (self._logy[idx] - self._logy[idx - 1]) / (
                    self._logt[idx] - self._logt[idx - 1]
                )
                val = yl * np.exp(m * (np.log(x) - self._logt[idx - 1]))
            out = np.where(ok & ~exact, val, out)
        return out

    def interp_inverse(self, s: np.ndarray) -> np.ndarray:
        """sup{x : interpolant(x) <= s} for samples that do not decrease and
        y[0] <= s < y[-1]; NaN for other s.

        ``searchsorted`` finds the cell with yl <= s < yr.  Its power law
        yl (x/tl)**m of ``_interp``, solved for x, gives
        exp(log tl + (log s - log yl)/m), capped at tr; a cell that is 0 on
        its left or jumps to inf on its right gives tr.
        """
        s = np.asarray(s, dtype=float)
        out = np.full_like(s, np.nan)
        idx = np.searchsorted(self.y, s, side="right")
        inner = (idx >= 1) & (idx < len(self.y))
        if inner.any():
            r = idx[inner]
            logt, logy = self._logt, self._logy
            power = (self.y[r - 1] > 0.0) & np.isfinite(self.y[r])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                m = (logy[r] - logy[r - 1]) / (logt[r] - logt[r - 1])
                x = np.exp(logt[r - 1] + (np.log(s[inner]) - logy[r - 1]) / m)
            out[inner] = np.where(power, np.minimum(x, self.t[r]), self.t[r])
        return out

    # -- quadrature --------------------------------------------------------

    def tail_integral(self, weight: float, end: str) -> float:
        """Integral of value(s) * s**weight beyond one end of the abscissae,
        over (0, t[0]) for "zero" and (t[-1], inf) for "infinity", from that
        end's tail.

        The integrand is c s**(a-1) l(s)**b there, with b the tail's log
        exponent when exact and 0 when fitted.  It converges when a > 0 at
        zero or a < 0 at infinity, with the first-order correction of the
        log factor from an integration by parts; at a = 0 it converges
        exactly when b < -1.
        """
        zero = end == "zero"
        tail = self.tail_zero if zero else self.tail_infinity
        if tail.kind != "power":
            return 0.0 if tail.kind == "zero" else math.inf
        te = self.t[0] if zero else self.t[-1]
        edge = (float(np.exp(np.minimum(tail.log_value(np.log(te)), _EXP_CLIP)))
                * te ** (weight + 1.0))
        a = tail.exponent + weight + 1.0
        away = a if zero else -a  # positive when s**a decays away from the edge
        b = tail.log_exponent if tail.exact else 0.0
        tol = 1e-9
        if away > tol:
            val = edge / away
            if b:
                val /= 1.0 - b / (away * float(ell(te)))
            return val
        if abs(a) <= tol and b < -1.0 - tol:
            return edge * float(ell(te)) / (-b - 1.0)
        return math.inf

    def prefix_integral(self, weight: float) -> np.ndarray:
        """P(t_i) = integral over (0, t_i] of value(s) * s**weight ds."""
        head = self.tail_integral(weight, "zero")
        cells = _cell_integrals(self.t, self.y, weight)
        out = np.empty_like(self.y)
        out[0] = head
        np.cumsum(cells, out=out[1:])
        out[1:] += head
        return out

    def total_integral(self, weight: float = 0.0) -> float:
        p = self.prefix_integral(weight)
        return float(p[-1] + self.tail_integral(weight, "infinity"))


def _cell_integrals(t: np.ndarray, y: np.ndarray, w: float) -> np.ndarray:
    """Per-cell integrals of y(s) * s**w, exact on power cells."""
    tl, tr = t[:-1], t[1:]
    yl, yr = y[:-1], y[1:]
    out = np.zeros(len(t) - 1)
    finite = np.isfinite(yl) & np.isfinite(yr)
    pos = finite & (yl > 0) & (yr > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.where(pos, np.log(np.where(pos, yr, 1.0) / np.where(pos, yl, 1.0))
                     / np.log(tr / tl), 0.0)
        a = m + w + 1.0
        ratio = tr / tl
        small = np.abs(a) <= 1e-9
        powxa = np.where(small, np.log(ratio), (ratio ** np.where(small, 1.0, a) - 1.0)
                         / np.where(small, 1.0, a))
        cell = yl * tl ** (w + 1.0) * powxa
        out[pos] = cell[pos]
    # a steep cell, whose yr/yl or product leaves the double range: recompute
    # it in logs, anchored at the larger of its end values E = y s**(w+1), as
    # E_max (1 - e**-d) log(tr/tl) / d with d = |log E_r - log E_l| = |a| log(tr/tl)
    steep = pos & ~(np.isfinite(m) & np.isfinite(cell))
    if steep.any():
        left = np.log(yl[steep]) + (w + 1.0) * np.log(tl[steep])
        right = np.log(yr[steep]) + (w + 1.0) * np.log(tr[steep])
        d = np.abs(right - left)
        with np.errstate(over="ignore", invalid="ignore"):
            shape = np.where(d > 0.0, -np.expm1(-d) / d, 1.0)
            out[steep] = (np.exp(np.maximum(left, right)) * shape
                          * np.log(tr[steep] / tl[steep]))
    # cells with a zero endpoint: integrate the linear interpolant (these are
    # breakpoint slivers or plateau boundaries; relative weight is negligible)
    lin = finite & ~pos
    if lin.any():
        ymid = 0.5 * (yl[lin] + yr[lin])
        with np.errstate(over="ignore", invalid="ignore"):
            if abs(w + 1.0) > 1e-12:
                seg = (tr[lin] ** (w + 1.0) - tl[lin] ** (w + 1.0)) / (w + 1.0)
            else:
                seg = np.log(tr[lin] / tl[lin])
            # a zero cell adds nothing, also where s**(w+1) overflows (inf - inf)
            out[lin] = np.where(ymid > 0.0, ymid * seg, 0.0)
            # a cell where s**(w+1) overflows at both ends: the same integral
            # in logs, from the end where s**(w+1) is larger
            over = np.isnan(seg)
            if over.any():
                over &= ymid > 0.0
                a = w + 1.0
                log_big = np.log(np.where(a < 0.0, tl[lin], tr[lin])[over])
                width = np.log(tr[lin] / tl[lin])[over]
                out[np.flatnonzero(lin)[over]] = np.exp(
                    np.log(ymid[over]) + a * log_big
                    + np.log(-np.expm1(-abs(a) * width) / abs(a)))
    # an infinite sample makes its cell (and every later prefix) infinite
    out[np.isinf(yl) | np.isinf(yr)] = np.inf
    return out


# tail exponents at or below this count as a plateau in grid_inverse
_PLATEAU_TOL = 1e-9


def grid_inverse(g: GridFn, out_t: np.ndarray) -> GridFn:
    """Generalized right-continuous inverse sup{t : g(t) <= s} of nondecreasing g.

    Sampled at the values ``out_t`` (interpreted as s-abscissae).  Values can
    be +inf where g saturates below s, and 0 where g starts above s.
    """
    t = g.t
    y = np.maximum.accumulate(g.y)  # guard against float-level dips
    s = np.asarray(out_t, dtype=float)
    out = np.empty_like(s)
    idx = np.searchsorted(y, s, side="right")
    lo_tail, hi_tail = g.tail_zero, g.tail_infinity

    below = idx == 0
    above = idx == len(y)
    inner = ~(below | above)

    if below.any():
        if lo_tail.kind == "power" and lo_tail.exponent > _PLATEAU_TOL:
            out[below] = lo_tail.inverse(s[below])
        else:
            # g starts at a positive level: nothing satisfies g <= s below it
            out[below] = 0.0

    if above.any():
        if hi_tail.kind == "power" and hi_tail.exponent > _PLATEAU_TOL:
            out[above] = hi_tail.inverse(s[above])
        else:
            # saturated (constant or infinite beyond the grid): sup is +inf
            out[above] = np.inf

    if inner.any():
        ii = idx[inner]
        si = s[inner]
        tl, tr = t[ii - 1], t[ii]
        yl, yr = y[ii - 1], y[ii]
        res = np.empty_like(si)
        jump = ~np.isfinite(yr)
        res[jump] = tl[jump]
        ok = ~jump
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            posl = yl > 0
            m = np.where(ok & posl & (yr > yl),
                         np.log(np.maximum(yr, 1e-300) / np.maximum(yl, 1e-300))
                         / np.log(tr / tl), np.nan)
            frac = np.where(ok & posl & (yr > yl),
                            np.log(np.maximum(si, 1e-300) / np.maximum(yl, 1e-300)) / m,
                            np.nan)
            val = tl * np.exp(np.where(np.isnan(frac), 0.0, frac))
        # left endpoint value zero: interpolate linearly in the value
        zer = ok & ~posl
        if zer.any():
            span = np.where(yr[zer] > 0, (si[zer] - yl[zer]) / (yr[zer] - yl[zer]), 0.0)
            val[zer] = tl[zer] + span * (tr[zer] - tl[zer])
        res[ok] = np.minimum(val[ok], tr[ok])
        out[inner] = res

    out = np.maximum.accumulate(out)  # monotone cleanup at tail seams
    return GridFn(s, out)


@dataclass(frozen=True)
class StepFn:
    """Right-continuous step function: value ``values[i]`` on [breaks[i-1], breaks[i]).

    Implicitly 0 on [breaks[-1], inf) and ``values[0]`` on [0, breaks[0]).
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if b.ndim != 1 or b.shape != v.shape:
            raise ValueError("breaks/values shape mismatch")
        if len(b) and (np.any(np.diff(b) <= 0) or b[0] <= 0):
            raise ValueError("breaks must be positive and strictly increasing")
        if np.any(v < 0):
            raise ValueError("step values must be nonnegative")
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", v)

    def __call__(self, x) -> np.ndarray | float:
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.breaks, x, side="right")
        padded = np.append(self.values, 0.0)
        out = padded[idx]
        if scalar:
            return float(out[0])
        return out

    def total_integral(self) -> float:
        widths = np.diff(np.concatenate(([0.0], self.breaks)))
        return float(np.dot(widths, self.values))

    def dilate(self, r: float) -> "StepFn":
        """g(t/r): stretch the time axis by r > 0."""
        if r <= 0:
            raise ValueError("scale must be positive")
        return StepFn(self.breaks * r, self.values.copy())

    def to_gridfn(self, grid: GridSpec = DEFAULT_GRID) -> GridFn:
        base = grid.abscissae()
        pts = [base]
        for b in self.breaks:
            pts.append(np.array([b * (1 - BREAK_EPS), b * (1 + BREAK_EPS)]))
        t = np.unique(np.concatenate(pts))
        t = t[t > 0]
        return GridFn(t, np.asarray(self(t), dtype=float))


def merge_breakpoints(grid: GridSpec, extra: np.ndarray | list) -> np.ndarray:
    """Grid abscissae with ±eps-doubled extra breakpoints inserted.

    Breakpoints outside the grid span are dropped: they would create
    degenerate edge windows for the tail fits.
    """
    base = grid.abscissae()
    pts = [base]
    for b in np.atleast_1d(np.asarray(extra, dtype=float)):
        if grid.t_min < b < grid.t_max and np.isfinite(b):
            pts.append(np.array([b * (1 - BREAK_EPS), b, b * (1 + BREAK_EPS)]))
    return np.unique(np.concatenate(pts))
