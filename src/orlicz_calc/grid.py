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

One routine, ``GridFn.inverse``, solves a table for its levels: each power
cell in closed form, and past the values the tails.  ``grid_inverse``, the
transforms' inverse, differs only in a cell that jumps to inf, where it
keeps the left node: the transforms sample left-continuous functions, which
are finite at their jump, so a jump on a node is found exactly there.
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
_LOG_TOP = 709.0  # exp() of this is below the largest double, 1.8e308
_TINY = float(np.finfo(float).tiny)  # the least normal double
# tail exponents at or below this count as a plateau in GridFn.inverse
_PLATEAU_TOL = 1e-9


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
    if np.any(pts[1:] <= pts[:-1]):
        raise ValueError("grid points closer than adjacent doubles; use fewer per decade")
    pts.setflags(write=False)
    return pts


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class TailFit:
    """Behaviour of a sampled function beyond one end of its grid.

    kind "power": value ~ exp(log_coefficient) * t**exponent * l(t)**log_exponent,
    with l(t) = 1 + |log t|; "zero" / "infinity": identically 0 / inf.
    A fitted tail has no log factor (log_exponent 0); a closed form's can.
    """

    kind: str  # "power" | "zero" | "infinity"
    exponent: float = 0.0
    log_coefficient: float = 0.0
    log_exponent: float = 0.0

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


def _tail_window(t: np.ndarray, side: str) -> np.ndarray:
    """The indices of the abscissae within a decade of one end of ``t``:
    where ``fit_tail`` looks for samples to fit."""
    if side == "zero":
        return np.flatnonzero(t <= t[0] * 10.0)
    if side == "infinity":
        return np.flatnonzero(t >= t[-1] / 10.0)
    raise ValueError(side)


def fit_tail(t: np.ndarray, y: np.ndarray, side: str,
             window: np.ndarray | None = None) -> TailFit:
    """Local power-law fit over the outermost decade of finite positive samples.

    ``window`` is ``_tail_window(t, side)``, passed by callers that fit many
    value arrays on the same abscissae.
    """
    if window is None:
        window = _tail_window(t, side)
    edge = 0 if side == "zero" else len(y) - 1
    ye = y[edge]
    if ye == 0.0:
        return TailFit("zero")
    if not np.isfinite(ye):
        return TailFit("infinity")
    yw = y[window]
    idx = window[np.isfinite(yw) & (yw > 0.0)]
    # the window must be contiguous with the edge; cut at the first gap
    if side == "zero":
        idx = idx[: np.argmin(idx == np.arange(idx[0], idx[0] + len(idx))) or len(idx)]
    if len(idx) < 2:
        return TailFit("power", 0.0, math.log(ye))
    lt, ly = np.log(t[idx]), np.log(y[idx])
    slope = float(np.polyfit(lt, ly, 1)[0])
    return TailFit("power", slope, math.log(ye) - slope * math.log(t[edge]))


def _tail_shape(b: float, x: float) -> float:
    """e**x x**-b Gamma(b+1, x) for b > 0: the tail integral of s**(a-1) l(s)**b
    over its edge term, x = |a| l(edge); 1/(1 - b/x) to first order.  By a
    continued fraction (modified Lentz) for x > b + 2, else by the series of
    the lower incomplete gamma function; inf past double range."""
    s = b + 1.0
    if x > s + 1.0:
        bn = x + 1.0 - s
        c, d = 1e300, 1.0 / bn
        h = d
        for i in range(1, 300):
            bn += 2.0
            d, c = 1.0 / (bn - i * (i - s) * d), bn - i * (i - s) / c
            h *= d * c
            if abs(d * c - 1.0) < 1e-15:
                break
        return x * h
    term = total = 1.0 / s
    for n in range(1, 1000):
        term *= x / (s + n)
        total += term
        if term <= total * 1e-16:
            break
    p = math.exp(min(s * math.log(x) - x - math.lgamma(s), _LOG_TOP)) * total
    logr = math.lgamma(s) + x - b * math.log(x) + math.log1p(-min(p, 1.0 - 1e-16))
    return math.exp(logr) if logr < _LOG_TOP else math.inf


def _tail_integral(tail: TailFit, te: float, weight: float, zero: bool) -> float:
    """Integral of tail.value(s) * s**weight beyond the end ``te``: over
    (0, te) when ``zero``, else over (te, inf).  See GridFn.tail_integral."""
    if tail.kind != "power":
        return 0.0 if tail.kind == "zero" else math.inf
    power = weight + 1.0
    head = np.minimum(tail.log_value(np.log(te)), _EXP_CLIP)
    logp = power * math.log(te)
    logv = float(head) + logp
    if logp < _LOG_TOP and logv < _LOG_TOP:
        edge = float(np.exp(head)) * te ** power
    else:
        # te**power or the product is at the top of the double range or past
        # it, and the other need not be: take the product in logs
        edge = math.exp(logv) if logv < _LOG_TOP else math.inf
    a = tail.exponent + weight + 1.0
    away = a if zero else -a  # positive when s**a decays away from the edge
    b = tail.log_exponent
    tol = 1e-9
    if away > tol:
        val = edge / away
        if b:
            x = away * float(ell(te))
            # the first order holds where l(s)**b varies slowly over the tail
            val = val * _tail_shape(b, x) if b / x >= 0.5 else val / (1.0 - b / x)
        return val
    if abs(a) <= tol and b < -1.0 - tol:
        return edge * float(ell(te)) / (-b - 1.0)
    return math.inf


class GridFn:
    """A nonnegative extended-real function sampled on increasing abscissae.

    Values may be 0 or +inf.  Inside the grid, evaluation interpolates as a
    power law between samples that are both finite and positive; a cell with
    a special endpoint evaluates to its left sample (jumps sit at the right
    node, matching left-continuity of Young functions).  Outside the grid the
    tail fits extrapolate.  A tail not given at construction is fitted
    (``fit_tail``) on its first read and kept, and so are the logs of ``t``
    and ``y`` that interpolation reads: ``t`` and ``y`` are never written
    after construction, so each is the value an eager build would hold.
    """

    __slots__ = ("t", "y", "_tail_zero", "_tail_infinity", "_log_t", "_log_y")

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
        self._tail_zero = tail_zero
        self._tail_infinity = tail_infinity
        self._log_t = self._log_y = None

    @property
    def tail_zero(self) -> TailFit:
        """Behaviour below t[0]."""
        if self._tail_zero is None:
            self._tail_zero = fit_tail(self.t, self.y, "zero")
        return self._tail_zero

    @property
    def tail_infinity(self) -> TailFit:
        """Behaviour above t[-1]."""
        if self._tail_infinity is None:
            self._tail_infinity = fit_tail(self.t, self.y, "infinity")
        return self._tail_infinity

    @property
    def _logt(self) -> np.ndarray:
        if self._log_t is None:
            with np.errstate(divide="ignore"):
                self._log_t = np.log(self.t)
        return self._log_t

    @property
    def _logy(self) -> np.ndarray:
        if self._log_y is None:
            with np.errstate(divide="ignore"):
                self._log_y = np.log(self.y)
        return self._log_y

    # -- basic structure ---------------------------------------------------

    def nondecreasing(self) -> bool:
        return bool(np.all(self.y[1:] >= self.y[:-1]))

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
                ly, lt = self._logy[idx - 1], self._logt[idx - 1]
                m = (self._logy[idx] - ly) / (self._logt[idx] - lt)
                val = yl * np.exp(m * (np.log(x) - lt))
                # a steep or subnormal cell: the exp overflows before the
                # multiply by a tiny yl, so such a cell is solved in logs
                steep = ok & np.isinf(val)
                if steep.any():
                    val[steep] = np.exp(ly[steep] + m[steep] * (np.log(x[steep]) - lt[steep]))
            out = np.where(ok & ~exact, val, out)
        return out

    def inverse(self, s) -> np.ndarray:
        """sup{x : self(x) <= s} per level s, for samples that do not decrease.

        ``searchsorted`` finds the cell with yl <= s < yr.  Its power law
        yl (x/tl)**m of ``_interp``, solved for x, is tl (s/yl)**(1/m) with
        m = log(yr/yl) / log(tr/tl), capped at tr; in logs where yl or yr is
        not a normal double or yr/yl overflows.  A cell that is 0 on its
        left or jumps to inf on its right gives tr, where ``_interp`` leaves
        the value yl.  Past the values, a power tail with an exponent above
        _PLATEAU_TOL is solved (``TailFit.inverse``); any other tail gives 0
        below the values and inf above them.
        """
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        t, y = self.t, self.y
        idx = np.searchsorted(y, s, side="right")
        below, above = idx == 0, idx == len(y)
        for past, end, flat in ((below, "zero", 0.0), (above, "infinity", np.inf)):
            if past.any():
                tail = getattr(self, f"tail_{end}")
                out[past] = (tail.inverse(s[past]) if tail.kind == "power"
                             and tail.exponent > _PLATEAU_TOL else flat)
        inner = ~(below | above)
        if inner.any():
            r, si = idx[inner], s[inner]
            tl, tr, yl, yr = t[r - 1], t[r], y[r - 1], y[r]
            power = (yl > 0.0) & np.isfinite(yr)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                m = np.log(yr / yl) / np.log(tr / tl)
                x = tl * np.exp(np.log(si / yl) / m)
                logs = power & ~((yl >= _TINY) & np.isfinite(m))
                if logs.any():
                    ly, lt = np.log(yl[logs]), np.log(tl[logs])
                    m = (np.log(yr[logs]) - ly) / (np.log(tr[logs]) - lt)
                    x[logs] = np.exp(lt + (np.log(si[logs]) - ly) / m)
            out[inner] = np.where(power, np.fmin(x, tr), tr)
        return out

    def log_slope(self, x: np.ndarray) -> np.ndarray:
        """The exponent m of the power cell of ``_interp`` that holds each x,
        of the edge cell past the abscissae (and for NaN); not finite where
        a cell end is 0 or inf."""
        r = np.clip(np.searchsorted(self.t, x, side="right"), 1, len(self.t) - 1)
        with np.errstate(invalid="ignore"):
            return (self._logy[r] - self._logy[r - 1]) / (self._logt[r] - self._logt[r - 1])

    # -- quadrature --------------------------------------------------------

    def tail_integral(self, weight: float, end: str) -> float:
        """Integral of value(s) * s**weight beyond one end of the abscissae,
        over (0, t[0]) for "zero" and (t[-1], inf) for "infinity", from that
        end's tail.

        The integrand is c s**(a-1) l(s)**b there, with b the tail's log
        exponent (0 when fitted).  It converges when a > 0 at
        zero or a < 0 at infinity, with the first-order correction of the
        log factor from an integration by parts; at a = 0 it converges
        exactly when b < -1.
        """
        zero = end == "zero"
        return _tail_integral(self.tail_zero if zero else self.tail_infinity,
                              self.t[0] if zero else self.t[-1], weight, zero)

    def prefix_integral(self, weight: float) -> np.ndarray:
        """P(t_i) = integral over (0, t_i] of value(s) * s**weight ds.

        The cell geometry is built on the fly here; ``CellQuadrature`` keeps
        it for abscissae that integrate many value arrays.
        """
        return _prefix_sums(self.tail_integral(weight, "zero"),
                            _cell_integrals(CellGeometry(self.t, weight), self.y))


def _prefix_sums(head: float, cells: np.ndarray) -> np.ndarray:
    """head, then head plus the running sums of ``cells``; a sum past the
    double range saturates to inf."""
    out = np.empty(len(cells) + 1)
    out[0] = head
    with np.errstate(over="ignore"):
        np.cumsum(cells, out=out[1:])
        out[1:] += head
    return out


class CellGeometry:
    """The part of the cell integrals of y(s) * s**w that depends only on the
    abscissae t and the weight w: per cell tl, tr, tr/tl, log(tr/tl),
    tl**(w+1), and seg, the integral of s**w over the cell (what a linear
    cell multiplies by its mean value)."""

    __slots__ = ("w", "tl", "tr", "ratio", "log_ratio", "tl_w", "seg")

    def __init__(self, t: np.ndarray, w: float):
        self.w = w
        self.tl, self.tr = t[:-1], t[1:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.ratio = self.tr / self.tl
            self.log_ratio = np.log(self.ratio)
            tw = t ** (w + 1.0)
            self.tl_w = tw[:-1]
            # inf - inf where s**(w+1) overflows at both ends: NaN, which the
            # linear cells recompute in logs
            self.seg = ((tw[1:] - self.tl_w) / (w + 1.0) if abs(w + 1.0) > 1e-12
                        else self.log_ratio)


class CellQuadrature:
    """Integrals of y(s) * s**w over (0, inf) for value arrays y on fixed
    abscissae t: the last prefix integral of ``GridFn(t, y)`` plus its tail
    integral at infinity, fitted tails and all, with the work that depends
    only on t (the cell geometry and the tail fit windows) done once."""

    __slots__ = ("t", "geometry", "_windows")

    def __init__(self, t: np.ndarray, w: float):
        if np.any(np.diff(t) <= 0):
            raise ValueError("abscissae must be strictly increasing")
        self.t = t
        self.geometry = CellGeometry(t, w)
        self._windows = (_tail_window(t, "zero"), _tail_window(t, "infinity"))

    def total_integral(self, y: np.ndarray) -> float:
        t, w = self.t, self.geometry.w
        if not (y >= 0.0).all():
            raise ValueError("values must be nonnegative and not NaN")
        head = _tail_integral(fit_tail(t, y, "zero", self._windows[0]), t[0], w, True)
        prefix = _prefix_sums(head, _cell_integrals(self.geometry, y))
        tail = fit_tail(t, y, "infinity", self._windows[1])
        return float(prefix[-1] + _tail_integral(tail, t[-1], w, False))


def _cell_integrals(geom: CellGeometry, y: np.ndarray) -> np.ndarray:
    """Per-cell integrals of y(s) * s**w on the cells of ``geom``, exact on
    power cells."""
    w, tl, tr = geom.w, geom.tl, geom.tr
    yl, yr = y[:-1], y[1:]
    finite = np.isfinite(yl) & np.isfinite(yr)
    pos = finite & (yl > 0) & (yr > 0)
    # the power law through both samples; its values off ``pos`` are unused
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.log(yr / yl) / geom.log_ratio
        a = m + w + 1.0
        small = np.abs(a) <= 1e-9
        if small.any():
            a = np.where(small, 1.0, a)
            powxa = np.where(small, geom.log_ratio, (geom.ratio ** a - 1.0) / a)
        else:
            powxa = (geom.ratio ** a - 1.0) / a
        cell = yl * geom.tl_w * powxa
    out = np.where(pos, cell, 0.0)
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
                          * geom.log_ratio[steep])
    # cells with a zero endpoint: integrate the linear interpolant (these are
    # breakpoint slivers or plateau boundaries; relative weight is negligible)
    lin = finite & ~pos
    if lin.any():
        ymid = 0.5 * (yl[lin] + yr[lin])
        seg = geom.seg[lin]
        with np.errstate(over="ignore", invalid="ignore"):
            # a zero cell adds nothing, also where s**(w+1) overflows (inf - inf)
            out[lin] = np.where(ymid > 0.0, ymid * seg, 0.0)
            # a cell where s**(w+1) overflows at both ends: the same integral
            # in logs, from the end where s**(w+1) is larger
            over = np.isnan(seg)
            if over.any():
                over &= ymid > 0.0
                a = w + 1.0
                log_big = np.log(np.where(a < 0.0, tl[lin], tr[lin])[over])
                width = geom.log_ratio[lin][over]
                out[np.flatnonzero(lin)[over]] = np.exp(
                    np.log(ymid[over]) + a * log_big
                    + np.log(-np.expm1(-abs(a) * width) / abs(a)))
    # an infinite sample makes its cell (and every later prefix) infinite
    if not finite.all():
        out[np.isinf(yl) | np.isinf(yr)] = np.inf
    return out


def grid_inverse(g: GridFn, out_t: np.ndarray) -> GridFn:
    """The transforms' generalized inverse sup{t : g(t) <= s} of nondecreasing
    samples g, sampled at the levels ``out_t`` (as s-abscissae).

    ``GridFn.inverse``, except in the cell where g jumps to inf: its levels
    take the left node.  g samples a left-continuous function, finite at
    its jump; where the jump sits on a node (Linf's at 1, a breakpoint
    merged into the abscissae) the left node is exact and the right one a
    cell off: F^{-1} of Linf is 1, and b_gamma(Linf) at (3, 1) is t^3/3.
    A running maximum cleans up the seams with the tails.
    """
    s = np.asarray(out_t, dtype=float)
    out = g.inverse(s)
    k = int(np.searchsorted(g.y, np.inf))  # the first infinite sample
    if 0 < k < len(g.y):
        out[(s >= g.y[k - 1]) & (s < np.inf)] = g.t[k - 1]
    return GridFn(s, np.maximum.accumulate(out))


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of finite values, without importing ``numpy.ma``.

    ``np.unique`` imports ``numpy.ma`` on its first call, about 10 ms of a
    cold process.  Finite values sort and compare the same way here, so the
    result has the same bits.
    """
    out = np.sort(values)
    keep = np.empty(out.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


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

    def to_gridfn(self, grid: GridSpec = DEFAULT_GRID) -> GridFn:
        base = grid.abscissae()
        pts = [base]
        for b in self.breaks:
            pts.append(np.array([b * (1 - BREAK_EPS), b * (1 + BREAK_EPS)]))
        t = _sorted_distinct(np.concatenate(pts))
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
    return _sorted_distinct(np.concatenate(pts))
