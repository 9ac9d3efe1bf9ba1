"""Young functions and their calculus.

A Young function is convex, left-continuous, vanishes at 0 and may take the
value +inf.  Instances carry an optional closed-form profile, an optional
exact callable (the pointwise evaluator when given, else the closed form is),
and always a normalized sample table on a log grid.  Normalization
(``_lower_hull``) takes the greatest convex minorant of the raw samples in
linear coordinates, which repairs the join of asymptotic pieces at t = 1 and
pins the structural inequalities (monotonicity, k*A(t) <= A(k*t), the
conjugate product bounds) to machine precision while staying at or below
the finite raw samples (up to rounding) and within a bounded factor of the
raw profile.

The generalized inverse follows the right-continuous convention
A^{-1}(s) = sup{t : A(t) <= s}, which handles zero plateaus and jumps to
+inf uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, wraps

import numpy as np

from . import families as fam
from .families import _Q_SUPER, EndProfile, _bands
from .grid import (DEFAULT_GRID, CellQuadrature, GridFn, GridSpec, StepFn, TailFit, ell,
                   merge_breakpoints)

_TINY = 1e-300
_HUGE = 1e300
_NORMAL = float(np.finfo(float).tiny)

# the constant ladder: CONSTANT_STEPS geometric rungs on [1, cap]
CONSTANT_CAP = 1e6
CONSTANT_STEPS = 60


class IntegralDivergentError(ValueError):
    """Raised when a Luxemburg modular is infinite for every scale in range."""


class DoubleRangeError(ValueError):
    """A value is out of double range where a saturated value would be wrong."""


class IndeterminateIndexError(ValueError):
    """A Boyd estimate straddles a decision gate and the input is tabulated."""


@dataclass(frozen=True)
class GammaContext:
    """Dimension n and smoothing order gamma with the derived exponents.

    q_star = n/(n-gamma) is the critical target-side exponent, r_star = n/gamma
    the domain-side one, s_star = gamma/n the smoothing rate.
    """

    n: int
    gamma: float

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer")
        if not (0.0 < self.gamma < self.n):
            raise ValueError("need 0 < gamma < n")

    @property
    def q_star(self) -> float:
        return self.n / (self.n - self.gamma)

    @property
    def r_star(self) -> float:
        return self.n / self.gamma

    @property
    def s_star(self) -> float:
        return self.gamma / self.n


# ---------------------------------------------------------------------------
# construction helpers


def _convex_minorant(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Greatest convex minorant through (0,0) of the finite samples, in
    linear coordinates: interpolated between the vertices ``_lower_hull``
    keeps of them and the origin.  Infinite values past the last finite
    sample are kept as-is (before it, the samples are returned untouched);
    for nonnegative samples the output is nondecreasing.
    """
    out = y.copy()
    finite = np.isfinite(y)
    if not finite.any():
        return out
    last = np.nonzero(finite)[0][-1]
    if not finite[: last + 1].all():
        return out  # interior infinities: malformed, leave untouched
    xs = np.concatenate(([0.0], t[: last + 1]))
    ys = np.concatenate(([0.0], y[: last + 1]))
    hull = _lower_hull(xs, ys)
    out[: last + 1] = np.interp(t[: last + 1], xs[hull], ys[hull])
    return out


def _lower_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the lower convex hull of the points
    (x_i, y_i), x strictly increasing and y finite, left to right.

    A vertex is dropped when the slope into it is not below the slope out of
    it (points on an edge are dropped too), so the edge slopes it leaves, as
    computed in floats, strictly increase.
    """
    xs, ys = x.tolist(), y.tolist()

    def slope(j: int, k: int) -> float:
        return (ys[k] - ys[j]) / (xs[k] - xs[j])

    hull = [0]
    for i in range(1, len(xs)):
        while len(hull) > 1 and slope(hull[-2], hull[-1]) >= slope(hull[-1], i):
            hull.pop()
        hull.append(i)
    return np.array(hull)


def libm_exp(u: np.ndarray) -> np.ndarray:
    """exp element by element through libm: numpy's AVX-512 exp differs from
    it in the last bit on some inputs, which would move bisection results."""
    return np.fromiter(map(math.exp, u), dtype=float, count=len(u))


# once the brackets of u = log x are narrower than this, log_bisect checks
# exp(lo) and exp(hi) for equal or adjacent doubles; wider ones cannot be:
# the spacing of exp's doubles is 2**-52 relative, about 2.2e-16 in u
_EXP_ADJACENT_WIDTH = 1e-15


def log_bisect(ok, lo: np.ndarray, hi: np.ndarray, iters: int, exp) -> np.ndarray:
    """Halve the brackets [lo, hi] of u = log x, at most ``iters`` times,
    until exp(lo) can no longer move; ``ok`` holds at each lo and fails at
    each hi.  Returns the final lo.

    ``ok(u, idx)`` takes the midpoints u of the brackets idx, exponentiates
    them itself with ``exp`` (the caller's, which also maps the returned lo),
    and moves lo up where it holds, hi down where it fails.  A bracket is
    final when its midpoint rounds to one of its ends, or when exp(lo) and
    exp(hi) are equal or adjacent doubles: exp of any later midpoint is one
    of the two, where ``ok`` is known.  Such brackets drop out, and the
    search ends when none is left.  Where ``ok`` is monotone over the
    doubles of u, exp(lo) is then the largest value of exp at which it
    holds, whatever bracket the search started from.  The brackets halve in
    step, so the exp check starts once the narrowest is narrower than
    _EXP_ADJACENT_WIDTH.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    idx = np.arange(lo.size)
    width = float(np.min(hi - lo, initial=math.inf))
    for _ in range(iters):
        lo_i, hi_i = lo[idx], hi[idx]
        mid = 0.5 * (lo_i + hi_i)
        live = (mid != lo_i) & (mid != hi_i)
        if width < _EXP_ADJACENT_WIDTH:
            live &= exp(hi_i) > np.nextafter(exp(lo_i), np.inf)
        width *= 0.5
        idx, mid = idx[live], mid[live]
        if not idx.size:
            break
        up = ok(mid, idx)
        lo[idx[up]] = mid[up]
        hi[idx[~up]] = mid[~up]
    return lo


# ``inverse_many`` searches u = log t on the root [_U_LO, _U_HI]
_U_LO, _U_HI = math.log(_TINY), math.log(_HUGE)

# ``search_levels`` first tries the bracket that reaches this far on each
# side of the guess, relative to max(1, |u|): a few doubles of u, so that a
# good guess leaves few halvings.  Each round that misses the level makes
# the next bracket 4 times as wide
_GUESS_HALF_WIDTH = 1e-14


def newton_log(view, u: np.ndarray, logs: np.ndarray, slope: np.ndarray,
               steps: int) -> np.ndarray:
    """``steps`` Newton steps in u toward log view(exp(u)) = logs, per
    element: the first with ``slope`` (d log view / du), each later one with
    the secant slope of the last two points where that is finite and
    positive.  A step that is not finite, or taken with a slope that is
    not positive, keeps its u.  Evaluates ``view`` once per step."""
    last = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            f = np.log(view(np.exp(u))) - logs
            if last is not None:
                secant = (f - last[1]) / (u - last[0])
                slope = np.where(np.isfinite(secant) & (secant > 0.0), secant, slope)
            step = u - f / slope
            last, u = (u, f), np.where(np.isfinite(step) & (slope > 0.0), step, u)
    return u


def search_levels(view, s: np.ndarray, guess: np.ndarray, root: tuple[float, float],
                  iters: int, exp) -> np.ndarray:
    """sup{x : view(x) <= s} per level, for levels whose answer lies inside
    the bracket ``root`` of u = log x: the caller checks that view(exp(u))
    <= s holds at root[0] and fails at root[1].

    Each level's bracket starts _GUESS_HALF_WIDTH * max(1, |u|) to each side
    of its ``guess`` (in u, clipped to the root; the whole root where the
    guess is NaN).  While the level lies past an end, the bracket moves to
    that side: the end becomes the far end, and the new end lies 4 times as
    far from the guess, clipped to the root.  Then ``log_bisect`` halves it
    to adjacent doubles, up to ``iters`` times.  No level's search reads
    another's, so each level is answered on its own."""
    def ok(u, i):
        return view(exp(u)) <= s[i]

    g = np.clip(guess, *root)
    half = np.where(np.isnan(g), np.inf, _GUESS_HALF_WIDTH * np.maximum(1.0, np.abs(g)))
    g = np.nan_to_num(g)
    lo, hi = np.clip(g - half, *root), np.clip(g + half, *root)
    at_lo, at_hi = np.split(ok(np.concatenate([lo, hi]), np.tile(np.arange(s.size), 2)), 2)
    while True:
        up = np.flatnonzero(at_hi & (hi < root[1]))
        down = np.flatnonzero(~at_lo & ~at_hi & (lo > root[0]))
        if not (up.size or down.size):
            break
        lo[up], at_lo[up] = hi[up], True
        hi[down], at_hi[down] = lo[down], False
        half[up] *= 4.0
        half[down] *= 4.0
        hi[up] = np.minimum(g[up] + half[up], root[1])
        lo[down] = np.maximum(g[down] - half[down], root[0])
        holds = ok(np.concatenate([hi[up], lo[down]]), np.concatenate([up, down]))
        at_hi[up], at_lo[down] = np.split(holds, [up.size])
    return exp(log_bisect(ok, lo, hi, iters, exp))


def guess_levels(view, table: GridFn, s: np.ndarray, steps: int,
                 root: tuple[float, float]) -> np.ndarray:
    """A guess of log sup{x : view(x) <= s} per level, for ``search_levels``:
    ``table``, samples of the view, inverted by ``GridFn.inverse`` and
    clipped to ``root``; then ``steps`` Newton steps on the view
    (``newton_log``) from the exponent of the cell that holds the guess.
    The closer the guess, the narrower the bracket that ``search_levels``
    bisects: one step leaves levels of order-1 and log-factor profiles
    far from their answer."""
    t = table.inverse(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.clip(np.nan_to_num(np.log(t), nan=0.0), *root)
        return newton_log(view, u, np.log(s), table.log_slope(t), steps)


# the plateau search splits its bracket into this many + 1 parts per round;
# 15 rounds narrow it by 64**15 = 2**90, as far as 90 halvings
_PLATEAU_SPLITS = 63
_PLATEAU_ROUNDS = 15


def _bisect_boundary(pred, lo: float, hi: float) -> float:
    """sup{x in [lo, hi] : pred(x)} for a down-set predicate, in log space.

    ``pred`` takes an array of x.  Each round evaluates it on _PLATEAU_SPLITS
    evenly spaced points inside the bracket of log x in one call, through
    libm's exp, and keeps the part before the first point where it fails.
    The search ends at adjacent doubles or after _PLATEAU_ROUNDS rounds,
    where the bracket is narrower than the log x spacing of exp's values;
    either way the result exp(lo) is the largest such value where ``pred``
    holds, the bits of a 90-step bisection, also near x = 1, where doubles
    of log x are dense.
    """
    if not pred(np.array([lo]))[0]:
        return 0.0
    if pred(np.array([hi]))[0]:
        return math.inf
    a, b = math.log(lo), math.log(hi)
    for _ in range(_PLATEAU_ROUNDS):
        if 0.5 * (a + b) in (a, b):
            break
        u = np.linspace(a, b, _PLATEAU_SPLITS + 2)
        holds = np.append(pred(libm_exp(u[1:-1])), False)  # and fails at b
        j = int(np.argmin(holds)) + 1
        a, b = float(u[j - 1]), float(u[j])
    return math.exp(a)


def per_young(fn):
    """Compute ``fn(A, *args, **kw)`` once per Young function A.

    The result is stored in A's own ``__dict__``, keyed by fn's name and the
    remaining arguments (keyword-only defaults filled in).  A YoungFn is
    immutable after construction, so an entry cannot go stale, and it is
    freed together with its instance.  A raised error is not stored: the
    next call raises it again.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"
    kwdefaults = fn.__kwdefaults__ or {}

    @wraps(fn)
    def cached(A, *args, **kw):
        memo = A._memo
        key = (name, args, *sorted({**kwdefaults, **kw}.items()))
        if key not in memo:
            memo[key] = fn(A, *args, **kw)
        return memo[key]

    return cached


class YoungFn:
    """A Young function with symbolic, callable and tabulated views.

    Immutable once built: setting an attribute raises ``AttributeError``.
    Derived results (the ``per_young`` functions) are computed once and kept
    on the instance.
    """

    def __init__(self, *, symbolic: fam.AsymptoticFamily | None = None,
                 raw=None, table: GridFn | None = None,
                 grid: GridSpec = DEFAULT_GRID, label: str = "",
                 normalize: bool = True,
                 breakpoints: tuple[float, ...] = (),
                 profile_hint: fam.AsymptoticFamily | None = None):
        # the pointwise evaluator: the exact callable, else the closed form,
        # else none (the table alone)
        self._source = raw if raw is not None else (
            symbolic.value if symbolic is not None else None)
        if (self._source is None) == (table is None):
            raise ValueError("need exactly one of a table and a source "
                             "(a profile or a callable)")
        self.symbolic = symbolic
        self.raw = raw
        self.grid = grid
        # closed-form asymptotics known for a numerically built function;
        # metadata only (no pointwise agreement implied, unlike ``symbolic``)
        self.profile_hint = profile_hint
        self.label = label or (symbolic.render() if symbolic else "tabulated")

        if table is not None:
            self.table = table
            self._mono_source = False
        else:
            t = merge_breakpoints(grid, np.asarray(breakpoints, dtype=float)) \
                if breakpoints else grid.abscissae()
            sv = np.asarray(self._source(t), dtype=float)
            vals = np.maximum.accumulate(_convex_minorant(t, sv)) if normalize else sv
            self.table = GridFn(t, vals)
            # the pointwise evaluator backs the monotone view only when it
            # agrees with the normalized table (monotone and convex-consistent);
            # raw profiles with repaired joins fall back to the table plus
            # anchored closed-form extrapolation
            prev, nxt = sv[:-1], sv[1:]
            slack = np.where(np.isfinite(prev), 1e-12 * np.abs(prev) + 1e-300, 0.0)
            with np.errstate(invalid="ignore"):
                mono = bool(np.all(nxt >= prev - slack))
                both_fin = np.isfinite(sv) & np.isfinite(vals)
                same = np.abs(sv - vals) <= 1e-9 * np.abs(vals) + 1e-300
                agree = bool(np.all(same | ~both_fin)) and bool(
                    np.all(np.isfinite(sv) == np.isfinite(vals)))
            self._mono_source = mono and agree

        self.zero_plateau_end = self._find_zero_plateau()
        self.finite_sup = self._find_finite_sup()
        # the ``per_young`` results; set last, since it seals the instance
        self._memo: dict = {}

    def __setattr__(self, name, value):
        if "_memo" in self.__dict__:
            raise AttributeError(f"YoungFn is immutable: cannot set {name!r}")
        object.__setattr__(self, name, value)

    # -- basic views ---------------------------------------------------------

    @property
    def closed_form(self) -> fam.AsymptoticFamily | None:
        """Closed-form asymptotics: the exact profile, else the attached hint."""
        return self.symbolic if self.symbolic is not None else self.profile_hint

    def __call__(self, t):
        return self.eval(t)

    def eval(self, t) -> np.ndarray | float:
        """A(t) as an extended real, from the pointwise evaluator when present."""
        src = self._source
        if src is not None:
            out = src(np.asarray(t, dtype=float) if not np.isscalar(t) else t)
            if np.isscalar(t):
                return float(np.atleast_1d(np.asarray(out, dtype=float))[0])
            return np.asarray(out, dtype=float)
        return self.table(t)

    def _monotone_eval(self, t):
        """Evaluate the normalized (monotone) view.

        Beyond the table span, a known closed form extrapolates with its full
        log structure, anchored at the edge value and, toward infinity,
        floored at the edge ratio A(t)/t; plain tables fall back to the fitted
        power tails.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self._mono_source:
            return np.atleast_1d(np.asarray(self._source(t), dtype=float))
        vals = np.atleast_1d(np.asarray(self.table(t), dtype=float))
        closed = self.closed_form
        if closed is None:
            return vals
        for end, mask_fn, edge_idx in (("zero", lambda x: x < self.table.t[0], 0),
                                       ("infinity", lambda x: x > self.table.t[-1], -1)):
            mask = mask_fn(t)
            if not mask.any():
                continue
            edge_t = self.table.t[edge_idx]
            edge_v = self.table.y[edge_idx]
            if not (np.isfinite(edge_v) and edge_v > 0):
                continue
            pc = closed.piece(end)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                shift = (np.asarray(pc.log_value(np.log(t[mask])), dtype=float)
                         - float(pc.log_value(np.array([math.log(edge_t)]))[0]))
                ext = np.where(shift > 700.0, np.inf,
                               edge_v * np.exp(np.minimum(shift, 700.0)))
                if end == "infinity":
                    # a Young function keeps A(t)/t nondecreasing; the raw
                    # closed form may not (t**p l**a with p near 1 and a < 0
                    # has its least ratio far out), and a dip below the edge
                    # ratio puts the conjugate above 0 under A's slope
                    ext = np.maximum(ext, t[mask] * (edge_v / edge_t))
            # a point where the extension is NaN (t = 0: -inf + inf in a log
            # factor) keeps the table's value; the others take the extension
            vals[mask] = np.where(np.isnan(ext), vals[mask], ext)
        return vals

    def sampled(self, t: np.ndarray) -> GridFn:
        """The monotone view sampled on the increasing abscissae t.

        Below t[0], a closed-form zero piece of plain power-log type continues
        the samples exactly, anchored at t[0], so prefix integrals see its
        log factor; otherwise both tails are the fitted power laws.
        """
        t = np.asarray(t, dtype=float)
        vals = np.atleast_1d(np.asarray(self._monotone_eval(t), dtype=float))
        tail = None
        t0, v0 = float(t[0]), float(vals[0])
        if self.closed_form is not None and 0.0 < v0 < math.inf:
            p = self.closed_form.piece("zero").profile("zero")
            if (p.kind == "power" and math.isfinite(p.q) and math.isfinite(p.alpha)
                    and not p.loglog_exponent):
                log_coef = (math.log(v0) - p.q * math.log(t0)
                            - p.alpha * math.log(float(ell(t0))))
                tail = TailFit("power", p.q, log_coef, p.alpha, exact=True)
        return GridFn(t, vals, tail_zero=tail)

    def _structural_jump(self, end: str) -> bool | None:
        """Does the closed form put an actual 0/inf plateau at this end?

        None when no closed form is attached; otherwise the answer is exact:
        only constant pieces plateau, everything else is positive finite
        there (float under/overflow notwithstanding).
        """
        if self.closed_form is None:
            return None
        return self.closed_form.piece(end).profile(end).kind != "power"

    def _find_zero_plateau(self) -> float:
        if self._structural_jump("zero") is False:
            return 0.0
        probe = float(np.min(self._monotone_eval(np.array([self.grid.t_min]))))
        if probe > 0.0:
            return 0.0
        return _bisect_boundary(lambda x: self._monotone_eval(x) <= 0.0,
                                self.grid.t_min, self.grid.t_max * 10.0)

    def _find_finite_sup(self) -> float:
        if self._structural_jump("infinity") is False:
            return math.inf
        hi = self.grid.t_max
        if np.isfinite(self._monotone_eval(np.array([hi]))[0]):
            tail = self.table.tail_infinity
            if tail.kind != "infinity":
                return math.inf
        return _bisect_boundary(lambda x: np.isfinite(self._monotone_eval(x)),
                                self.grid.t_min / 10.0, self.grid.t_max)

    # -- generalized inverse --------------------------------------------------

    def inverse(self, s: float) -> float:
        return float(self.inverse_many(np.array([float(s)]))[0])

    def inverse_many(self, s: np.ndarray) -> np.ndarray:
        """sup{t : A(t) <= s} of the monotone view, searched on [1e-300, 1e300].

        Below the view's value at 1e-300 the result is 0; at or above its
        value at 1e300 it is ``finite_sup``.  In between, where the view is
        the table's power interpolant (``_table_inverse``), each s is
        inverted in closed form; elsewhere (an exact pointwise evaluator,
        closed-form extrapolation past the table, a table that decreases
        somewhere) it is ``search_levels`` on the root bracket
        [log 1e-300, log 1e300] of u = log t: a bracket grown around the
        guess that ``guess_levels`` reads from the table and two Newton
        steps, then bisected to adjacent doubles.  Every s is answered on
        its own: its result does not depend on the other levels of the call.
        """
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        v_lo, v_hi = self._monotone_eval(np.exp(np.array([_U_LO, _U_HI])))
        dead = ~(v_lo <= s)
        out[dead] = 0.0
        alive_hi = v_hi <= s
        out[alive_hi] = self.finite_sup
        work = ~(dead | alive_hi)
        if work.any():
            sw = s[work]
            tw = self._table_inverse(sw)
            rest = np.isnan(tw)
            if rest.any():
                sr, view, root = sw[rest], self._monotone_eval, (_U_LO, _U_HI)
                guess = guess_levels(view, self.table, sr, 2, root)
                tw[rest] = search_levels(view, sr, guess, root, 90, np.exp)
            out[work] = tw
        return out

    def _table_inverse(self, s: np.ndarray) -> np.ndarray:
        """sup{t : view(t) <= s} by ``GridFn.inverse`` where the monotone
        view is the table's power interpolant and its fitted tails; NaN
        elsewhere.

        Needs a table-backed view (``not _mono_source``) whose samples do not
        decrease, and a normal double s; past the table's values the view is
        its fitted tails only when no closed form extrapolates.
        """
        out = np.full_like(s, np.nan)
        tab = self.table
        if self._mono_source or not tab.nondecreasing():
            return out
        # below the least normal double the samples lose their precision
        normal = s >= _NORMAL
        out[normal] = tab.inverse(s[normal])
        if self.closed_form is not None:
            out[(s < tab.y[0]) | (s >= tab.y[-1])] = np.nan
        return out

    # -- structural profiles ---------------------------------------------------

    def end_profile(self, end: str) -> "EndProfile":
        return end_profile(self, end)

    def describe(self) -> str:
        if self.closed_form is not None:
            return "~ " + self.closed_form.render()
        pz = self.end_profile("zero")
        pi = self.end_profile("infinity")
        if pz.render() == pi.render():
            return f"~ {pz.render()}"
        return f"~ {pz.render()} @0 | {pi.render()} @inf"


def gridfn_profile(g: GridFn, end: str, *, finite_sup: float = math.inf) -> EndProfile:
    """EndProfile of a sampled function, from the windowed (q, alpha) fit."""
    tail = g.tail_zero if end == "zero" else g.tail_infinity
    if tail.kind == "zero":
        return EndProfile("plateau-zero", threshold=g.t[0])
    if tail.kind == "infinity":
        return EndProfile("plateau-infinity", threshold=finite_sup)
    mask = np.isfinite(g.y) & (g.y > 0)
    t, y = g.t[mask], g.y[mask]
    if len(t) < 8:
        return EndProfile("power", tail.exponent, 0.0)
    window = t <= t[0] * 100.0 if end == "zero" else t >= t[-1] / 100.0
    u = np.log(t[window])
    logy = np.log(y[window])
    good = np.isfinite(logy)
    if good.sum() < 8:
        return EndProfile("power", tail.exponent, 0.0)
    u, logy = u[good], logy[good]
    # least squares in the model log y = c + q u + alpha log l
    basis = np.column_stack([np.ones_like(u), u, np.log1p(np.abs(u))])
    sol, *_ = np.linalg.lstsq(basis, logy, rcond=None)
    q, alpha = float(sol[1]), float(sol[2])
    if q >= _Q_SUPER:
        return EndProfile("power", q, 0.0, 0.0)
    return EndProfile("power", q, alpha)


@per_young
def inverse_on_grid(A: YoungFn) -> np.ndarray:
    """A^{-1} sampled at the table abscissae."""
    return A.inverse_many(A.table.t)


@per_young
def end_profile(A: YoungFn, end: str) -> EndProfile:
    closed = A.closed_form
    if closed is not None:
        # structural profile first: a float-saturated table must not disguise
        # a finite-order or exponential profile as a genuine plateau
        p = closed.piece(end).profile(end)
        if p.kind == "power":
            return p
        return replace(p, threshold=A.zero_plateau_end if p.kind == "plateau-zero"
                       else A.finite_sup)
    if end == "zero" and A.zero_plateau_end > 0.0:
        return EndProfile("plateau-zero", threshold=A.zero_plateau_end,
                          exact=True)
    if end == "infinity" and math.isfinite(A.finite_sup):
        return EndProfile("plateau-infinity", threshold=A.finite_sup,
                          exact=True)
    return gridfn_profile(A.table, end, finite_sup=A.finite_sup)


# ---------------------------------------------------------------------------
# factory functions


def _with_plateau_breakpoints(breakpoints: tuple[float, ...] = (),
                              **kwargs) -> YoungFn:
    """Build once to locate the plateau ends, then rebuild with the interior
    ones among the breakpoints, so that the table resolves the jumps."""
    probe = YoungFn(breakpoints=breakpoints, **kwargs)
    special = {x for x in (probe.zero_plateau_end, probe.finite_sup)
               if 0.0 < x < math.inf}
    if special - set(breakpoints):
        return YoungFn(breakpoints=tuple(sorted(special | set(breakpoints))),
                       **kwargs)
    return probe


def from_family(family: fam.AsymptoticFamily, grid: GridSpec = DEFAULT_GRID,
                label: str = "") -> YoungFn:
    return _with_plateau_breakpoints(symbolic=family, grid=grid, label=label)


def from_callable(fn, grid: GridSpec = DEFAULT_GRID, label: str = "",
                  breakpoints: tuple[float, ...] = (), normalize: bool = True) -> YoungFn:
    return _with_plateau_breakpoints(breakpoints, raw=fn, grid=grid, label=label,
                                     normalize=normalize)


# ---------------------------------------------------------------------------
# conjugation


_CONJ_EXT_DECADES = 6
_REFINE_ROUNDS = 6
_REFINE_STEP = 1e-4


def _refine_sup(A: YoungFn, ts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """max over s of s t - A(s) near s = e^u, by Newton steps in log s on
    central differences of the pointwise evaluator.

    Every sampled value is s t - A(s) for some s, so the result never exceeds
    the exact supremum; a step is capped at one grid cell and taken only
    where the stencil is concave.  Each point stops after its own first step
    of at most 1e-10, so its value does not depend on the other points of
    the call.
    """
    d = _REFINE_STEP
    cap = math.log(10.0) / A.grid.points_per_decade
    offsets = np.array([-d, 0.0, d])
    best = np.full_like(ts, -np.inf)
    # the points still moving: their indices, log s, t and best value so far
    live, t, top = np.arange(ts.size), ts, best
    for _ in range(_REFINE_ROUNDS):
        s = np.exp(u[:, None] + offsets[None, :])
        with np.errstate(over="ignore", invalid="ignore"):
            f = s * t[:, None] - A._monotone_eval(s.ravel()).reshape(s.shape)
        f = np.where(np.isnan(f), -np.inf, f)
        top = np.maximum(top, f.max(axis=1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slope = (f[:, 2] - f[:, 0]) / (2.0 * d)
            curv = (f[:, 2] - 2.0 * f[:, 1] + f[:, 0]) / (d * d)
            step = np.where(curv < 0.0, -slope / curv, 0.0)
        step = np.clip(np.where(np.isfinite(step), step, 0.0), -cap, cap)
        moving = np.abs(step) > 1e-10
        if not moving.all():
            best[live] = top
            live, u, t, top, step = (x[moving] for x in (live, u, t, top, step))
            if not live.size:
                break
        u = u + step
    best[live] = top
    return best


class _Legendre:
    """The evaluator of ``conjugate(A)``: t -> sup_s {s t - A(s)}.

    Built once per conjugate; each call then costs time and memory linear in
    the points plus the nodes.  The nodes (s_i, y_i) are A's table extended
    several decades beyond the grid through the pointwise evaluator, cut
    where y turns infinite; the cells between them are power laws
    y_l (s/s_l)**m, and the tails are the power fits of the extended nodes.
    """

    def __init__(self, A: YoungFn):
        tab = A.table
        ppd = A.grid.points_per_decade
        ext_lo = tab.t[0] * np.power(10.0, np.linspace(-_CONJ_EXT_DECADES, 0.0,
                                                       _CONJ_EXT_DECADES * ppd,
                                                       endpoint=False))
        ext_hi = tab.t[-1] * np.power(10.0, np.linspace(0.0, _CONJ_EXT_DECADES,
                                                        _CONJ_EXT_DECADES * ppd + 1)[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            y_lo = np.atleast_1d(np.asarray(A.eval(ext_lo), dtype=float))
            y_hi = A._monotone_eval(ext_hi)
        t_nodes = np.concatenate([ext_lo, tab.t, ext_hi])
        y_nodes = np.maximum.accumulate(np.concatenate([y_lo, tab.y, y_hi]))
        finite = np.isfinite(y_nodes)
        if finite.sum() < 2:  # the running max carries an early overflow on
            raise DoubleRangeError(f"the conjugate needs A(s) finite at two nodes, "
                                   f"but it overflows from s = {t_nodes[0]:.3g} on")
        s_i = self.s_i = t_nodes[finite]
        y_i = self.y_i = y_nodes[finite]

        tl, tr = s_i[:-1], s_i[1:]
        yl, yr = y_i[:-1], y_i[1:]
        cell_ok = (yl > 0) & (yr > yl)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m = np.where(cell_ok, np.log(np.where(cell_ok, yr / yl, 2.0)) /
                         np.log(tr / tl), 1.0)
        interior = cell_ok & (m > 1.0 + 1e-9) & np.isfinite(m)
        log_c = np.where(interior, np.log(yl, where=interior, out=np.zeros_like(yl))
                         - m * np.log(tl), 0.0)
        # the interior cells, whose maximum can lie strictly inside them
        self.m, self.log_c = m[interior], log_c[interior]
        self.log_m = np.log(self.m)
        self.log_tl, self.log_tr = np.log(tl[interior]), np.log(tr[interior])

        ext_fn = GridFn(s_i, y_i)
        self.lo_tail, self.hi_tail = ext_fn.tail_zero, ext_fn.tail_infinity
        self.saturated = not math.isinf(A.finite_sup)
        self.A = A if A._mono_source else None  # refine on the exact evaluator

        # node maxima: max_i s_i t - y_i is reached at the vertex of the
        # nodes' lower convex hull whose edge slopes bracket t
        self.hull = _lower_hull(s_i, y_i)
        with np.errstate(over="ignore"):
            self.edge_slopes = np.diff(y_i[self.hull]) / np.diff(s_i[self.hull])

        # cell maxima: the power cell c s**m has its maximum of s t - c s**m
        # inside only for t in its slope interval (m yl/tl, m yr/tr), that is
        # for log t in (log c + log m + (m-1) log tl, ... log tr); the ends
        # are widened by far more than rounding, and the running max of the
        # upper ends and the running min of the lower ends bound the window
        # of cells that can hold a given t
        mi, lci = self.m, self.log_c
        base = lci + self.log_m
        pad = 1e-12 * (800.0 + np.abs(lci) + np.abs(self.log_m)
                       + (mi - 1.0) * (np.abs(self.log_tl) + np.abs(self.log_tr)))
        self.reach_hi = np.maximum.accumulate(base + (mi - 1.0) * self.log_tr + pad)
        self.reach_lo = np.minimum.accumulate(
            (base + (mi - 1.0) * self.log_tl - pad)[::-1])[::-1]

    def node_max(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The largest s_i t - y_i per t and the first node that takes it.

        Besides the hull vertex, its two hull neighbours and the two nodes on
        either side of it in node order are compared, so that the first node
        of largest rounded value wins, as an argmax over all nodes picks it.
        """
        hull, s_i, y_i = self.hull, self.s_i, self.y_i
        k = np.searchsorted(self.edge_slopes, ts)
        on_hull = hull[np.clip(k[:, None] + np.arange(-1, 2), 0, len(hull) - 1)]
        idx = np.concatenate([on_hull, hull[k][:, None] + np.arange(-2, 3)], axis=1)
        idx = np.sort(np.clip(idx, 0, len(s_i) - 1), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            cand = s_i[idx] * ts[:, None] - y_i[idx]
        rows = np.arange(ts.size)
        pick = cand.argmax(axis=1)
        return cand[rows, pick], idx[rows, pick]

    def cell_max(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The largest interior cell maximum s* t (1 - 1/m) per t, with
        s* = (t/(c m))**(1/(m-1)), 0 where no cell holds s* inside; and the
        log s* of the first cell that takes it (of the first cell where none
        does).  Needs an interior cell."""
        mi, lci, log_m = self.m, self.log_c, self.log_m
        with np.errstate(divide="ignore", invalid="ignore"):
            log_t = np.log(ts)
            best_ls = (log_t - lci[0] - log_m[0]) / (mi[0] - 1.0)
        best_v = np.zeros_like(ts)
        first = np.searchsorted(self.reach_hi, log_t, side="left")
        width = np.searchsorted(self.reach_lo, log_t, side="right") - first
        for k in range(int(width.max(initial=0))):
            r = np.nonzero(width > k)[0]
            j = first[r] + k
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ls = (log_t[r] - lci[j] - log_m[j]) / (mi[j] - 1.0)
                inside = (ls > self.log_tl[j]) & (ls < self.log_tr[j])
                s_star = np.where(inside, np.exp(np.where(inside, ls, 0.0)), 0.0)
                val = s_star * ts[r] * (1.0 - 1.0 / mi[j])
            up = val > best_v[r]
            best_v[r[up]] = val[up]
            best_ls[r[up]] = ls[up]
        return best_v, best_ls

    def __call__(self, x) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(x, dtype=float))
        node_v, node = self.node_max(ts)
        best = np.maximum(np.zeros_like(ts), node_v)
        # boundary maxima of the cells coincide with node candidates
        if len(self.m):
            cell_v, cell_ls = self.cell_max(ts)
            if self.A is not None:
                # where the power-cell maximum beats every node it lies inside
                # a cell; it only seeds the refinement on the evaluator there
                seed = cell_v > node_v
                if seed.any():
                    best[seed] = np.maximum(best[seed], _refine_sup(
                        self.A, ts[seed], cell_ls[seed]))
                # elsewhere from the best node: a cell's power chord can put
                # its maximum just past the cell edge while the exact one is
                # inside, and the nodes alone then miss it by ~1e-4 relative
                rest = ~seed & (node_v > 0.0)
                if rest.any():
                    best[rest] = np.maximum(best[rest], _refine_sup(
                        self.A, ts[rest], np.log(self.s_i[node[rest]])))
            else:
                best = np.maximum(best, cell_v)
        for tail, bound, is_upper in ((self.lo_tail, self.s_i[0], False),
                                      (self.hi_tail, self.s_i[-1], True)):
            if is_upper and self.saturated:
                continue
            if tail.kind != "power":
                continue
            q = tail.exponent
            if q > 1.0 + 1e-9:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    ls = (np.log(ts) - tail.log_coefficient - math.log(q)) / (q - 1.0)
                    s_star = np.exp(np.minimum(ls, 709.0))
                    outside = s_star > bound if is_upper else s_star < bound
                    val = np.where(outside, s_star * ts * (1.0 - 1.0 / q), 0.0)
                    val = np.where(np.isnan(val), np.inf, val)
                best = np.maximum(best, val)
            elif is_upper:
                # asymptotically linear growth c*s: conjugate jumps at t = c
                best = np.where(np.log(ts) > tail.log_coefficient, np.inf, best)
        return best


def conjugate(A: YoungFn) -> YoungFn:
    """Young conjugate sup_s { s t - A(s) }.

    The supremum runs over node candidates (extended several decades beyond
    the grid through the pointwise evaluator), one maximum inside the cells
    and analytic power tails (``_Legendre``).  The node maximum is read off
    the lower convex hull of the nodes, and only the cells whose slope
    interval holds t are searched for the cell maximum, so an evaluation is
    linear in points plus nodes (the linear-time Legendre transform; Lucet,
    Numer. Algorithms 16, 1997).  The cell maximum is taken of the same view
    that ``A.inverse_many`` inverts: the closed-form maximum of the power
    cells for a tabulated function, and a refinement on the pointwise
    evaluator when that backs the monotone view (power interpolation sits off
    the exact function by a few 1e-4 relative inside a cell, enough to push
    A^{-1}(t) C^{-1}(t) past 2t).  Either way the result is a supremum of
    affine functions of t, hence convex; conjugating twice recovers the
    convex envelope of the original representation.
    """
    # the computed supremum stays the evaluation path; the factor-level
    # conjugate, when there is one, rides along as the asymptotic view
    mapped = fam.conjugate_family(A.symbolic) if A.symbolic is not None else None
    return _with_plateau_breakpoints(symbolic=mapped, raw=_Legendre(A), grid=A.grid,
                                     label=f"conj({A.label})", normalize=False)


# ---------------------------------------------------------------------------
# domination / equivalence


@dataclass(frozen=True)
class Verdict:
    """Does lower(t) <= upper(c t) hold for all t?  ``constant`` is the least
    ladder rung c that fits (NaN if none), ``criterion_used`` one of "iii",
    "iv" and "dominates", and ``worst_t`` the grid point of the tightest
    ratio or the grid end that ruled domination out."""

    holds: bool
    constant: float
    criterion_used: str
    worst_t: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquivalenceVerdict:
    holds: bool
    constant_ab: float
    constant_ba: float
    flags: tuple[str, ...] = ()


# the wider tie bands of two fitted profiles compared with each other
_Q_TOL_FITTED = 0.02
_A_TOL_FITTED = 0.35


def _compare_power_profiles(pa: EndProfile, pb: EndProfile, end: str) -> bool | None:
    """Can B(t) <= A(ct) hold beyond the grid?  True/False/None(grid decides).

    At the infinity end bigger exponents mean bigger functions; at the zero
    end the ordering reverses.  The slowly varying corrections compare level
    by level, l(t) and then l(l(t)); exp(t**beta) scales compare by beta only,
    since the argument dilation by c rescales their coefficients arbitrarily.
    Two closed forms tie only at rounding; a fitted profile carries numerical
    drift, so the bands widen and the gap between them is left to the grid.
    """
    flip = 1.0 if end == "infinity" else -1.0
    sa, sb = fam.superpolynomial(pa), fam.superpolynomial(pb)
    if sa or sb:
        if sa != sb:
            # superpolynomial order means a huge function at infinity but a
            # tiny (superflat) one near zero
            return end == ("infinity" if sa else "zero")
        # at both ends a larger beta means the larger function
        gaps = (pb.exp_beta - pa.exp_beta,) if pa.exp_beta and pb.exp_beta else ()
        tols = (1e-12,)
    else:
        # l(t) and l(l(t)) -> inf at both ends, so their gaps keep their signs
        gaps = (flip * (pb.q - pa.q), pb.alpha - pa.alpha,
                pb.loglog_exponent - pa.loglog_exponent)
        tols = _bands(pa, pb, fitted=(_Q_TOL_FITTED, _A_TOL_FITTED))
    sign = fam.lex_sign(gaps, tols)
    return None if sign == 0 else sign < 0


def _tail_admits_domination(pa: EndProfile, pb: EndProfile, end: str) -> bool | None:
    if end == "infinity":
        if pa.kind == "plateau-infinity":
            return True
        if pb.kind == "plateau-infinity":
            return False
        if pb.kind == "plateau-zero":
            return True
        return _compare_power_profiles(pa, pb, end)
    if pb.kind == "plateau-zero":
        return None if pa.kind == "plateau-zero" else True
    if pa.kind == "plateau-zero":
        return False
    return _compare_power_profiles(pa, pb, end)


@lru_cache(maxsize=64)
def constant_ladder(cap: float) -> np.ndarray:
    """CONSTANT_STEPS geometric rungs from 1 to ``cap``; one read-only array
    per cap."""
    if not 1.0 <= cap < math.inf:
        raise ValueError(f"constant cap must be a finite number >= 1, got {cap:g}")
    ladder = np.power(10.0, np.linspace(0.0, math.log10(cap), CONSTANT_STEPS))
    ladder.setflags(write=False)
    return ladder


def least_constant(ok, ladder) -> float | None:
    """The first rung c of the ladder with ok(c), or None."""
    for c in ladder:
        if ok(c):
            return float(c)
    return None


def grid_leq(lhs: np.ndarray, rhs: np.ndarray, floor: float = 1e-300) -> bool:
    """lhs <= rhs at every sample, up to a 1e-9 relative slack plus ``floor``;
    an infinite right-hand side admits anything."""
    with np.errstate(invalid="ignore"):
        ok = (lhs <= rhs * (1 + 1e-9) + floor) | np.isinf(rhs)
    return bool(np.all(ok))


def _worst_ratio_t(t: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((rhs > 0) & np.isfinite(rhs) & np.isfinite(lhs),
                         lhs / rhs, -np.inf)
        ratio = np.where(np.isfinite(lhs) | np.isfinite(rhs), ratio, -np.inf)
        ratio = np.where(np.isinf(lhs) & np.isfinite(rhs), np.inf, ratio)
    idx = int(np.argmax(ratio))
    return float(t[idx])


def ladder_verdict(criterion: str, upper, lower, t: np.ndarray, lhs: np.ndarray,
                   rhs_at, ladder: np.ndarray) -> Verdict:
    """lower(t) <= upper(c t), decided by the end profiles ``upper(end)`` and
    ``lower(end)`` beyond the grid t and by the least rung c of the ladder
    with ``grid_leq(lhs, rhs_at(c))`` on it.  An end that rules domination
    out decides at once; an undecided end is flagged tail-indeterminate."""
    flags: list[str] = []
    for end in ("zero", "infinity"):
        adm = _tail_admits_domination(upper(end), lower(end), end)
        if adm is False:
            worst = float(t[0] if end == "zero" else t[-1])
            return Verdict(False, math.nan, criterion, worst, (f"tail-exponent-reject-{end}",))
        if adm is None:
            flags.append(f"tail-indeterminate-{end}")
    rhs_at = lru_cache(maxsize=1)(rhs_at)  # the last rung tried is read again
    c = least_constant(lambda c: grid_leq(lhs, rhs_at(c)), ladder)
    if c is None:
        return Verdict(False, math.nan, criterion,
                       _worst_ratio_t(t, lhs, rhs_at(ladder[-1])),
                       tuple(flags) + ("constant-range-exhausted",))
    return Verdict(True, c, criterion, _worst_ratio_t(t, lhs, rhs_at(c)), tuple(flags))


def dominates(A: YoungFn, B: YoungFn) -> Verdict:
    """Least c in the constant ladder with B(t) <= A(c t) on the grid.

    Beyond-grid behaviour is screened with the fitted/exact end profiles, so a
    crossing outside [t_min, t_max] (e.g. t**2.99 vs t**3) is still rejected.
    """
    t = A.grid.abscissae()
    return ladder_verdict("dominates", A.end_profile, B.end_profile, t,
                          B._monotone_eval(t), lambda c: A._monotone_eval(c * t),
                          constant_ladder(CONSTANT_CAP))


def equivalent(A: YoungFn, B: YoungFn) -> EquivalenceVerdict:
    d_ab = dominates(A, B)
    d_ba = dominates(B, A)
    return EquivalenceVerdict(d_ab.holds and d_ba.holds, d_ab.constant, d_ba.constant,
                              tuple(sorted(set(d_ab.flags + d_ba.flags))))


# ---------------------------------------------------------------------------
# Luxemburg norm and rearrangement


def _modular(A: YoungFn, g: GridFn | StepFn):
    """The values of g that the modular integrates, and the modular
    lam -> integral of A(g(t)/lam) dt over (0, inf); exact for step functions.

    A sampled g is read once, on its abscissae widened by eight decades at
    each end; only A(g/lam) changes with lam.  Cells where g is 0 at both
    ends add exactly 0.0 and a 0 edge sample gives a zero tail, so those
    abscissae are cut to the support of g and one sample either side.  Their
    cell geometry and tail fit windows are built once (``CellQuadrature``);
    each evaluation is A(g/lam) and one quadrature pass, the same bits as
    ``GridFn(ts, A(g/lam)).total_integral(0.0)`` on the uncut abscissae.
    """
    if isinstance(g, StepFn):
        widths = np.diff(np.concatenate(([0.0], g.breaks)))

        def step_modular(lam: float) -> float:
            vals = A._monotone_eval(g.values / lam)
            return float(np.sum(np.where(widths > 0, vals * widths, 0.0)))

        return g.values, step_modular
    ts = np.concatenate([g.t[0] * np.power(10.0, -np.arange(8.0, 0.0, -1.0)), g.t,
                         g.t[-1] * np.power(10.0, np.arange(1.0, 9.0))])
    gv = np.atleast_1d(np.asarray(g(ts), dtype=float))
    support = np.flatnonzero(gv)
    cut = (slice(max(support[0] - 1, 0), support[-1] + 2) if support.size
           else slice(0, 1))
    ts, gv = ts[cut], gv[cut]
    quadrature = CellQuadrature(ts, 0.0)

    def grid_modular(lam: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            hv = A._monotone_eval(gv / lam)
        return quadrature.total_integral(hv)

    return gv, grid_modular


# the Luxemburg scale is searched on [_LAM_LO, _LAM_HI]; the search ends once
# it brackets the scale within this relative width, an absolute width in
# log lam that exceeds the double spacing of every log lam in range
_LAM_LO = 1e-12
_LAM_HI = 1e12
_LAM_RTOL = 4e-15


def luxemburg_norm(A: YoungFn, g: GridFn | StepFn) -> float:
    """inf{lam > 0 : integral A(g/lam) <= 1}, by a safeguarded secant search
    for the root of log modular against log lam.

    Returns 0 when g vanishes and +inf when no scale in range admits a
    finite modular <= 1; raises IntegralDivergentError when the modular is
    infinite even at the largest scale (the integral cannot converge at any
    lambda in range), and ValueError when the modular is NaN at a scale.
    When A is 0 up to t0 and infinite beyond (an L-infinity type), the
    result is the least double lam with max(g) / lam <= t0, once the
    modular confirms it.  Otherwise it is the right end of a bracket of
    relative width at most _LAM_RTOL whose left end still has a modular
    above 1.
    """
    values, modular = _modular(A, g)
    if not np.any(values > 0):
        return 0.0

    def level(lam: float) -> float:
        m = modular(lam)
        if math.isnan(m):
            raise ValueError(f"the modular is NaN at lambda = {lam!r}")
        return m

    top = level(_LAM_HI)
    if math.isinf(top):
        raise IntegralDivergentError("modular is infinite for every scale in range")
    if top > 1.0:
        return math.inf
    if level(_LAM_LO) <= 1.0:
        return _LAM_LO
    t0 = A.zero_plateau_end
    if 0.0 < t0 == A.finite_sup:
        # an L-infinity type A is 0 up to t0 and infinite beyond it, so the
        # norm is the least lam with max(g) / lam <= t0, confirmed once
        peak = float(np.max(values))
        lam = peak / t0
        while peak / lam > t0:
            lam = math.nextafter(lam, math.inf)
        while peak / math.nextafter(lam, 0.0) <= t0:
            lam = math.nextafter(lam, 0.0)
        if level(lam) <= 1.0:
            return lam
    # the modular falls as lam grows: every evaluated u = log lam narrows
    # [a, b], with modular > 1 at a and <= 1 at b
    a, b = math.log(_LAM_LO), math.log(_LAM_HI)
    near = 0.5 * _LAM_RTOL
    u, last = 0.0, None  # the next point; the last (u, log modular)
    step = older = b - a  # the last two step lengths
    while True:
        m = level(math.exp(u))
        f = math.log(m) if m > 0.0 else -math.inf
        if m > 1.0:
            a = u
        else:
            b = u
        if b - a <= _LAM_RTOL:
            return math.exp(b)
        if last is None:  # the first step: one unit toward the root
            r = u + (1.0 if m > 1.0 else -1.0)
        elif math.isfinite(f) and math.isfinite(last[1]) and f != last[1]:
            r = u + f * (last[0] - u) / (f - last[1])  # the secant's root
        else:
            r = math.nan
        last = (u, f)
        if a - near < r < b + near:
            # an estimate within `near` of an end moves `near` inside it, so
            # that it straddles the root and the next point closes the bracket
            r = min(max(r, a + near), b - near)
            # Brent's rule: a step must be under half the step before the
            # last, else the search bisects, so that it cannot creep
            if abs(r - u) < 0.5 * older:
                older, step, u = step, abs(r - u), r
                continue
        u = 0.5 * (a + b)
        older = step = 0.5 * (b - a)


def rearrangement(cells) -> StepFn:
    """Nonincreasing rearrangement of a finite multiset of (value, measure) cells.

    ``cells`` is a sequence of pairs or a (k, 2) array.  Sort the values in
    decreasing order (stably) and lay them out over cumulative measure;
    equal adjacent values merge, zero values are dropped (the rearrangement
    vanishes beyond the support measure).
    """
    vm = np.asarray(cells, dtype=float)
    if vm.size == 0:
        vm = vm.reshape(0, 2)
    if vm.ndim != 2 or vm.shape[1] != 2:
        raise ValueError("cells need (value, measure) pairs")
    if np.any(vm < 0):
        raise ValueError("cells need nonnegative values and measures")
    vm = vm[(vm[:, 1] > 0) & (vm[:, 0] > 0)]
    if not len(vm):
        return StepFn(np.array([1.0]), np.array([0.0]))
    vm = vm[np.argsort(-vm[:, 0], kind="stable")]
    values = vm[:, 0]
    acc = np.cumsum(vm[:, 1])  # sequential, as a running sum
    last = np.append(values[1:] != values[:-1], True)  # the end of each run
    return StepFn(acc[last], values[last])
