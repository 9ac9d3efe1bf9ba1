"""Young functions and their calculus.

A Young function is convex, left-continuous, vanishes at 0 and may take the
value +inf.  Instances carry an optional closed-form profile, an optional
exact callable (the pointwise evaluator when given, else the closed form is),
and always a normalized sample table on a log grid.  Normalization takes the greatest convex minorant of the raw
samples in linear coordinates, which repairs the join of asymptotic pieces at
t = 1 and pins the structural inequalities (monotonicity, k*A(t) <= A(k*t),
the conjugate product bounds) to machine precision while staying within a
bounded factor of the raw profile.

The generalized inverse follows the right-continuous convention
A^{-1}(s) = sup{t : A(t) <= s}, which handles zero plateaus and jumps to
+inf uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import families as fam
from .grid import DEFAULT_GRID, GridFn, GridSpec, StepFn, TailFit, ell, merge_breakpoints

_TINY = 1e-300
_HUGE = 1e300

# the constant ladder: CONSTANT_STEPS geometric rungs on [1, cap]
CONSTANT_CAP = 1e6
CONSTANT_STEPS = 60


class IntegralDivergentError(ValueError):
    """Raised when a Luxemburg modular is infinite for every scale in range."""


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
    """Greatest convex minorant through (0,0) of the finite samples.

    Infinite values are kept as-is; the hull is computed in linear
    coordinates, so the output node sequence is convex and nondecreasing.
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
    hx = [xs[0]]
    hy = [ys[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for xi, yi in zip(xs[1:], ys[1:]):
            while len(hx) >= 2:
                cross = (hx[-1] - hx[-2]) * (yi - hy[-2]) \
                    - (hy[-1] - hy[-2]) * (xi - hx[-2])
                if cross <= 0.0:
                    hx.pop()
                    hy.pop()
                else:
                    break  # keeps the vertex also when cross overflows to nan
            hx.append(xi)
            hy.append(yi)
    out[: last + 1] = np.interp(t[: last + 1], hx, hy)
    return out


def libm_exp(u: np.ndarray) -> np.ndarray:
    """exp element by element through libm: numpy's AVX-512 exp differs from
    it in the last bit on some inputs, which would move bisection results."""
    return np.fromiter(map(math.exp, u), dtype=float, count=len(u))


def log_bisect(ok, lo, hi, iters: int):
    """Halve the brackets [lo, hi] of u = log x ``iters`` times; returns the
    final (lo, hi).  ``ok(u)`` takes the midpoints (arrays, 0-d for float
    brackets), exponentiates them itself, and moves lo up where it holds.
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        up = ok(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return lo, hi


def _bisect_boundary(pred, lo: float, hi: float) -> float:
    """sup{x in [lo, hi] : pred(x)} for a down-set predicate, in log space."""
    if not pred(lo):
        return 0.0
    if pred(hi):
        return math.inf
    llo, _ = log_bisect(lambda u: pred(math.exp(u)), math.log(lo), math.log(hi), 90)
    return math.exp(llo)


class YoungFn:
    """A Young function with symbolic, callable and tabulated views."""

    def __init__(self, *, symbolic: fam.AsymptoticFamily | None = None,
                 raw=None, table: GridFn | None = None,
                 grid: GridSpec = DEFAULT_GRID, label: str = "",
                 normalize: bool = True,
                 breakpoints: tuple[float, ...] = (),
                 profile_hint: fam.AsymptoticFamily | None = None):
        if symbolic is None and raw is None and table is None:
            raise ValueError("need a profile, a callable or a table")
        self.symbolic = symbolic
        self.raw = raw
        self.grid = grid
        # closed-form asymptotics known for a numerically built function;
        # metadata only (no pointwise agreement implied, unlike ``symbolic``)
        self.profile_hint = profile_hint
        self.label = label or (symbolic.render() if symbolic else "tabulated")
        # the pointwise evaluator: the exact callable, else the closed form,
        # else none (the table alone)
        self._source = raw if raw is not None else (
            symbolic.value if symbolic is not None else None)

        if table is None:
            t = merge_breakpoints(grid, np.asarray(breakpoints, dtype=float)) \
                if breakpoints else grid.abscissae()
            vals = np.asarray(self._source(t), dtype=float)
            if normalize:
                vals = _convex_minorant(t, vals)
                vals = np.maximum.accumulate(vals)
            table = GridFn(t, vals)
        self.table = table

        # the pointwise evaluator backs the monotone view only when it agrees
        # with the normalized table (monotone and convex-consistent); raw
        # profiles with repaired joins fall back to the table plus anchored
        # closed-form extrapolation
        if self._source is not None:
            sv = np.asarray(self._source(self.table.t), dtype=float)
            prev, nxt = sv[:-1], sv[1:]
            slack = np.where(np.isfinite(prev), 1e-12 * np.abs(prev) + 1e-300, 0.0)
            with np.errstate(invalid="ignore"):
                mono = bool(np.all(nxt >= prev - slack))
                both_fin = np.isfinite(sv) & np.isfinite(self.table.y)
                same = np.abs(sv - self.table.y) <= 1e-9 * np.abs(self.table.y) + 1e-300
                agree = bool(np.all(same | ~both_fin)) and bool(
                    np.all(np.isfinite(sv) == np.isfinite(self.table.y)))
            self._mono_source = mono and agree
        else:
            self._mono_source = False

        self.zero_plateau_end = self._find_zero_plateau()
        self.finite_sup = self._find_finite_sup()

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
            good = ~np.isnan(ext)
            if good.all():
                vals[mask] = ext
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
            pc = self.closed_form.piece("zero")
            q, alpha = pc.effective_power("zero"), pc.log_exponent("zero")
            if (math.isfinite(q) and math.isfinite(alpha)
                    and not pc.exppower("zero")[0] and not pc.loglog_exponent()):
                log_coef = (math.log(v0) - q * math.log(t0)
                            - alpha * math.log(float(ell(t0))))
                tail = TailFit("power", q, log_coef, alpha, exact=True)
        return GridFn(t, vals, tail_zero=tail)

    def _structural_jump(self, end: str) -> bool | None:
        """Does the closed form put an actual 0/inf plateau at this end?

        None when no closed form is attached; otherwise the answer is exact:
        only constant pieces and power jumps plateau, everything else is
        positive finite there (float under/overflow notwithstanding).
        """
        if self.closed_form is None:
            return None
        pc = self.closed_form.piece(end)
        if pc.is_const() is not None:
            return True
        return any(isinstance(f, fam.PowerFactor) and math.isinf(f.p)
                   for f in pc.factors)

    def _find_zero_plateau(self) -> float:
        if self._structural_jump("zero") is False:
            return 0.0
        probe = float(np.min(self._monotone_eval(np.array([self.grid.t_min]))))
        if probe > 0.0:
            return 0.0
        return _bisect_boundary(
            lambda x: float(self._monotone_eval(np.array([x]))[0]) <= 0.0,
            self.grid.t_min, self.grid.t_max * 10.0)

    def _find_finite_sup(self) -> float:
        if self._structural_jump("infinity") is False:
            return math.inf
        hi = self.grid.t_max
        if np.isfinite(self._monotone_eval(np.array([hi]))[0]):
            tail = self.table.tail_infinity
            if tail.kind != "infinity":
                return math.inf
        return _bisect_boundary(
            lambda x: bool(np.isfinite(self._monotone_eval(np.array([x]))[0])),
            self.grid.t_min / 10.0, self.grid.t_max)

    # -- generalized inverse --------------------------------------------------

    def inverse(self, s: float) -> float:
        return float(self.inverse_many(np.array([float(s)]))[0])

    def inverse_many(self, s: np.ndarray) -> np.ndarray:
        """sup{t : A(t) <= s}, vectorized bisection in log space."""
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        lo = np.full_like(s, math.log(_TINY))
        hi = np.full_like(s, math.log(_HUGE))
        v_lo = self._monotone_eval(np.exp(lo))
        v_hi = self._monotone_eval(np.exp(hi))
        dead = ~(v_lo <= s)
        out[dead] = 0.0
        alive_hi = v_hi <= s
        out[alive_hi] = self.finite_sup if not math.isinf(self.finite_sup) else math.inf
        work = ~(dead | alive_hi)
        if work.any():
            sw = s[work]
            wl, _ = log_bisect(lambda u: self._monotone_eval(np.exp(u)) <= sw,
                               lo[work], hi[work], 90)
            out[work] = np.exp(wl)
        return out

    @cached_property
    def inverse_on_grid(self) -> np.ndarray:
        """A^{-1} sampled at the table abscissae, computed once."""
        return self.inverse_many(self.table.t)

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


@dataclass(frozen=True)
class EndProfile:
    """Leading behaviour of a Young function toward one end of (0, inf).

    kind: "power" (t**q with a slowly varying correction), "plateau-zero"
    (identically 0 up to a threshold) or "plateau-infinity" (jumps to +inf at
    a threshold).  ``alpha`` is the correction rendered as a *local* l(t)
    exponent at the grid-edge anchor, which makes exact and fitted profiles
    directly comparable.  ``exp_beta`` records an exp(t**beta) factor when the
    closed form has one (q is +-inf in that case).
    """

    kind: str
    q: float = 0.0
    alpha: float = 0.0
    exp_beta: float = 0.0
    threshold: float = 0.0
    exact: bool = False

    def render(self) -> str:
        if self.kind == "plateau-zero":
            return f"0 on (0,{self.threshold:.6g}]"
        if self.kind == "plateau-infinity":
            return f"inf beyond {self.threshold:.6g}"
        body = f"t^{self.q:.6g}"
        if self.alpha and np.isfinite(self.alpha) and abs(self.alpha) > 1e-9:
            body += f" l(t)^{self.alpha:.6g}"
        return body


def _window_estimate(u: np.ndarray, logy: np.ndarray) -> tuple[float, float]:
    """Least-squares (q, alpha) in the model log y = c + q u + alpha log l."""
    basis = np.column_stack([np.ones_like(u), u, np.log1p(np.abs(u))])
    sol, *_ = np.linalg.lstsq(basis, logy, rcond=None)
    return float(sol[1]), float(sol[2])


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
    q, alpha = _window_estimate(u[good], logy[good])
    if q >= _Q_SUPER:
        return EndProfile("power", q, 0.0, 0.0)
    return EndProfile("power", q, alpha)


def _piece_window_profile(grid: GridSpec, pc: fam.AsymPiece, end: str) -> EndProfile:
    """Fit (q, alpha) of a closed-form piece over the canonical edge window.

    The window is tied to the grid specification (not to any particular
    table), so two profiles fitted this way are directly comparable even when
    their tables span different ranges; table plateaus are ignored here (they
    are float saturation whenever the closed form has finite order).
    """
    edge = grid.t_min if end == "zero" else grid.t_max
    sgn = 1.0 if end == "zero" else -1.0
    u = math.log(edge) + sgn * np.linspace(0.0, 2.0 * math.log(10.0), 49)
    logy = np.asarray(pc.log_value(u), dtype=float)
    good = np.isfinite(logy)
    if good.sum() < 8:
        return EndProfile("power", pc.effective_power(end), 0.0, exact=True)
    q, alpha = _window_estimate(u[good], logy[good])
    return EndProfile("power", q, alpha, exact=True)


def end_profile(A: YoungFn, end: str) -> EndProfile:
    closed = A.closed_form
    if closed is not None:
        # structural profile first: a float-saturated table must not disguise
        # a finite-order or exponential profile as a genuine plateau
        pc = closed.piece(end)
        const = pc.is_const()
        if const == 0.0 or (isinstance(pc.factors[0], fam.PowerFactor)
                            and math.isinf(pc.factors[0].p) and end == "zero"):
            return EndProfile("plateau-zero", threshold=A.zero_plateau_end,
                              exact=True)
        if const is not None and math.isinf(const):
            return EndProfile("plateau-infinity", threshold=A.finite_sup, exact=True)
        q_struct = pc.effective_power(end)
        if math.isinf(q_struct):
            beta = pc.exppower(end)[1]
            if end == "infinity" and beta == 0.0:
                # a power jump (t**inf): an actual plateau at the threshold
                return EndProfile("plateau-infinity", threshold=A.finite_sup,
                                  exact=True)
            return EndProfile("power", q_struct, 0.0, beta, exact=True)
        return _piece_window_profile(A.grid, pc, end)
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


def from_table(table: GridFn, grid: GridSpec = DEFAULT_GRID, label: str = "") -> YoungFn:
    return YoungFn(table=table, grid=grid, label=label)


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
    where the stencil is concave.
    """
    d = _REFINE_STEP
    cap = math.log(10.0) / A.grid.points_per_decade
    offsets = np.array([-d, 0.0, d])
    best = np.full_like(ts, -np.inf)
    for _ in range(_REFINE_ROUNDS):
        s = np.exp(u[:, None] + offsets[None, :])
        with np.errstate(over="ignore", invalid="ignore"):
            f = s * ts[:, None] - A._monotone_eval(s.ravel()).reshape(s.shape)
        f = np.where(np.isnan(f), -np.inf, f)
        best = np.maximum(best, f.max(axis=1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slope = (f[:, 2] - f[:, 0]) / (2.0 * d)
            curv = (f[:, 2] - 2.0 * f[:, 1] + f[:, 0]) / (d * d)
            step = np.where(curv < 0.0, -slope / curv, 0.0)
        step = np.clip(np.where(np.isfinite(step), step, 0.0), -cap, cap)
        if not np.any(np.abs(step) > 1e-10):
            break
        u = u + step
    return best


def conjugate(A: YoungFn) -> YoungFn:
    """Young conjugate sup_s { s t - A(s) }.

    The supremum runs over node candidates (extended several decades beyond
    the grid through the pointwise evaluator), one maximum inside the cells
    and analytic power tails.  The cell maximum is taken of the same view
    that ``A.inverse_many`` inverts: the closed-form maximum of the power
    cells for a tabulated function, and a refinement on the pointwise
    evaluator when that backs the monotone view (power interpolation sits off
    the exact function by a few 1e-4 relative inside a cell, enough to push
    A^{-1}(t) C^{-1}(t) past 2t).  Either way the result is a supremum of
    affine functions of t, hence convex; conjugating twice recovers the
    convex envelope of the original representation.
    """
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
    s_i = t_nodes[finite]
    y_i = y_nodes[finite]

    tl, tr = s_i[:-1], s_i[1:]
    yl, yr = y_i[:-1], y_i[1:]
    cell_ok = (yl > 0) & (yr > yl)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.where(cell_ok, np.log(np.where(cell_ok, yr / yl, 2.0)) /
                     np.log(tr / tl), 1.0)
    interior = cell_ok & (m > 1.0 + 1e-9) & np.isfinite(m)
    log_c = np.where(interior, np.log(yl, where=interior, out=np.zeros_like(yl))
                     - m * np.log(tl), 0.0)

    ext_fn = GridFn(s_i, y_i)
    lo_tail, hi_tail = ext_fn.tail_zero, ext_fn.tail_infinity
    saturated = not math.isinf(A.finite_sup)
    exact = A._mono_source

    def conj_values(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        rows = np.arange(ts.size)
        best = np.zeros_like(ts)
        with np.errstate(over="ignore", invalid="ignore"):
            cand = s_i[None, :] * ts[:, None] - y_i[None, :]
        node = cand.argmax(axis=1)
        best = np.maximum(best, cand[rows, node])
        # interior cell maxima: s* = (t/(c m))**(1/(m-1)), value s* t (1 - 1/m);
        # boundary maxima coincide with node candidates
        if interior.any():
            mi = m[interior][None, :]
            lci = log_c[interior][None, :]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ls = (np.log(ts[:, None]) - lci - np.log(mi)) / (mi - 1.0)
                lo = np.log(tl[interior])[None, :]
                hi = np.log(tr[interior])[None, :]
                inside = (ls > lo) & (ls < hi)
                s_star = np.where(inside, np.exp(np.where(inside, ls, 0.0)), 0.0)
                val = s_star * ts[:, None] * (1.0 - 1.0 / mi)
            if exact:
                # where the power-cell maximum beats every node it lies inside
                # a cell; it only seeds the refinement on the evaluator there
                cell = val.argmax(axis=1)
                seed = val[rows, cell] > cand[rows, node]
                if seed.any():
                    best[seed] = np.maximum(best[seed], _refine_sup(
                        A, ts[seed], ls[rows, cell][seed]))
                # elsewhere from the best node: a cell's power chord can put
                # its maximum just past the cell edge while the exact one is
                # inside, and the nodes alone then miss it by ~1e-4 relative
                rest = ~seed & (cand[rows, node] > 0.0)
                if rest.any():
                    best[rest] = np.maximum(best[rest], _refine_sup(
                        A, ts[rest], np.log(s_i[node[rest]])))
            else:
                best = np.maximum(best, val.max(axis=1))
        for tail, bound, is_upper in ((lo_tail, s_i[0], False),
                                      (hi_tail, s_i[-1], True)):
            if is_upper and saturated:
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

    raw = lambda x: conj_values(np.atleast_1d(np.asarray(x, float)))
    numeric = from_callable(raw, grid=A.grid, label=f"conj({A.label})",
                            normalize=False)
    if A.symbolic is not None:
        mapped = fam.conjugate_family(A.symbolic)
        if mapped is not None:
            # the computed supremum stays the evaluation path; the factor-level
            # conjugate rides along as the asymptotic (metadata) view
            return YoungFn(symbolic=mapped, raw=raw, table=numeric.table,
                           grid=A.grid, label=f"conj({A.label})")
    return numeric


# ---------------------------------------------------------------------------
# domination / equivalence / essential domination


@dataclass(frozen=True)
class DominationVerdict:
    holds: bool
    constant: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquivalenceVerdict:
    holds: bool
    constant_ab: float
    constant_ba: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EssentialVerdict:
    holds: bool
    flags: tuple[str, ...] = ()
    sup_values: tuple[float, ...] = ()


_Q_TOL = 1e-3
_A_TOL = 0.05
_Q_TOL_FITTED = 0.02
_A_TOL_FITTED = 0.35
_Q_SUPER = 25.0  # fitted exponents this large are treated as superpolynomial


def _q_category(p: EndProfile) -> str:
    if math.isinf(p.q) or p.q >= _Q_SUPER:
        return "super"
    return "poly"


def _compare_power_profiles(pa: EndProfile, pb: EndProfile, end: str) -> bool | None:
    """Can B(t) <= A(ct) hold beyond the grid?  True/False/None(grid decides).

    At the infinity end bigger exponents mean bigger functions; at the zero
    end the ordering reverses.  The slowly varying corrections are compared as
    local l(t) exponents; exp(t**beta) scales compare by beta only, since the
    argument dilation by c rescales their coefficients arbitrarily.  Fitted
    profiles carry numerical drift, so the margins widen and the band in
    between is left to the grid comparison.
    """
    flip = 1.0 if end == "infinity" else -1.0
    ca, cb = _q_category(pa), _q_category(pb)
    if ca == "super" or cb == "super":
        if ca != cb:
            # superpolynomial order means a huge function at infinity but a
            # tiny (superflat) one near zero
            if ca == "super":
                return end == "infinity"
            return end == "zero"
        if pa.exp_beta and pb.exp_beta:
            # at both ends a larger beta means the larger function
            db = pb.exp_beta - pa.exp_beta
            if db > 1e-12:
                return False
            if db < -1e-12:
                return True
        return None
    both_exact = pa.exact and pb.exact
    q_tol = _Q_TOL if both_exact else _Q_TOL_FITTED
    a_tol = _A_TOL if both_exact else _A_TOL_FITTED
    dq = flip * (pb.q - pa.q)
    if dq > q_tol:
        return False
    if dq < -q_tol:
        return True
    da = pb.alpha - pa.alpha  # l(t) -> inf at both ends
    if math.isnan(da):
        return None
    if da > a_tol:
        return False
    if da < -a_tol:
        return True
    return None


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


def tail_screen(upper, lower) -> tuple[str | None, list[str]]:
    """Screen lower(t) <= upper(c t) beyond the grid at both ends.

    ``upper(end)`` and ``lower(end)`` return the end profiles.  Returns the
    first end whose profiles rule domination out with its reject code as the
    only flag, else None with a tail-indeterminate flag per undecided end.
    """
    flags: list[str] = []
    for end in ("zero", "infinity"):
        adm = _tail_admits_domination(upper(end), lower(end), end)
        if adm is False:
            return end, [f"tail-exponent-reject-{end}"]
        if adm is None:
            flags.append(f"tail-indeterminate-{end}")
    return None, flags


def _tie_sign(x: float, tol: float) -> int:
    if abs(x) <= tol:
        return 0
    return 1 if x > 0 else -1


def exponent_signs(p: EndProfile, q_shift: float,
                   a_shift: float = 0.0) -> tuple[int, int]:
    """Signs of p.q + q_shift and p.alpha + a_shift for a power profile, gaps
    within _Q_TOL on the power and _A_TOL on the l(t) exponent being ties (0).
    """
    return _tie_sign(p.q + q_shift, _Q_TOL), _tie_sign(p.alpha + a_shift, _A_TOL)


def end_sign(A: YoungFn, shift: float, end: str) -> int:
    """Does A(t) t**shift tend to 0 (-1), to a positive finite value (0) or to
    +inf (+1) toward the end?

    Exact for a closed form (``families.limit_sign``); otherwise read from the
    end profile with the ties of ``exponent_signs``.
    """
    if A.closed_form is not None:
        return fam.limit_sign(A.closed_form.piece(end), shift, end)
    p = A.end_profile(end)
    if p.kind != "power":
        return -1 if p.kind == "plateau-zero" else 1
    dq, da = exponent_signs(p, shift)
    if dq:
        return dq if end == "infinity" else -dq
    return da


def end_integrable(A: YoungFn, weight: float, end: str) -> bool:
    """Does the integral of A(s) s**weight ds converge toward the end?

    Exact for a closed form (``families.integrable``); otherwise the end
    profile against the critical power -1 - weight and then the critical l(t)
    exponent -1, with the ties of ``exponent_signs`` counted as divergent.
    """
    if A.closed_form is not None:
        return fam.integrable(A.closed_form.piece(end), weight, end)
    p = A.end_profile(end)
    if p.kind != "power":
        return p.kind == "plateau-zero"
    dq, da = exponent_signs(p, weight + 1.0, 1.0)
    if dq:
        return (dq > 0) == (end == "zero")
    return da < 0


def constant_ladder(cap: float) -> np.ndarray:
    """CONSTANT_STEPS geometric rungs from 1 to ``cap``."""
    if not 1.0 <= cap < math.inf:
        raise ValueError(f"constant cap must be a finite number >= 1, got {cap:g}")
    return np.power(10.0, np.linspace(0.0, math.log10(cap), CONSTANT_STEPS))


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


def dominates(A: YoungFn, B: YoungFn) -> DominationVerdict:
    """Least c in the constant ladder with B(t) <= A(c t) on the grid.

    Beyond-grid behaviour is screened with the fitted/exact end profiles, so a
    crossing outside [t_min, t_max] (e.g. t**2.99 vs t**3) is still rejected.
    """
    rejected, flags = tail_screen(A.end_profile, B.end_profile)
    if rejected:
        return DominationVerdict(False, math.nan, tuple(flags))
    t = A.grid.abscissae()
    bt = B._monotone_eval(t)
    c = least_constant(lambda c: grid_leq(bt, A._monotone_eval(c * t)),
                       constant_ladder(CONSTANT_CAP))
    if c is None:
        return DominationVerdict(False, math.nan,
                                 tuple(flags) + ("constant-range-exhausted",))
    return DominationVerdict(True, c, tuple(flags))


def equivalent(A: YoungFn, B: YoungFn) -> EquivalenceVerdict:
    d_ab = dominates(A, B)
    d_ba = dominates(B, A)
    return EquivalenceVerdict(d_ab.holds and d_ba.holds, d_ab.constant,
                              d_ba.constant, tuple(set(d_ab.flags + d_ba.flags)))


# the grid heuristic of essentially_dominates: the dilations tried, and the
# sup of A(t)/B(lambda t) each must clear
_ESSENTIAL_LAMBDAS = (1, 2, 4, 8, 16, 32)
_ESSENTIAL_SUP = 1e6


def essentially_dominates(A: YoungFn, B: YoungFn) -> EssentialVerdict:
    """Is sup_t A(t)/B(lambda t) infinite for every lambda >= 1?

    Exact decision from the factor algebra when both profiles are symbolic;
    otherwise a flagged grid heuristic: every lambda must reach a sup above
    the threshold with the running sup still growing at a grid edge.
    """
    closed_a, closed_b = A.closed_form, B.closed_form
    if closed_a is not None and closed_b is not None:
        hit = any(
            fam.compare_growth(closed_a.piece(end), closed_b.piece(end), end) > 0
            for end in ("zero", "infinity"))
        return EssentialVerdict(hit, ("symbolic-exact",))

    t = A.grid.abscissae()
    at = np.atleast_1d(np.asarray(A.eval(t), dtype=float))
    sups = []
    ok = True
    for lam in _ESSENTIAL_LAMBDAS:
        blam = np.atleast_1d(np.asarray(B.eval(lam * t), dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where((blam > 0) & np.isfinite(blam), at / blam, np.nan)
            ratio = np.where((at == 0) & (blam == 0), 1.0, ratio)
            ratio = np.where(np.isinf(at) & np.isfinite(blam) & (blam > 0),
                             np.inf, ratio)
        finite = ratio[~np.isnan(ratio)]
        if len(finite) == 0:
            ok = False
            sups.append(math.nan)
            continue
        run = np.maximum.accumulate(finite)
        sup = float(run[-1])
        sups.append(sup)
        growing_edge = (run[-1] > run[max(0, len(run) - 25)]) or math.isinf(sup)
        rev = np.maximum.accumulate(finite[::-1])
        growing_zero_edge = rev[-1] > rev[max(0, len(rev) - 25)]
        if not (sup > _ESSENTIAL_SUP and (growing_edge or growing_zero_edge)):
            ok = False
    return EssentialVerdict(ok, ("heuristic",), tuple(sups))


# ---------------------------------------------------------------------------
# Luxemburg norm and rearrangement


def _modular_gridfn(A: YoungFn, g: GridFn, lam: float) -> float:
    t0, tN = g.t[0], g.t[-1]
    ext_lo = t0 * np.power(10.0, -np.arange(8.0, 0.0, -1.0))
    ext_hi = tN * np.power(10.0, np.arange(1.0, 9.0))
    ts = np.concatenate([ext_lo, g.t, ext_hi])
    gv = np.atleast_1d(np.asarray(g(ts), dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        hv = A._monotone_eval(gv / lam)
    return GridFn(ts, hv).total_integral(0.0)


def luxemburg_modular(A: YoungFn, g: GridFn | StepFn, lam: float) -> float:
    """integral of A(g(t)/lam) dt over (0, inf); exact for step functions."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if isinstance(g, StepFn):
        widths = np.diff(np.concatenate(([0.0], g.breaks)))
        vals = A._monotone_eval(g.values / lam)
        terms = np.where(widths > 0, vals * widths, 0.0)
        return float(np.sum(terms))
    return _modular_gridfn(A, g, lam)


# the Luxemburg scale is bisected on [_LAM_LO, _LAM_HI] in log lam
_LAM_LO = 1e-12
_LAM_HI = 1e12
_LAM_ITERS = 60


def luxemburg_norm(A: YoungFn, g: GridFn | StepFn) -> float:
    """inf{lam > 0 : integral A(g/lam) <= 1} by bisection on log lam.

    Returns +inf when no scale in range admits a finite modular <= 1; raises
    IntegralDivergentError when the modular is infinite even at the largest
    scale (the integral cannot converge at any lambda in range).
    """
    if isinstance(g, StepFn):
        if len(g.values) == 0 or float(np.max(g.values)) == 0.0:
            return 0.0
    else:
        finite = g.y[np.isfinite(g.y)]
        if len(finite) == 0 or float(np.max(g.y)) == 0.0:
            return 0.0
    top = luxemburg_modular(A, g, _LAM_HI)
    if math.isinf(top):
        raise IntegralDivergentError("modular is infinite for every scale in range")
    if top > 1.0:
        return math.inf
    if luxemburg_modular(A, g, _LAM_LO) <= 1.0:
        return _LAM_LO
    # the modular falls as lam grows: bisect on "lam is still too small"
    _, lhi = log_bisect(lambda u: luxemburg_modular(A, g, math.exp(u)) > 1.0,
                        math.log(_LAM_LO), math.log(_LAM_HI), _LAM_ITERS)
    return math.exp(lhi)


def rearrangement(cells) -> StepFn:
    """Nonincreasing rearrangement of a finite multiset of (value, measure) cells.

    Sort the values in decreasing order and lay them out over cumulative
    measure; equal adjacent values merge, zero values are dropped (the
    rearrangement vanishes beyond the support measure).
    """
    pairs = [(float(v), float(m)) for v, m in cells]
    if any(v < 0 or m < 0 for v, m in pairs):
        raise ValueError("cells need nonnegative values and measures")
    pairs = [(v, m) for v, m in pairs if m > 0 and v > 0]
    if not pairs:
        return StepFn(np.array([1.0]), np.array([0.0]))
    pairs.sort(key=lambda vm: -vm[0])
    breaks: list[float] = []
    values: list[float] = []
    acc = 0.0
    for v, m in pairs:
        acc += m
        if values and values[-1] == v:
            breaks[-1] = acc
        else:
            breaks.append(acc)
            values.append(v)
    return StepFn(np.array(breaks), np.array(values))


# ---------------------------------------------------------------------------
# validation


# relative slack of validate's convexity and k A(t) <= A(k t) checks
_RTOL_CONVEX = 1e-9
_RTOL_KT = 1e-6


def validate(A: YoungFn) -> list[str]:
    """Check the representation invariants; returns a list of violations."""
    issues: list[str] = []
    t, y = A.table.t, A.table.y
    if not A.table.nondecreasing(rtol=1e-12):
        issues.append("values not nondecreasing")
    fin = np.isfinite(y)
    tf, yf = t[fin], y[fin]
    if len(tf) >= 3:
        lam = (tf[1:-1] - tf[:-2]) / (tf[2:] - tf[:-2])
        interp = yf[:-2] * (1 - lam) + yf[2:] * lam
        bad = yf[1:-1] > interp + _RTOL_CONVEX * np.maximum(interp, 1e-300)
        # stencils inside a breakpoint eps-cluster are float-cancellation noise
        bad &= (tf[2:] - tf[:-2]) > 1e-9 * tf[:-2]
        if bad.any():
            issues.append(f"convexity violated at {int(bad.sum())} stencils")
    for k in (1.0, 2.0, 10.0):
        # test against the normalized table: that is the convex object the
        # library computes with (raw profiles are only equivalent to it)
        lhs = k * np.atleast_1d(np.asarray(A.table(tf), dtype=float))
        rhs = np.atleast_1d(np.asarray(A.table(k * tf), dtype=float))
        with np.errstate(invalid="ignore"):
            bad = lhs > rhs * (1 + _RTOL_KT) + 1e-300
        bad &= ~(np.isinf(rhs))
        if bad.any():
            issues.append(f"k*A(t) <= A(k t) violated for k={k}")
    if A.symbolic is not None and not _views_agree(A):
        issues.append("symbolic and tabulated views are not equivalent")
    return issues


def _views_agree(A: YoungFn) -> bool:
    """Cross-domination of the raw profile and the normalized table on the
    grid, restricted to float-representable values (no tail extrapolation)."""
    t = A.table.t
    sym = lambda x: np.atleast_1d(np.asarray(A.symbolic.value(x), dtype=float))
    tab = lambda x: np.atleast_1d(np.asarray(A.table(x), dtype=float))
    ladder = constant_ladder(CONSTANT_CAP)

    def dominated(upper, lower) -> bool:
        lower_v = lower(t)
        return least_constant(
            lambda c: grid_leq(lower_v, upper(c * t), floor=1e-280), ladder) is not None

    return dominated(tab, sym) and dominated(sym, tab)
