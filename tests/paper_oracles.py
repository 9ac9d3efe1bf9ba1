"""The paper's shortcut formulas, as oracles the library is checked against.

None of these is on the library's own path.  Each one is a simpler statement
of a result that the library reaches another way, valid under a gate:

* ``supout_inverse`` / ``intout_inverse``: the target and domain inverses
  without the running supremum and the prefix integral, valid under the Boyd
  index gates; compared with ``a_gamma`` and ``b_gamma``;
* ``endpoint_linf_target`` / ``endpoint_l1_domain``: the endpoint theorems,
  compared with ``bounded(A, Linf)`` and ``bounded(L1, B)``;
* ``read_factors``: a closed-form piece's exponents toward one end, read
  from its factors; its ``profile`` is compared with ``AsymPiece.profile``;
* ``compare_growth``: the exact growth order of two closed-form pieces,
  which decides essential domination; compared with ``dominates``;
* ``limit_sign`` / ``integrable``: the end limit and the end integral of a
  closed-form piece, read from its factors; compared with ``end_sign`` and
  ``integral_sign`` on the piece's end profile;
* ``validate``: the representation invariants of a ``YoungFn``;
* ``grid_total_integral`` / ``step_total_integral``: the integral over
  (0, inf) of a sampled function and of a step function.
"""

import math
from dataclasses import dataclass

import numpy as np

from orlicz_calc import transforms as tr
from orlicz_calc.boyd import boyd_indices
from orlicz_calc.families import (AsymPiece, ConstFactor, EndProfile, ExpLogFactor,
                                  ExpPowerFactor, LogFactor, LogLogFactor, PowerFactor,
                                  end_sign, integral_sign, lex_sign)
from orlicz_calc.grid import GridFn, StepFn
from orlicz_calc.transforms import TransformGateError
from orlicz_calc.young import (CONSTANT_CAP, GammaContext, YoungFn, constant_ladder,
                               grid_leq, least_constant)


# ---------------------------------------------------------------------------
# simplified inverses under the Boyd gates


def supout_inverse(A: YoungFn, ctx: GammaContext) -> GridFn:
    """Simplified target inverse A^{-1}(t) t^(-gamma/n), valid when the upper
    Boyd index of A sits below n/gamma."""
    est = boyd_indices(A)
    if not (est.I_upper + est.ci_halfwidth < ctx.r_star):
        raise TransformGateError("index-gate-failed",
                                 f"upper Boyd index {est.I_upper:.4g} is not below "
                                 f"n/gamma = {ctx.r_star:.4g}")
    t, inv = tr._inverse_on_abscissae(A)
    vals = inv * t ** (-ctx.s_star)
    return GridFn(t, np.maximum.accumulate(vals))


def intout_inverse(B: YoungFn, ctx: GammaContext) -> GridFn:
    """Simplified domain inverse t^(gamma/n) B^{-1}(t), valid when the lower
    Boyd index of B exceeds n/(n-gamma)."""
    est = boyd_indices(B)
    if not (est.i_conservative > ctx.q_star):
        raise TransformGateError("index-gate-failed",
                                 f"lower Boyd index {est.i_lower:.4g} is not above "
                                 f"n/(n-gamma) = {ctx.q_star:.4g}")
    t, inv = tr._inverse_on_abscissae(B)
    vals = t ** ctx.s_star * inv
    return GridFn(t, np.maximum.accumulate(vals))


# ---------------------------------------------------------------------------
# endpoint theorems


def endpoint_linf_target(A: YoungFn, ctx: GammaContext) -> bool:
    """Is M_gamma bounded from L^A into L-infinity: A(t) >= C t^(n/gamma)
    on (0, inf)?"""
    r = ctx.r_star
    if A.zero_plateau_end > 0.0:
        return False
    vals = np.atleast_1d(np.asarray(A._monotone_eval(A.table.t), dtype=float))
    return bool(all(end_sign(A.end_profile(end), -r, end) >= 0
                    for end in ("zero", "infinity")) and not np.any(vals == 0.0))


def endpoint_l1_domain(B: YoungFn, ctx: GammaContext) -> bool:
    """Is M_gamma bounded from L^1 into L^B: does the full-line integral of
    B(s)/s^(q*+1) converge?"""
    if not tr.check_bconv(B, ctx) or math.isfinite(B.finite_sup):
        return False
    return integral_sign(B.end_profile("infinity"), -ctx.q_star - 1.0, "infinity") > 0


# ---------------------------------------------------------------------------
# exact end tests of closed-form pieces


@dataclass(frozen=True)
class FactorReading:
    """A piece's factors toward one end.

    ``const`` is the value (0 or inf) of a constant piece, else None.  ``q``
    is the summed power, or +inf (-inf) when the first exp(t**beta) factor
    active at the end outgrows (undercuts) every power there; ``beta`` is
    then its power.  ``explog`` is the net (coef, k) of the exp(|log t|**k)
    factors with the largest k whose coefficients do not cancel, else
    (0, 0); ``l`` and ``ll`` are the summed l(t) and l(l(t)) exponents.
    """

    const: float | None
    q: float
    beta: float
    explog: tuple[float, float]
    l: float
    ll: float

    def profile(self) -> EndProfile:
        """The exact end profile these exponents give: a plateau, an
        exp(t**beta) scale, or the power with the l(t) exponent (+-inf past
        a live exp(|log t|**k) factor, k > 0) and the l(l(t)) exponent."""
        if self.const is not None:
            return EndProfile("plateau-zero" if self.const == 0.0 else "plateau-infinity",
                              exact=True)
        if math.isinf(self.q):
            return EndProfile("power", self.q, exp_beta=self.beta, exact=True)
        coef, k = self.explog
        if coef and k > 0:
            return EndProfile("power", self.q, math.copysign(math.inf, coef), exact=True)
        return EndProfile("power", self.q, self.l, exact=True, loglog_exponent=self.ll)


def read_factors(pc: AsymPiece, end: str) -> FactorReading:
    """Read the piece's factors toward ``end`` ("zero" or "infinity")."""
    consts = [f.value for f in pc.factors if isinstance(f, ConstFactor)]
    if consts:
        return FactorReading(consts[0], math.nan, 0.0, (0.0, 0.0), 0.0, 0.0)
    # exp(c t**beta) is active toward infinity for beta > 0, toward zero for
    # beta < 0; it outgrows every power where c t**beta -> +inf
    active = [f for f in pc.factors if isinstance(f, ExpPowerFactor)
              and f.power != 0 and (f.power > 0) == (end == "infinity")]
    if active:
        f = active[0]
        return FactorReading(None, math.inf if f.coef * f.power > 0 else -math.inf,
                             f.power, (0.0, 0.0), 0.0, 0.0)
    net: dict[float, float] = {}
    for f in pc.factors:
        if isinstance(f, ExpLogFactor):
            net[f.power] = net.get(f.power, 0.0) + f.coef
    live = sorted((k, c) for k, c in net.items() if c)
    k, coef = live[-1] if live else (0.0, 0.0)
    return FactorReading(
        None, sum(f.p for f in pc.factors if isinstance(f, PowerFactor)), 0.0, (coef, k),
        sum(f.alpha for f in pc.factors if isinstance(f, LogFactor)),
        sum(f.alpha for f in pc.factors if isinstance(f, LogLogFactor)))


def compare_growth(a: AsymPiece, b: AsymPiece, end: str) -> int:
    """Is a(t)/b(lambda t) unbounded toward the end, for every lambda >= 1?

    Returns +1 (unbounded), -1 (tends to zero for large lambda), 0 (comparable).
    Exact for the factor algebra: a constant piece 0 lies below and inf above
    every other piece; exp(t**beta) scales beat everything else and are
    compared by beta (coefficients lose to the lambda-inflation), then powers,
    then exp(|log|**kappa) corrections, then l, then l(l).
    """
    ra, rb = read_factors(a, end), read_factors(b, end)
    if ra.const is not None or rb.const is not None:
        # rank 0 < positive finite < inf; two equal constants are comparable
        ka, kb = (0 if r.const is None else 1 if math.isinf(r.const) else -1
                  for r in (ra, rb))
        return (ka > kb) - (ka < kb)
    if math.isinf(ra.q) and math.isinf(rb.q):
        # both superpolynomial (or superflat): at both ends the larger beta
        # is the larger function (near zero the more negative, the flatter)
        if ra.beta != rb.beta:
            return 1 if ra.beta > rb.beta else -1
        return -1
    # sub-polynomial corrections survive any lambda; of two exp-log factors
    # the one with the larger |log|-power dominates and its sign decides.
    # Only once they tie do the l(t) exponents compare, as plain sums
    (xa, ka), (xb, kb) = ra.explog, rb.explog
    dx = xa - xb if ka == kb else (xa if ka > kb else -xb)
    flip = 1.0 if end == "infinity" else -1.0
    return lex_sign((flip * (ra.q - rb.q), dx, ra.l - rb.l, ra.ll - rb.ll),
                    (1e-12, 0.0, 1e-12, 1e-12))


def limit_sign(pc: AsymPiece, power_shift: float, end: str) -> int:
    """Sign of lim f(t) * t**power_shift toward the end: -1 -> 0, 0 -> positive
    finite, +1 -> +infinity.

    Decided structurally from the factor exponents (exact for every profile
    ``families`` can build): the power, then the l(t) and l(l(t)) exponents.
    """
    # near zero t**e -> 0 when e > 0; near infinity -> infinity when e > 0;
    # l(t) -> inf at both ends
    p = read_factors(pc, end).profile()
    flip = 1.0 if end == "infinity" else -1.0
    return lex_sign((flip * (p.q + power_shift), p.alpha, p.loglog_exponent),
                    (1e-12,) * 3)


def integrable(pc: AsymPiece, weight: float, end: str) -> bool:
    """Does the integral of pc(s) * s**weight ds converge toward the end?

    Decided from the factor exponents: the power against the critical
    -1 - weight, then at the critical power the l(t) exponent against -1,
    then the l(l(t)) exponent against -1; a tie diverges.
    """
    p = read_factors(pc, end).profile()
    flip = 1.0 if end == "zero" else -1.0
    return lex_sign((flip * (p.q + weight + 1.0), -1.0 - p.alpha, -1.0 - p.loglog_exponent),
                    (1e-9,) * 3) > 0


# ---------------------------------------------------------------------------
# representation invariants


# relative slack of validate's monotonicity, convexity and k A(t) <= A(k t)
# checks
_RTOL_MONOTONE = 1e-12
_RTOL_CONVEX = 1e-9
_RTOL_KT = 1e-6


def validate(A: YoungFn) -> list[str]:
    """Check the representation invariants; returns a list of violations."""
    issues: list[str] = []
    t, y = A.table.t, A.table.y
    slack = _RTOL_MONOTONE * np.abs(np.where(np.isfinite(y[:-1]), y[:-1], 0.0))
    if not np.all(y[1:] >= y[:-1] - slack):
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
    if A.closed_form is not None and not _views_agree(A):
        issues.append("closed-form and tabulated views are not equivalent")
    return issues


def _views_agree(A: YoungFn) -> bool:
    """Cross-domination of the closed form and the normalized table on the
    grid, restricted to float-representable values (no tail extrapolation)."""
    t = A.table.t
    sym = lambda x: np.atleast_1d(np.asarray(A.closed_form.value(x), dtype=float))
    tab = lambda x: np.atleast_1d(np.asarray(A.table(x), dtype=float))
    ladder = constant_ladder(CONSTANT_CAP)

    def dominated(upper, lower) -> bool:
        lower_v = lower(t)
        return least_constant(
            lambda c: grid_leq(lower_v, upper(c * t), floor=1e-280), ladder) is not None

    return dominated(tab, sym) and dominated(sym, tab)


# ---------------------------------------------------------------------------
# reference integrals


def grid_total_integral(g: GridFn) -> float:
    """Integral of g over (0, inf): the last prefix integral plus the tail
    integral beyond the last abscissa."""
    return float(g.prefix_integral(0.0)[-1] + g.tail_integral(0.0, "infinity"))


def step_total_integral(f: StepFn) -> float:
    """Integral of a step function over (0, inf): its values times the
    widths of their cells."""
    return float(np.dot(np.diff(np.concatenate(([0.0], f.breaks))), f.values))
