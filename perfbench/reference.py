"""Reference answers computed apart from the library.

Nothing here calls into ``orlicz_calc``.  Profiles are read only through
their factor lists (the closed-form input description), and the answers come
from the paper's explicit formulas:

* the target of t^a near an end is t^(n a/(n - gamma a)) while a < n/gamma
  (the explicit A_gamma formula), and criterion (iii) compares
  int_0^t B(s)/s^(q*+1) ds with A_gamma(C t)/t^(q*) at each end;
* the optimal target exists exactly when the lower Boyd index of A_gamma,
  the smaller of its two end orders, exceeds q* = n/(n - gamma);
* the optimal domain exists exactly when int_0 B(s)/s^(q*+1) ds converges.

Each rule answers only where the exponents it compares differ strictly, and
returns None otherwise: borderline cases are left to the other checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-9


@dataclass(frozen=True)
class EndShape:
    """Leading behaviour of a closed-form piece toward one end.

    kind "power": t^order times slowly varying factors whose sign of growth
    is ``slow`` (+1 grows, -1 decays, 0 none) toward that end.
    kind "plateau": the constant 0 near zero or +inf near infinity.
    kind "super": exp(-t^-b) near zero or exp(t^b) near infinity.
    """

    kind: str
    end: str
    order: float = math.inf
    slow: int = 0
    alpha: float = 0.0
    explog: float = 0.0
    loglog: float = 0.0


def end_shape(piece, end: str) -> EndShape:
    """Read a families.AsymPiece through its factor dataclasses only."""
    order, alpha, explog, loglog = 0.0, 0.0, 0.0, 0.0
    for f in piece.factors:
        name = type(f).__name__
        if name == "ConstFactor":
            return EndShape("plateau", end)
        if name == "ExpPowerFactor":
            if (end == "infinity" and f.power > 0) or (end == "zero" and f.power < 0):
                return EndShape("super", end)
        elif name == "PowerFactor":
            if math.isinf(f.p):
                return EndShape("plateau", end)
            order += f.p
        elif name == "LogFactor":
            alpha += f.alpha
        elif name == "LogLogFactor":
            loglog += f.alpha
        elif name == "ExpLogFactor":
            explog += f.coef
        else:
            raise ValueError(f"unknown factor {name}")
    # l(t) = 1 + |log t| grows toward both ends; exp(c |log t|^k) beats any
    # power of l, which beats any power of l(l)
    slow = 0
    for weight in (explog, alpha, loglog):
        if abs(weight) > _EPS:
            slow = 1 if weight > 0 else -1
            break
    return EndShape("power", end, order, slow, alpha, explog, loglog)


def target_order(a: float, n: int, gamma: float) -> float:
    """Order of A_gamma at an end where A has order a < n/gamma."""
    return n * a / (n - gamma * a)


def _cmp(x: float, y: float) -> int | None:
    if x > y + _EPS:
        return 1
    if x < y - _EPS:
        return -1
    return None


def _zero_end(sa: EndShape, sb: EndShape, n: int, gamma: float) -> bool | None:
    r = n / gamma
    if sa.kind != "power" or sa.order > r + _EPS:
        return False  # A(t) t^(-n/gamma) -> 0: no target at all
    if abs(sa.order - r) <= _EPS:
        if sa.slow < 0:
            return False
        # A_gamma vanishes near zero (slow == 0) or is flatter than any power
        if sb.kind == "plateau":
            return True
        if sb.kind == "power" or sa.slow == 0:
            return False
        return None
    if sb.kind != "power":
        return True  # the left-hand integral vanishes faster than any power
    c = _cmp(sb.order, target_order(sa.order, n, gamma))
    return None if c is None else c > 0


def _infinity_end(sa: EndShape, sb: EndShape, n: int, gamma: float) -> bool | None:
    r = n / gamma
    if sa.kind != "power" or sa.order > r + _EPS:
        return True  # A_gamma jumps to +inf: every B fits at infinity
    if abs(sa.order - r) <= _EPS:
        if sa.slow >= 0:
            return True
        # A_gamma grows like exp(t^b): beats powers, loses to a jump
        if sb.kind == "power":
            return True
        return False if sb.kind == "plateau" else None
    if sb.kind != "power":
        return False
    c = _cmp(sb.order, target_order(sa.order, n, gamma))
    return None if c is None else c < 0


def _is_l1(fa) -> bool:
    shapes = (end_shape(fa.near_zero, "zero"),
              end_shape(fa.near_infinity, "infinity"))
    return all(s.kind == "power" and abs(s.order - 1.0) <= _EPS and s.slow == 0
               for s in shapes)


def bounded_rule(fa, fb, n: int, gamma: float) -> bool | None:
    """Criterion (iii) for power-log ends; None when a compared pair of
    exponents coincides (the answer then rests on the log factors).  For
    A = t the L^1 integral test decides."""
    if _is_l1(fa):
        return l1_integral_rule(fb, n, gamma)
    ends = (
        _zero_end(end_shape(fa.near_zero, "zero"), end_shape(fb.near_zero, "zero"),
                  n, gamma),
        _infinity_end(end_shape(fa.near_infinity, "infinity"),
                      end_shape(fb.near_infinity, "infinity"), n, gamma),
    )
    if False in ends:
        return False
    if all(ends):
        return True
    return None


def acond_rule(fa, n: int, gamma: float) -> bool | None:
    """Is A(t) t^(-n/gamma) bounded below near zero?"""
    sa = end_shape(fa.near_zero, "zero")
    r = n / gamma
    if sa.kind != "power":
        return False
    c = _cmp(sa.order, r)
    if c is None:
        return sa.slow >= 0
    return c < 0


def _integrable_at(shape: EndShape, power: float) -> bool | None:
    """Is int s^(-power-1) B(s) ds finite toward the end of ``shape``?

    At the critical order the integrand is l(s)^alpha / s, so it converges
    exactly when alpha < -1 (alpha = -1 diverges like log log), and a
    factor exp(c |log s|^k) converges exactly when c < 0.  ``power`` is
    counted so that orders above it converge near zero and orders below it
    converge near infinity; ``shape.end`` tells which."""
    c = _cmp(shape.order, power)
    if c is not None:
        return c > 0 if shape.end == "zero" else c < 0
    if abs(shape.explog) > _EPS:
        return shape.explog < 0
    if abs(shape.loglog) > _EPS:
        return None
    c = _cmp(shape.alpha, -1.0)
    return c is not None and c < 0


def bconv_rule(fb, n: int, gamma: float) -> bool | None:
    """Does int_0 B(s)/s^(q*+1) ds converge at zero?"""
    sb = end_shape(fb.near_zero, "zero")
    if sb.kind != "power":
        return True
    return _integrable_at(sb, n / (n - gamma))


def l1_integral_rule(fb, n: int, gamma: float) -> bool | None:
    """The L^1 endpoint: M_gamma maps L^1 into L^B exactly when
    int_0^inf B(s)/s^(q*+1) ds converges."""
    q_star = n / (n - gamma)
    zero = end_shape(fb.near_zero, "zero")
    inf = end_shape(fb.near_infinity, "infinity")
    at_zero = True if zero.kind != "power" else _integrable_at(zero, q_star)
    at_inf = False if inf.kind != "power" else _integrable_at(inf, q_star)
    if at_zero is False or at_inf is False:
        return False
    if at_zero and at_inf:
        return True
    return None


def target_lower_index(fa, n: int, gamma: float) -> float | None:
    """Lower Boyd index of A_gamma: the smaller end order of the target
    (+inf at an end where A reaches n/gamma).  None when A has no target."""
    if acond_rule(fa, n, gamma) is not True:
        return None
    r = n / gamma
    orders = []
    for end, pc in (("zero", fa.near_zero), ("infinity", fa.near_infinity)):
        s = end_shape(pc, end)
        if s.kind != "power" or s.order >= r - _EPS:
            orders.append(math.inf)
        else:
            orders.append(target_order(s.order, n, gamma))
    return min(orders)


def target_kind_rule(fa, n: int, gamma: float) -> str | None:
    """The optimal_target dichotomy: no target without the A-condition,
    otherwise optimal exactly when i(A_gamma) > q*."""
    acond = acond_rule(fa, n, gamma)
    if acond is None:
        return None
    if not acond:
        return "no-target-exists"
    # the gate is strict: an index equal to q* (A of order 1) has no optimum
    c = _cmp(target_lower_index(fa, n, gamma), n / (n - gamma))
    return "optimal" if c == 1 else "no-optimal-exists"


def domain_kind_rule(fb, n: int, gamma: float) -> str | None:
    conv = bconv_rule(fb, n, gamma)
    if conv is None:
        return None
    return "optimal" if conv else "no-domain-exists"


# ---------------------------------------------------------------------------
# numeric oracles that share no code with the library


def bisect_inverse(fn, s: np.ndarray, lo: float = 1e-60, hi: float = 1e60,
                   iters: int = 200) -> np.ndarray:
    """Right-continuous inverse sup{t : fn(t) <= s} of a nondecreasing
    vectorised ``fn``, by bisection in log t for every level at once."""
    s = np.asarray(s, dtype=float)
    llo = np.full_like(s, math.log(lo))
    lhi = np.full_like(s, math.log(hi))
    f_lo = np.asarray(fn(np.exp(llo)), dtype=float)
    f_hi = np.asarray(fn(np.exp(lhi)), dtype=float)
    for _ in range(iters):
        mid = 0.5 * (llo + lhi)
        ok = np.asarray(fn(np.exp(mid)), dtype=float) <= s
        llo = np.where(ok, mid, llo)
        lhi = np.where(ok, lhi, mid)
    out = np.exp(llo)
    out = np.where(f_lo > s, 0.0, out)
    return np.where(f_hi <= s, math.inf, out)


def maximal_2d_exhaustive(f: np.ndarray, gamma: float, cell: float = 1.0) -> np.ndarray:
    """Planar fractional maximal function by listing every in-grid k x k
    square: out[x] = max over squares Q containing x of
    |Q|^(gamma/2 - 1) * cell^2 * sum_Q f."""
    side = f.shape[0]
    out = np.zeros_like(f, dtype=float)
    for k in range(1, side + 1):
        weight = (k * cell) ** (gamma - 2.0) * cell ** 2
        for i in range(side - k + 1):
            for j in range(side - k + 1):
                val = weight * float(f[i:i + k, j:j + k].sum())
                block = out[i:i + k, j:j + k]
                np.maximum(block, val, out=block)
    return out


def classical_rule(fa, fb, n: int, gamma: float) -> bool | None:
    """``bounded_rule`` plus the classical borderline answer for matched
    power-log spaces: L^p (log L)^a maps into L^q (log L)^b with
    q = np/(n - gamma p), 1 < p < n/gamma, exactly when b <= a n/(n - gamma p)
    (the explicit target t^q l(t)^(a n/(n - gamma p)))."""
    rule = bounded_rule(fa, fb, n, gamma)
    if rule is not None:
        return rule
    shapes = []
    for f in (fa, fb):
        zero = end_shape(f.near_zero, "zero")
        inf = end_shape(f.near_infinity, "infinity")
        same = (zero.kind == inf.kind == "power" and zero.order == inf.order
                and zero.alpha == inf.alpha and not (zero.explog or zero.loglog
                                                     or inf.explog or inf.loglog))
        if not same:
            return None
        shapes.append(zero)
    sa, sb = shapes
    p = sa.order
    if not (1.0 + _EPS < p < n / gamma - _EPS):
        return None
    if _cmp(sb.order, target_order(p, n, gamma)) is not None:
        return None
    return sb.alpha <= sa.alpha * n / (n - gamma * p) + _EPS


def _log_piece(piece, u: np.ndarray) -> np.ndarray:
    total = np.zeros_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in piece.factors:
            name = type(f).__name__
            if name == "PowerFactor":
                if math.isinf(f.p):
                    term = np.where(u < 0, -np.inf, np.where(u > 0, np.inf, 0.0))
                else:
                    term = f.p * u
            elif name == "LogFactor":
                term = f.alpha * np.log1p(np.abs(u))
            elif name == "LogLogFactor":
                term = f.alpha * np.log1p(np.log1p(np.abs(u)))
            elif name == "ExpLogFactor":
                term = f.coef * np.abs(u) ** f.power
            elif name == "ExpPowerFactor":
                term = f.coef * np.exp(f.power * u)
            elif name == "ConstFactor":
                term = np.full_like(u, -np.inf if f.value == 0.0 else np.inf)
            else:
                raise ValueError(f"unknown factor {name}")
            total = total + term
    return total


def evaluate(family, t) -> np.ndarray:
    """The closed-form profile at t > 0, from its factors: the zero piece on
    (0, 1], the infinity piece beyond."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u = np.log(t)
    logv = np.where(u <= 0, _log_piece(family.near_zero, u),
                    _log_piece(family.near_infinity, u))
    with np.errstate(over="ignore"):
        return np.exp(logv)
