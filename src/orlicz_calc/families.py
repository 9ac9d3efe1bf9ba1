"""Closed-form asymptotic profiles for Young functions.

A profile has one product-form piece valid on (0, 1] and another on (1, inf).
Admissible factors: powers t**p (p may be +inf, encoding a jump to infinity),
powers of l(t) = 1 + |log t| and of l(l(t)), exponentials of |log t|**kappa
(e.g. the exp(+-c sqrt(log)) modifiers) and exponentials of t**beta (the
exponential-type spaces).  Every factor evaluates to 1 at t = 1, so pieces
join continuously except for explicit constant pieces.

All evaluation happens in log space, which keeps t**15 at t = 1e10 or
exp(t**1.5) finite or cleanly saturated at +inf.  The same log-space forms
are evaluable at astronomically large |log t|, which is what the exact
limit-classification helpers (`compare_growth`, `limit_sign`) exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CLIP = 700.0


def _finite_exp(logv: np.ndarray) -> np.ndarray:
    out = np.where(logv > _CLIP, np.inf, np.exp(np.minimum(logv, _CLIP)))
    return np.where(logv == -np.inf, 0.0, out)


@dataclass(frozen=True)
class PowerFactor:
    """t**p; p = +inf encodes the L-infinity-type jump at t = 1."""

    p: float

    def log_value(self, u: np.ndarray) -> np.ndarray:
        if math.isinf(self.p):
            return np.where(u < 0, -np.inf, np.where(u > 0, np.inf, 0.0))
        return self.p * u

    def render(self) -> str:
        return f"t^{_fmt(self.p)}"


@dataclass(frozen=True)
class LogFactor:
    """l(t)**alpha with l(t) = 1 + |log t|."""

    alpha: float

    def log_value(self, u: np.ndarray) -> np.ndarray:
        return self.alpha * np.log1p(np.abs(u))

    def render(self) -> str:
        return f"l(t)^{_fmt(self.alpha)}"


@dataclass(frozen=True)
class LogLogFactor:
    """l(l(t))**alpha."""

    alpha: float

    def log_value(self, u: np.ndarray) -> np.ndarray:
        return self.alpha * np.log1p(np.log1p(np.abs(u)))

    def render(self) -> str:
        return f"ll(t)^{_fmt(self.alpha)}"


@dataclass(frozen=True)
class ExpLogFactor:
    """exp(coef * |log t|**power); power in (0, 1) keeps it sub-polynomial."""

    coef: float
    power: float = 0.5

    def log_value(self, u: np.ndarray) -> np.ndarray:
        return self.coef * np.abs(u) ** self.power

    def render(self) -> str:
        sign = "+" if self.coef >= 0 else "-"
        return f"exp({sign} {_fmt(abs(self.coef))} sqrtlog)"


@dataclass(frozen=True)
class ExpPowerFactor:
    """exp(coef * t**power): superpolynomial growth or flatness."""

    coef: float
    power: float

    def log_value(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            tp = np.exp(np.minimum(self.power * u, _CLIP))
            tp = np.where(self.power * u > _CLIP, np.inf, tp)
        return self.coef * tp

    def render(self) -> str:
        return f"exp({_fmt(self.coef)}*t^{_fmt(self.power)})"


@dataclass(frozen=True)
class ConstFactor:
    """The constant pieces 0 and +inf."""

    value: float  # 0.0 or inf

    def log_value(self, u: np.ndarray) -> np.ndarray:
        fill = -np.inf if self.value == 0.0 else np.inf
        return np.full_like(np.asarray(u, dtype=float), fill)

    def render(self) -> str:
        return "0" if self.value == 0.0 else "inf"


Factor = PowerFactor | LogFactor | LogLogFactor | ExpLogFactor | ExpPowerFactor | ConstFactor


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(round(x, 12))


@dataclass(frozen=True)
class AsymPiece:
    """Product of factors, evaluated on one half-domain."""

    factors: tuple[Factor, ...]

    def log_value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        total = np.zeros_like(u)
        for f in self.factors:
            total = total + f.log_value(u)
        return total

    def value(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            u = np.log(np.asarray(t, dtype=float))
        return _finite_exp(self.log_value(u))

    # -- structural descriptors, used for exact limit decisions -------------

    def effective_power(self, end: str) -> float:
        """lim log f(t) / log t toward the given end ("zero" or "infinity").

        +inf means flatter than any power near zero / steeper than any power
        near infinity.
        """
        total = 0.0
        for f in self.factors:
            if isinstance(f, PowerFactor):
                total += f.p
            elif isinstance(f, ExpPowerFactor):
                if end == "infinity" and f.power > 0:
                    return math.inf if f.coef > 0 else -math.inf
                if end == "zero" and f.power < 0:
                    return math.inf if f.coef < 0 else -math.inf
            elif isinstance(f, ConstFactor):
                if f.value == 0.0:
                    return math.inf if end == "zero" else -math.inf
                return -math.inf if end == "zero" else math.inf
        return total

    def log_exponent(self, end: str) -> float:
        """Effective exponent on l(t); +-inf when an exp-log factor dominates."""
        total = 0.0
        explog = 0.0
        for f in self.factors:
            if isinstance(f, LogFactor):
                total += f.alpha
            elif isinstance(f, ExpLogFactor) and f.power > 0:
                explog += f.coef
        if explog:
            return math.inf if explog > 0 else -math.inf
        return total

    def loglog_exponent(self) -> float:
        return sum(f.alpha for f in self.factors if isinstance(f, LogLogFactor))

    def explog(self) -> tuple[float, float]:
        """Net (coef, power) of exp(|log t|**power) factors; (0, 0) if none."""
        coefs: dict[float, float] = {}
        for f in self.factors:
            if isinstance(f, ExpLogFactor):
                coefs[f.power] = coefs.get(f.power, 0.0) + f.coef
        live = [(p, c) for p, c in coefs.items() if c]
        if not live:
            return (0.0, 0.0)
        p, c = max(live)
        return (c, p)

    def exppower(self, end: str) -> tuple[float, float]:
        """Net (coef, power) of the exp(t**power) factor active at this end."""
        for f in self.factors:
            if isinstance(f, ExpPowerFactor):
                if (end == "infinity" and f.power > 0) or (end == "zero" and f.power < 0):
                    return (f.coef, f.power)
        return (0.0, 0.0)

    def is_const(self) -> float | None:
        for f in self.factors:
            if isinstance(f, ConstFactor):
                return f.value
        return None

    def render(self) -> str:
        return " ".join(f.render() for f in self.factors)


@dataclass(frozen=True)
class AsymptoticFamily:
    """Closed-form profile: near_zero on (0, 1], near_infinity on (1, inf)."""

    near_zero: AsymPiece
    near_infinity: AsymPiece

    def piece(self, end: str) -> AsymPiece:
        return self.near_zero if end == "zero" else self.near_infinity

    def value(self, t) -> np.ndarray | float:
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore"):
            u = np.log(t)
        out = np.where(u <= 0, _finite_exp(self.near_zero.log_value(u)),
                       _finite_exp(self.near_infinity.log_value(u)))
        out = np.where(t == 0.0, 0.0, out)
        return float(out[0]) if scalar else out

    def log_value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where(u <= 0, self.near_zero.log_value(u),
                        self.near_infinity.log_value(u))

    def render(self) -> str:
        z, i = self.near_zero.render(), self.near_infinity.render()
        if z == i:
            return z
        return f"{z} @0 | {i} @inf"


# -- constructors ------------------------------------------------------------


def piece(*factors: Factor) -> AsymPiece:
    return AsymPiece(tuple(factors))


def lp(p: float) -> AsymptoticFamily:
    """Power profile t**p (Lebesgue space of exponent p)."""
    if p < 1:
        raise ValueError("need p >= 1 for a Young function")
    pc = piece(PowerFactor(p))
    return AsymptoticFamily(pc, pc)


def l1() -> AsymptoticFamily:
    return lp(1.0)


def linf() -> AsymptoticFamily:
    """0 on (0, 1], +inf beyond: the L-infinity profile."""
    return AsymptoticFamily(piece(ConstFactor(0.0)), piece(ConstFactor(math.inf)))


def zygmund(p0: float, a0: float, pinf: float, ainf: float) -> AsymptoticFamily:
    """t**p0 l(t)**a0 near zero, t**pinf l(t)**ainf near infinity.

    Parameter constraints: each power >= 1; a power equal to 1 forces the log
    exponent to keep the profile equivalent to a Young function (<= 0 near
    zero, >= 0 near infinity).
    """
    if p0 < 1 or pinf < 1:
        raise ValueError("powers must be >= 1")
    if p0 == 1 and a0 > 0:
        raise ValueError("p0 = 1 requires alpha0 <= 0")
    if pinf == 1 and ainf < 0:
        raise ValueError("pinf = 1 requires alpha_inf >= 0")
    return AsymptoticFamily(piece(PowerFactor(p0), LogFactor(a0)),
                            piece(PowerFactor(pinf), LogFactor(ainf)))


def exp_type(b0: float, binf: float) -> AsymptoticFamily:
    """exp(-t**b0) near zero (b0 < 0), exp(t**binf) near infinity (binf > 0)."""
    if not (b0 < 0 < binf):
        raise ValueError("need b0 < 0 < binf")
    return AsymptoticFamily(piece(ExpPowerFactor(-1.0, b0)),
                            piece(ExpPowerFactor(1.0, binf)))


def power_sqrtlog(p0: float, c0: float, pinf: float, cinf: float) -> AsymptoticFamily:
    """t**p0 exp(c0 sqrt(log 1/t)) near zero, t**pinf exp(cinf sqrt(log t)) near infinity."""
    if p0 < 1 or pinf < 1:
        raise ValueError("powers must be >= 1")
    return AsymptoticFamily(piece(PowerFactor(p0), ExpLogFactor(c0)),
                            piece(PowerFactor(pinf), ExpLogFactor(cinf)))


# -- conjugation at the factor level ------------------------------------------


def conjugate_piece(pc: AsymPiece, end: str) -> AsymPiece | None:
    """Closed-form Young conjugate of a product piece, or None if unmapped.

    For q > 1 the Legendre pairing sends t**q l**a ll**b exp(c |log|**k) to
    t**q' l**(-a/(q-1)) ll**(-b/(q-1)) exp(-c/(q-1)**(1+k) |log|**k) with
    q' = q/(q-1); degenerate orders map to the exponential / constant pieces.
    """
    const = pc.is_const()
    if const is not None:
        return piece(PowerFactor(1.0))
    c_ep, beta = pc.exppower(end)
    if c_ep:
        if any(not isinstance(f, ExpPowerFactor) for f in pc.factors):
            return None
        return piece(PowerFactor(1.0), LogFactor(1.0 / beta))
    q = 0.0
    alpha = 0.0
    llog = 0.0
    explogs: list[ExpLogFactor] = []
    for f in pc.factors:
        if isinstance(f, PowerFactor):
            q += f.p
        elif isinstance(f, LogFactor):
            alpha += f.alpha
        elif isinstance(f, LogLogFactor):
            llog += f.alpha
        elif isinstance(f, ExpLogFactor):
            explogs.append(f)
        else:
            return None
    if math.isinf(q):
        return piece(PowerFactor(1.0))
    if q > 1.0:
        qq = q - 1.0
        factors: list[Factor] = [PowerFactor(q / qq)]
        if alpha:
            factors.append(LogFactor(-alpha / qq))
        if llog:
            factors.append(LogLogFactor(-llog / qq))
        for f in explogs:
            factors.append(ExpLogFactor(-f.coef / qq ** (1.0 + f.power), f.power))
        return AsymPiece(tuple(factors))
    if abs(q - 1.0) < 1e-12 and not llog and not explogs:
        if alpha == 0.0:
            return piece(ConstFactor(0.0 if end == "zero" else math.inf))
        if (end == "zero" and alpha < 0) or (end == "infinity" and alpha > 0):
            sign = -1.0 if end == "zero" else 1.0
            return piece(ExpPowerFactor(sign, 1.0 / alpha))
    return None


def conjugate_family(family: AsymptoticFamily) -> AsymptoticFamily | None:
    z = conjugate_piece(family.near_zero, "zero")
    i = conjugate_piece(family.near_infinity, "infinity")
    if z is None or i is None:
        return None
    return AsymptoticFamily(z, i)


# -- exact asymptotic comparisons --------------------------------------------

_LADDER = (1e8, 1e16, 1e32, 1e64)


def limit_sign(pc: AsymPiece, power_shift: float, end: str) -> int:
    """Sign of lim f(t) * t**power_shift toward the end: -1 -> 0, 0 -> positive
    finite, +1 -> +infinity.

    Decided structurally from the factor exponents (exact for every profile
    this module can build).
    """
    ep = pc.effective_power(end) + power_shift
    # near zero t**e -> 0 when e > 0; near infinity -> infinity when e > 0
    if ep > 1e-12:
        return -1 if end == "zero" else 1
    if ep < -1e-12:
        return 1 if end == "zero" else -1
    le = pc.log_exponent(end)
    if le > 1e-12:
        return 1  # l(t) -> inf at both ends
    if le < -1e-12:
        return -1
    lle = pc.loglog_exponent()
    if lle > 1e-12:
        return 1
    if lle < -1e-12:
        return -1
    return 0


def integrable(pc: AsymPiece, weight: float, end: str) -> bool:
    """Does the integral of pc(s) * s**weight ds converge toward the end?

    Decided from the factor exponents: the power against the critical
    -1 - weight, then at the critical power the l(t) exponent against -1,
    then the l(l(t)) exponent against -1.
    """
    tol = 1e-9
    gap = pc.effective_power(end) + weight + 1.0  # > 0 converges at zero
    if end == "infinity":
        gap = -gap
    if math.isinf(gap) or abs(gap) > tol:
        return gap > 0
    alpha = pc.log_exponent(end)
    if math.isinf(alpha) or abs(alpha + 1.0) > tol:
        return alpha < -1.0
    return pc.loglog_exponent() < -1.0 - tol


def compare_growth(a: AsymPiece, b: AsymPiece, end: str) -> int:
    """Is a(t)/b(lambda t) unbounded toward the end, for every lambda >= 1?

    Returns +1 (unbounded), -1 (tends to zero for large lambda), 0 (comparable).
    Exact for the factor algebra: exp(t**beta) scales beat everything and are
    compared by beta (coefficients lose to the lambda-inflation), then powers,
    then exp(|log|**kappa) corrections, then l, then l(l).
    """
    ca, beta_a = a.exppower(end)
    cb, beta_b = b.exppower(end)
    ea, eb = a.effective_power(end), b.effective_power(end)
    if math.isinf(ea) or math.isinf(eb):
        if not (math.isinf(ea) and math.isinf(eb)):
            bigger_a = ea > eb if end == "infinity" else ea < eb
            return 1 if bigger_a else -1
        # both superpolynomial (or superflat): compare the exp(t**beta) scales;
        # near zero the flatter one (more negative beta) is the smaller function
        if beta_a != beta_b:
            if end == "infinity":
                return 1 if beta_a > beta_b else -1
            return 1 if beta_b < beta_a else -1
        return -1 if (ca or cb) else 0
    if abs(ea - eb) > 1e-12:
        bigger_a = ea > eb if end == "infinity" else ea < eb
        return 1 if bigger_a else -1
    # equal polynomial order: sub-polynomial corrections survive any lambda
    (xa, ka), (xb, kb) = a.explog(), b.explog()
    if (xa, ka) != (xb, kb):
        if ka == kb:
            return 1 if xa > xb else -1
        # the factor with the larger |log|-power dominates; its sign decides
        if ka > kb:
            return 1 if xa > 0 else -1
        return -1 if xb > 0 else 1
    la, lb = a.log_exponent(end), b.log_exponent(end)
    if abs(la - lb) > 1e-12 and not (math.isinf(la) or math.isinf(lb)):
        return 1 if la > lb else -1
    lla, llb = a.loglog_exponent(), b.loglog_exponent()
    if abs(lla - llb) > 1e-12:
        return 1 if lla > llb else -1
    return 0
