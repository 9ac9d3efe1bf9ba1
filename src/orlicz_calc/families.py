"""Closed-form asymptotic profiles for Young functions.

A profile has one product-form piece valid on (0, 1] and another on (1, inf).
Admissible factors: powers t**p (p may be +inf, encoding a jump to infinity),
powers of l(t) = 1 + |log t| and of l(l(t)), exponentials of |log t|**kappa
(e.g. the exp(+-c sqrt(log)) modifiers) and exponentials of t**beta (the
exponential-type spaces).  Every factor evaluates to 1 at t = 1, so pieces
join continuously except for explicit constant pieces.

All evaluation happens in log space, which keeps t**15 at t = 1e10 or
exp(t**1.5) finite or cleanly saturated at +inf.  The exact end comparisons
(`limit_sign`, `integrable`, `compare_growth`) read the factor exponents
instead, order by order through one tie-band rule, `lex_sign`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CLIP = 700.0
# |log t| < 745.2 for every positive double t, so p log t can overflow only
# for |p| above this
_P_OVERFLOW = 2e305


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
        if abs(self.p) < _P_OVERFLOW:
            return self.p * u
        with np.errstate(over="ignore"):  # a log value past double range is +-inf
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
        """Effective exponent on l(t); +-inf when an exp-log factor dominates,
        signed by the net coefficient at the largest live |log t| power."""
        coef, power = self.explog()
        if coef and power > 0:
            return math.copysign(math.inf, coef)
        return self.l_exponent()

    def l_exponent(self) -> float:
        """Summed exponent of the l(t) factors."""
        return sum(f.alpha for f in self.factors if isinstance(f, LogFactor))

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

    def power_log_parts(self) -> tuple[float, float, float, list[ExpLogFactor]] | None:
        """(q, alpha, llog, explogs): the summed t, l(t) and l(l(t)) exponents
        and the exp-log factors; None when another kind of factor is present.
        q is +inf for a power jump."""
        q, alpha, llog = 0.0, 0.0, 0.0
        explogs: list[ExpLogFactor] = []
        for f in self.factors:
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
        return q, alpha, llog, explogs

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
    parts = pc.power_log_parts()
    if parts is None:
        return None
    q, alpha, llog, explogs = parts
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


def lex_sign(gaps, tols) -> int:
    """Sign of the first gap outside its tie band [-tol, tol]; 0 when every
    gap ties.  A NaN gap is a tie."""
    for gap, tol in zip(gaps, tols):
        if gap > tol:
            return 1
        if gap < -tol:
            return -1
    return 0


def limit_sign(pc: AsymPiece, power_shift: float, end: str) -> int:
    """Sign of lim f(t) * t**power_shift toward the end: -1 -> 0, 0 -> positive
    finite, +1 -> +infinity.

    Decided structurally from the factor exponents (exact for every profile
    this module can build): the power, then the l(t) and l(l(t)) exponents.
    """
    # near zero t**e -> 0 when e > 0; near infinity -> infinity when e > 0;
    # l(t) -> inf at both ends
    flip = 1.0 if end == "infinity" else -1.0
    return lex_sign((flip * (pc.effective_power(end) + power_shift),
                     pc.log_exponent(end), pc.loglog_exponent()), (1e-12,) * 3)


def integrable(pc: AsymPiece, weight: float, end: str) -> bool:
    """Does the integral of pc(s) * s**weight ds converge toward the end?

    Decided from the factor exponents: the power against the critical
    -1 - weight, then at the critical power the l(t) exponent against -1,
    then the l(l(t)) exponent against -1; a tie diverges.
    """
    flip = 1.0 if end == "zero" else -1.0
    return lex_sign((flip * (pc.effective_power(end) + weight + 1.0),
                     -1.0 - pc.log_exponent(end), -1.0 - pc.loglog_exponent()),
                    (1e-9,) * 3) > 0


def compare_growth(a: AsymPiece, b: AsymPiece, end: str) -> int:
    """Is a(t)/b(lambda t) unbounded toward the end, for every lambda >= 1?

    Returns +1 (unbounded), -1 (tends to zero for large lambda), 0 (comparable).
    Exact for the factor algebra: a constant piece 0 lies below and inf above
    every other piece; exp(t**beta) scales beat everything else and are
    compared by beta (coefficients lose to the lambda-inflation), then powers,
    then exp(|log|**kappa) corrections, then l, then l(l).
    """
    ca, cb = a.is_const(), b.is_const()
    if ca is not None or cb is not None:
        # rank 0 < positive finite < inf; two equal constants are comparable
        ra, rb = (0 if c is None else 1 if math.isinf(c) else -1 for c in (ca, cb))
        return (ra > rb) - (ra < rb)
    ea, eb = a.effective_power(end), b.effective_power(end)
    if math.isinf(ea) and math.isinf(eb):
        # both superpolynomial (or superflat): at both ends the larger beta
        # is the larger function (near zero the more negative, the flatter)
        (ca, beta_a), (cb, beta_b) = a.exppower(end), b.exppower(end)
        if beta_a != beta_b:
            return 1 if beta_a > beta_b else -1
        return -1 if (ca or cb) else 0
    # sub-polynomial corrections survive any lambda; of two exp-log factors
    # the one with the larger |log|-power dominates and its sign decides.
    # Only once they tie do the l(t) exponents compare, as plain sums:
    # log_exponent is infinite for both pieces when they share an exp-log factor
    (xa, ka), (xb, kb) = a.explog(), b.explog()
    dx = xa - xb if ka == kb else (xa if ka > kb else -xb)
    flip = 1.0 if end == "infinity" else -1.0
    return lex_sign((flip * (ea - eb), dx, a.l_exponent() - b.l_exponent(),
                     a.loglog_exponent() - b.loglog_exponent()),
                    (1e-12, 0.0, 1e-12, 1e-12))
