"""Closed-form asymptotic profiles for Young functions.

A profile has one product-form piece valid on (0, 1] and another on (1, inf).
Admissible factors: finite powers t**p, powers of l(t) = 1 + |log t| and of
l(l(t)), exponentials of |log t|**kappa (e.g. the exp(+-c sqrt(log))
modifiers) and exponentials of t**beta (the exponential-type spaces).  Every
factor evaluates to 1 at t = 1, so pieces join continuously; the jumps of
L-infinity-type profiles are two constant pieces (``linf``).

All evaluation happens in log space, which keeps t**15 at t = 1e10 or
exp(t**1.5) finite or cleanly saturated at +inf.  The exact end tests read
the factor exponents instead, through one reader, ``AsymPiece.profile``, and
compare them order by order through one tie-band rule, `lex_sign`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_CLIP = 700.0
# |log t| < 745.2 for every positive double t, and the t-parts of l(t),
# l(l(t)) and |log t|**k (k <= 1) are smaller still, so the log value of a
# piece of k factors can overflow only when a coefficient is above this / k
_P_OVERFLOW = 2e305


def _finite_exp(logv: np.ndarray) -> np.ndarray:
    out = np.where(logv > _CLIP, np.inf, np.exp(np.minimum(logv, _CLIP)))
    return np.where(logv == -np.inf, 0.0, out)


@dataclass(frozen=True)
class EndProfile:
    """Leading behaviour of a Young function toward one end of (0, inf).

    kind: "power" (t**q l(t)**alpha l(l(t))**loglog_exponent), "plateau-zero"
    (identically 0 up to a threshold) or "plateau-infinity" (jumps to +inf at
    a threshold).  An ``exact`` profile is built by ``AsymPiece.profile``
    from a closed form's piece: q is its effective power, alpha its l(t)
    exponent (+-inf when an exp(|log t|**k) factor outgrows every l(t)
    power), loglog_exponent its l(l(t)) exponent, and ``exp_beta`` the power
    of an exp(t**beta) factor (q is +-inf then).  A fitted one comes from the
    table's edge decades (``young.gridfn_profile``): alpha is a local l(t)
    exponent there and no l(l(t)) level is read.
    """

    kind: str
    q: float = 0.0
    alpha: float = 0.0
    exp_beta: float = 0.0
    threshold: float = 0.0
    exact: bool = False
    loglog_exponent: float = 0.0

    def render(self) -> str:
        if self.kind == "plateau-zero":
            return f"0 on (0,{self.threshold:.6g}]"
        if self.kind == "plateau-infinity":
            return f"inf beyond {self.threshold:.6g}"
        body = f"t^{self.q:.6g}"
        if self.alpha and np.isfinite(self.alpha) and abs(self.alpha) > 1e-9:
            body += f" l(t)^{self.alpha:.6g}"
        return body


@dataclass(frozen=True)
class PowerFactor:
    """t**p for a finite p."""

    p: float

    def __post_init__(self):
        if not math.isfinite(self.p):
            raise ValueError(f"a power factor needs a finite exponent, got {self.p}")

    def log_value(self, u: np.ndarray, scale: float = 1.0) -> np.ndarray:
        return self.p / scale * u

    def render(self) -> str:
        return f"t^{_fmt(self.p)}"


@dataclass(frozen=True)
class LogFactor:
    """l(t)**alpha with l(t) = 1 + |log t|."""

    alpha: float

    def log_value(self, u: np.ndarray, scale: float = 1.0) -> np.ndarray:
        return self.alpha / scale * np.log1p(np.abs(u))

    def render(self) -> str:
        return f"l(t)^{_fmt(self.alpha)}"


@dataclass(frozen=True)
class LogLogFactor:
    """l(l(t))**alpha."""

    alpha: float

    def log_value(self, u: np.ndarray, scale: float = 1.0) -> np.ndarray:
        return self.alpha / scale * np.log1p(np.log1p(np.abs(u)))

    def render(self) -> str:
        return f"ll(t)^{_fmt(self.alpha)}"


@dataclass(frozen=True)
class ExpLogFactor:
    """exp(coef * |log t|**power); power in (0, 1) keeps it sub-polynomial."""

    coef: float
    power: float = 0.5

    def log_value(self, u: np.ndarray, scale: float = 1.0) -> np.ndarray:
        return self.coef / scale * np.abs(u) ** self.power

    def render(self) -> str:
        sign = "+" if self.coef >= 0 else "-"
        return f"exp({sign} {_fmt(abs(self.coef))} sqrtlog)"


@dataclass(frozen=True)
class ExpPowerFactor:
    """exp(coef * t**power): superpolynomial growth or flatness."""

    coef: float
    power: float

    def log_value(self, u: np.ndarray, scale: float = 1.0) -> np.ndarray:
        with np.errstate(over="ignore"):
            tp = np.exp(np.minimum(self.power * u, _CLIP))
            tp = np.where(self.power * u > _CLIP, np.inf, tp)
        return self.coef / scale * tp

    def render(self) -> str:
        return f"exp({_fmt(self.coef)}*t^{_fmt(self.power)})"


@dataclass(frozen=True)
class ConstFactor:
    """The constant pieces 0 and +inf."""

    value: float  # 0.0 or inf

    def log_value(self, u: np.ndarray, scale: float = 1.0) -> np.ndarray:
        fill = -np.inf if self.value == 0.0 else np.inf
        return np.full_like(np.asarray(u, dtype=float), fill)

    def render(self) -> str:
        return "0" if self.value == 0.0 else "inf"


Factor = PowerFactor | LogFactor | LogLogFactor | ExpLogFactor | ExpPowerFactor | ConstFactor


def _coefficient(f: Factor) -> float:
    """The multiplier of a factor's t-part in its log value; 0 for the
    constants, whose log values are +-inf."""
    c = getattr(f, "p", getattr(f, "alpha", getattr(f, "coef", 0.0)))
    return c if math.isfinite(c) else 0.0


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
        scale = self._log_scale
        total = np.zeros_like(u)
        for f in self.factors:
            total = total + f.log_value(u, scale)
        if scale == 1.0:
            return total
        with np.errstate(over="ignore"):  # a log value past double range is +-inf
            return total * scale

    @cached_property
    def _log_scale(self) -> float:
        """1, or the largest coefficient when the log value could overflow: the
        factors then add their log values over it, so that t**1e308 t**-1e308
        is 1, not exp(inf - inf)."""
        big = max(abs(_coefficient(f)) for f in self.factors)
        return big if big * len(self.factors) >= _P_OVERFLOW else 1.0

    def value(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            u = np.log(np.asarray(t, dtype=float))
        return _finite_exp(self.log_value(u))

    def profile(self, end: str) -> EndProfile:
        """The exact end profile toward ``end`` ("zero" or "infinity"), read
        from the factors.

        A constant piece is a plateau.  Otherwise the first exp(t**beta)
        factor active at this end (beta > 0 toward infinity, < 0 toward
        zero) makes q +inf (steeper than any power near infinity, flatter
        near zero) or -inf, with exp_beta = beta; else q, alpha and
        loglog_exponent are the summed t, l(t) and l(l(t)) exponents, and
        alpha is +-inf, signed by its coefficient, when the exp(|log t|**k)
        factors of the largest live k > 0 do not cancel (the l(l(t)) level
        is not read then).
        """
        const = next((f for f in self.factors if isinstance(f, ConstFactor)), None)
        if const is not None:
            kind = "plateau-zero" if const.value == 0.0 else "plateau-infinity"
            return EndProfile(kind, exact=True)
        q = alpha = loglog = 0.0
        explogs: dict[float, float] = {}
        for f in self.factors:
            if isinstance(f, ExpPowerFactor):
                if (f.power > 0) if end == "infinity" else (f.power < 0):
                    up = f.coef > 0 if end == "infinity" else f.coef < 0
                    return EndProfile("power", math.inf if up else -math.inf,
                                      exp_beta=f.power, exact=True)
            elif isinstance(f, PowerFactor):
                q += f.p
            elif isinstance(f, LogFactor):
                alpha += f.alpha
            elif isinstance(f, LogLogFactor):
                loglog += f.alpha
            elif isinstance(f, ExpLogFactor):
                explogs[f.power] = explogs.get(f.power, 0.0) + f.coef
        live = [(k, c) for k, c in explogs.items() if c]
        if live and max(live)[0] > 0:
            return EndProfile("power", q, math.copysign(math.inf, max(live)[1]),
                              exact=True)
        return EndProfile("power", q, alpha, exact=True, loglog_exponent=loglog)

    def power_log_parts(self) -> tuple[float, float, float, list[ExpLogFactor]] | None:
        """(q, alpha, llog, explogs): the summed t, l(t) and l(l(t)) exponents
        and the exp-log factors; None when another kind of factor is present."""
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
        # each piece on its own half only, and not at all on an empty half
        out = np.empty_like(u)
        low = u <= 0
        for pc, half in ((self.near_zero, low), (self.near_infinity, ~low)):
            if half.any():
                out[half] = _finite_exp(pc.log_value(u[half]))
        out[t == 0.0] = 0.0
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
    p = pc.profile(end)
    if p.kind != "power":
        return piece(PowerFactor(1.0))
    if math.isinf(p.q):
        if any(not isinstance(f, ExpPowerFactor) for f in pc.factors):
            return None
        return piece(PowerFactor(1.0), LogFactor(1.0 / p.exp_beta))
    parts = pc.power_log_parts()
    if parts is None:
        return None
    q, alpha, llog, explogs = parts
    tie = (1e-12,)
    order = lex_sign((q - 1.0,), tie)
    if order > 0:
        qq = q - 1.0
        factors: list[Factor] = [PowerFactor(q / qq)]
        if alpha:
            factors.append(LogFactor(-alpha / qq))
        if llog:
            factors.append(LogLogFactor(-llog / qq))
        for f in explogs:
            try:
                scale = qq ** (1.0 + f.power)
            except OverflowError:  # the coefficient is below double range: 0
                scale = math.inf
            factors.append(ExpLogFactor(-f.coef / scale, f.power))
        return AsymPiece(tuple(factors))
    if order == 0 and not llog and not explogs:
        # t l(t)**alpha: the conjugate jumps where alpha = 0, and is of
        # exponential type where l(t)**alpha grows toward the end
        sign = -1.0 if end == "zero" else 1.0
        grows = lex_sign((sign * alpha,), tie)
        if grows == 0:
            return piece(ConstFactor(0.0 if end == "zero" else math.inf))
        if grows > 0:
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
