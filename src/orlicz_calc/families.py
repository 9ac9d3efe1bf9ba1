"""Closed-form asymptotic profiles for Young functions.

A profile has one product-form piece valid on (0, 1] and another on (1, inf).
Admissible factors: finite powers t**p, powers of l(t) = 1 + |log t| and of
l(l(t)), exponentials of |log t|**kappa (e.g. the exp(+-c sqrt(log))
modifiers) and exponentials of t**beta (the exponential-type spaces).  Every
factor evaluates to 1 at t = 1, so pieces join continuously; the jumps of
L-infinity-type profiles are two constant pieces (``linf``).

All evaluation happens in log space, which keeps t**15 at t = 1e10 or
exp(t**1.5) finite or cleanly saturated at +inf.  The exact end tests read
the factor exponents instead, through one reader, ``AsymPiece.exponents``,
and compare them order by order through one tie-band rule, `lex_sign`.

The closed-form hints of ``transforms`` and the conjugate here compose four
maps on an end's exponents, ``inverse``, ``times``, ``running_sup`` and
``prefix_integral`` (Bingham, Goldie and Teugels, *Regular Variation*, 1987).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

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
    a threshold).  An ``exact`` profile is read from a closed form's piece:
    q is its effective power, alpha its l(t) exponent, loglog_exponent its
    l(l(t)) exponent, ``explogs`` its exp(c / d**(1+k) |log t|**k) factors as
    (k, c, d), and ``exp_beta`` the power of an exp(t**beta) factor (q is
    +-inf then).  A fitted one comes from the table's edge decades
    (``young.gridfn_profile``): alpha is a local l(t) exponent there and no
    l(l(t)) level is read.
    """

    kind: str
    q: float = 0.0
    alpha: float = 0.0
    exp_beta: float = 0.0
    threshold: float = 0.0
    exact: bool = False
    loglog_exponent: float = 0.0
    explogs: tuple[tuple[float, float, float], ...] = ()

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
        level = "sqrtlog" if self.power == 0.5 else f"|log t|^{_fmt(self.power)}"
        return f"exp({sign} {_fmt(abs(self.coef))} {level})"


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
    r = round(x, 12)
    if r == int(r) and abs(r) < 1e15:
        return str(int(r))
    return repr(r)


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

    def exponents(self, end: str) -> EndProfile:
        """The exact exponents toward ``end`` ("zero" or "infinity"), read
        from the factors.

        A constant piece is a plateau.  Otherwise the first exp(t**beta)
        factor active at this end (beta > 0 toward infinity, < 0 toward
        zero) makes q +inf (steeper than any power near infinity, flatter
        near zero) or -inf, with exp_beta = beta; else q, alpha and
        loglog_exponent are the summed t, l(t) and l(l(t)) exponents, and
        each exp(c |log t|**k) factor is listed as (k, c, 1).
        """
        const = next((f for f in self.factors if isinstance(f, ConstFactor)), None)
        if const is not None:
            kind = "plateau-zero" if const.value == 0.0 else "plateau-infinity"
            return EndProfile(kind, exact=True)
        q = alpha = loglog = 0.0
        explogs = []
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
                explogs.append((f.power, f.coef, 1))
        return EndProfile("power", q, alpha, exact=True, loglog_exponent=loglog,
                          explogs=tuple(explogs))

    def profile(self, end: str) -> EndProfile:
        """The exact end profile that the end tests read: ``exponents`` with
        alpha +-inf, signed by the coefficient, when the exp(|log t|**k)
        factors of the largest live k > 0 do not cancel (no l(l(t)) level)."""
        p = self.exponents(end)
        lead = _leading(p.explogs)
        if lead:
            return EndProfile("power", p.q, math.copysign(math.inf, lead), exact=True)
        return replace(p, explogs=()) if p.explogs else p

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


# -- the end-profile algebra ---------------------------------------------------
# Each map gives the exponents of the transformed function toward the same
# end, up to equivalence, or None where it has no closed form here (and None
# for None, so that maps compose).  Floats and Fractions alike: a hint maps
# ``rational`` exponents, so that ``realize`` rounds each composite once.

ENDS = ("zero", "infinity")

# the tie bands of fitted profiles: power, then l(t) exponent
_Q_TOL = 1e-3
_A_TOL = 0.05
_Q_SUPER = 25.0  # orders this large are treated as superpolynomial


def _bands(*profiles: EndProfile, fitted=(_Q_TOL, _A_TOL)) -> tuple[float, ...]:
    """Tie bands of the power, l(t) and l(l(t)) levels of an end test:
    rounding (1e-12) when every profile is read from a closed form, else
    ``fitted``, which has no l(l(t)) level."""
    return (1e-12,) * 3 if all(p.exact for p in profiles) else fitted


def superpolynomial(p: EndProfile) -> bool:
    """An order of 25 or more, or an exp(+-t**beta) scale."""
    return p.q >= _Q_SUPER or p.q == -math.inf


def _leading(explogs) -> float:
    """The net coefficient of the exp(c |log t|**k) factors of the largest
    k whose coefficients do not cancel; 0 when there is none, or that k is 0."""
    if not explogs:
        return 0.0
    net: dict[float, float] = {}
    for k, c, _ in explogs:
        net[k] = net.get(k, 0.0) + c
    k, c = max(((k, c) for k, c in net.items() if c), default=(0.0, 0.0))
    return c if k > 0 else 0.0


def end_sign(p: EndProfile, shift, end: str) -> int:
    """Does f(t) t**shift tend to 0 (-1), to a positive finite value (0) or to
    +inf (+1) toward the end, for f with the end profile p?

    Level by level: the power, the net exp-log coefficient, the l(t)
    exponent, the l(l(t)) exponent (the slowly varying levels tend to inf at
    both ends), ties within ``_bands(p)``.
    """
    if p.kind != "power":
        return -1 if p.kind == "plateau-zero" else 1
    flip = 1 if end == "infinity" else -1
    bands = _bands(p)
    return lex_sign((flip * (p.q + shift), _leading(p.explogs), p.alpha, p.loglog_exponent),
                    (bands[0], 0.0) + bands[1:])


def integral_sign(p: EndProfile, weight, end: str) -> int:
    """Does the integral of f(s) s**weight ds converge (+1) or diverge (-1)
    toward the end, for f with the end profile p?  0 is a tie at every level.

    The power against the critical -1 - weight, then at the critical power
    the l(t) exponent against -1, then the l(l(t)) exponent against -1, ties
    within ``_bands(p)``.  The callers count a tie as divergent.
    """
    if p.kind != "power":
        return 1 if p.kind == "plateau-zero" else -1
    flip = 1 if end == "zero" else -1
    return lex_sign((flip * (p.q + weight + 1), -1 - p.alpha, -1 - p.loglog_exponent),
                    _bands(p))


def _constant(exact: bool) -> EndProfile:
    return EndProfile("power", 0, 0, exact=exact, loglog_exponent=0)


def rational(p: EndProfile) -> EndProfile:
    """p with its finite exponents as Fractions (0 as the integer 0)."""
    from fractions import Fraction  # with decimal, only where a hint is built

    def exact(x):
        return (Fraction(x) if x else 0) if math.isfinite(x) else x
    return EndProfile(p.kind, exact(p.q), exact(p.alpha), exact(p.exp_beta), p.threshold,
                      p.exact, exact(p.loglog_exponent), p.explogs)


def inverse(p: EndProfile, end: str) -> EndProfile | None:
    """The generalized inverse: t**q l**a ll**b exp(c |log t|**k), 0 < q <
    inf, inverts to t**(1/q) l**(-a/q) ll**(-b/q) exp(-c/q**(1+k) |log t|**k)
    when every live k is at most 1/2 (beyond, the error |log t|**(2k-1) is
    unbounded).  l**a (q = 0) and exp(+-t**(1/a)) invert each other, and so
    do a constant and a plateau; a decreasing function has no inverse."""
    if p is None:
        return None
    if p.kind != "power":
        return _constant(p.exact)
    if math.isinf(p.q):  # exp(+-t**beta): increasing toward the end for q = +inf
        return EndProfile("power", 0, 1 / p.exp_beta, exact=p.exact, loglog_exponent=0) \
            if p.q > 0 else None
    bands = _bands(p)
    order = lex_sign((p.q,), bands)
    if order > 0:
        if any(k > 0.5 for k, c, _ in p.explogs if c):
            return None
        return EndProfile("power", 1 / p.q, -p.alpha / p.q, exact=p.exact,
                          loglog_exponent=-p.loglog_exponent / p.q,
                          explogs=tuple((k, -c, d * p.q) for k, c, d in p.explogs))
    if order < 0 or _leading(p.explogs) or lex_sign((p.loglog_exponent,), bands[2:]):
        return None
    # l(t)**alpha increases toward infinity for alpha > 0, toward zero for alpha < 0
    grows = lex_sign((p.alpha if end == "infinity" else -p.alpha,), bands[1:])
    if grows == 0:
        return EndProfile("plateau-zero" if end == "zero" else "plateau-infinity",
                          exact=p.exact)
    return EndProfile("power", math.inf, exp_beta=1 / p.alpha, exact=p.exact) \
        if grows > 0 else None


def times(p: EndProfile, w, power: int = 1) -> EndProfile | None:
    """t**w f**power for power +-1.  A plateau times t**w is the plateau,
    and so is a ``superpolynomial`` scale, as the end tests read it; a
    plateau's reciprocal has no end profile."""
    if p is None or p.kind != "power" or (power == 1 and superpolynomial(p)):
        return p if power == 1 else None
    if power == -1:
        p = EndProfile(p.kind, -p.q, -p.alpha, p.exp_beta, p.threshold, p.exact,
                       -p.loglog_exponent, tuple((k, -c, d) for k, c, d in p.explogs))
    # built directly: ``dataclasses.replace`` costs as much as the end screen
    return EndProfile(p.kind, p.q + w, p.alpha, p.exp_beta, p.threshold, p.exact,
                      p.loglog_exponent, p.explogs)


def running_sup(p: EndProfile, end: str) -> EndProfile | None:
    """sup over s <= t of f(s): f where it increases toward the end, a
    constant where it levels off or decays toward infinity, None where it
    blows up toward zero (the supremum is +inf); decided by ``end_sign``."""
    if p is None or p.kind != "power":
        return p
    tends = end_sign(p, 0, end)
    if tends == (1 if end == "infinity" else -1):
        return p
    return _constant(p.exact) if end == "infinity" or tends == 0 else None


def prefix_integral(p: EndProfile, w, end: str) -> EndProfile | None:
    """The integral of f(s) s**w ds/s from 0 to t: t**w f(t) above the
    critical power -w; toward infinity, a constant where it converges; at
    the critical power, l**(alpha+1) ll**beta for f's l**alpha ll**beta, or
    ll**(beta+1) where an exact alpha is -1.  Exp-log factors at or below
    the critical power are not mapped."""
    if p is None or p.kind != "power":
        return p
    bands = _bands(p)
    if lex_sign((p.q + w,), bands) > 0:
        return times(p, w)
    if p.explogs:
        return None
    if end == "infinity":
        converges = integral_sign(p, w - 1, end)
        if converges >= 0:
            # a tie at every level grows past every level, slower than the
            # last, so it is not exact
            return _constant(p.exact and converges > 0)
    if p.exact and lex_sign((p.alpha + 1,), bands[1:]) == 0:
        return EndProfile("power", 0, 0, exact=True, loglog_exponent=p.loglog_exponent + 1)
    return EndProfile("power", 0, p.alpha + 1, exact=p.exact,
                      loglog_exponent=p.loglog_exponent)


def _round(x) -> float:
    """x to the nearest double; +-inf past double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def realize(p: EndProfile, end: str) -> AsymPiece:
    """The piece with these exponents, each rounded once."""
    if p is None or p.kind != "power":
        return p and piece(ConstFactor(0.0 if p.kind == "plateau-zero" else math.inf))
    if math.isinf(p.q):
        up = (p.q > 0) == (end == "infinity")
        return piece(ExpPowerFactor(1.0 if up else -1.0, _round(p.exp_beta)))
    factors: list[Factor] = [PowerFactor(_round(p.q))]
    if p.alpha:
        factors.append(LogFactor(_round(p.alpha)))
    if p.loglog_exponent:
        factors.append(LogLogFactor(_round(p.loglog_exponent)))
    for k, c, d in p.explogs:
        try:
            scale = _round(d) ** (1.0 + k)
        except OverflowError:  # the coefficient is below double range: 0
            scale = math.inf
        factors.append(ExpLogFactor(c / scale, k))
    return AsymPiece(tuple(factors))


@lru_cache(maxsize=1024)
def _mapped_end(compose, p: EndProfile, end: str, args: tuple):
    """compose of p's exponents and args as Fractions, as a piece, and whether
    it gave them back; kept, since one costs about 0.1 ms of Fractions."""
    from fractions import Fraction

    exact = rational(p)
    out = compose(exact, end, *map(Fraction, args))
    return realize(out, end), out == exact


def mapped_family(ends, compose, *args, like: AsymptoticFamily | None = None
                  ) -> AsymptoticFamily | None:
    """The closed form whose exponents toward zero and infinity are
    compose(p, end, *args) of the exact end profiles ``ends`` and the float
    ``args``, both as Fractions; None when an end is fitted or unmapped.
    Where compose gives an end's exponents back, ``like``'s piece is kept."""
    pieces = []
    for p, end in zip(ends, ENDS):
        if not p.exact:
            return None
        pc, same = _mapped_end(compose, p, end, args)
        if pc is None:
            return None
        pieces.append(like.piece(end) if same and like is not None else pc)
    return AsymptoticFamily(*pieces)


def _conjugate(p: EndProfile, end: str) -> EndProfile | None:
    return inverse(times(inverse(p, end), 1, -1), end)


def conjugate_family(family: AsymptoticFamily) -> AsymptoticFamily | None:
    """Closed-form Young conjugate, or None if unmapped: the inverse of
    t / A^{-1}(t), since A^{-1}(t) A*^{-1}(t) is equivalent to t."""
    return mapped_family((family.piece(end).exponents(end) for end in ENDS), _conjugate)


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
