"""Tiny space-description language for the command line.

Grammar (whitespace-insensitive):

    spec  := name '(' [num {',' num}] ')' ('@0' piece)? ('@inf' piece)?
    piece := factor+
    factor:= 't' '^' num | 'l(t)' '^' num | 'll(t)' '^' num
           | 'exp(' sign num 'sqrtlog' ')'

Families: Lp(p), Zygmund(p0, a0, pinf, ainf), ExpType(b0, binf), Linf, L1,
and Pow (pieces supplied entirely by the @0 / @inf clauses).  A piece clause
replaces the corresponding asymptotic piece of the base family.  Parse errors
carry the byte offset of the offending token.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import families as fam
from .grid import GridSpec, DEFAULT_GRID
from .young import YoungFn, from_family


class SpecParseError(ValueError):
    """Syntax or semantic error, with the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    pos = 0
    spec_words = ("ll(t)", "l(t)", "sqrtlog", "exp", "t")
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        matched = False
        for word in spec_words:
            if text.startswith(word, pos):
                nxt = pos + len(word)
                if word in ("t", "exp", "sqrtlog") and nxt < len(text) \
                        and (text[nxt].isalnum() or text[nxt] == "_"):
                    continue
                tokens.append((word, word, pos))
                pos = nxt
                matched = True
                break
        if matched:
            continue
        m = re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text[pos:])
        if m:
            tokens.append(("num", m.group(0), pos))
            pos += m.end()
            continue
        if text.startswith("@inf", pos):
            tokens.append(("@inf", "@inf", pos))
            pos += 4
            continue
        if text.startswith("@0", pos):
            tokens.append(("@0", "@0", pos))
            pos += 2
            continue
        if ch in "(),^+-":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[pos:])
        if m:
            tokens.append(("word", m.group(0), pos))
            pos += m.end()
            continue
        raise SpecParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


@dataclass
class _Cursor:
    tokens: list
    i: int = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise SpecParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok


def _parse_piece(cur: _Cursor) -> fam.AsymPiece:
    factors: list[fam.Factor] = []
    while True:
        kind, _, pos = cur.peek()
        if kind == "t":
            cur.take("t")
            cur.take("^")
            factors.append(fam.PowerFactor(_num(cur)))
        elif kind == "l(t)":
            cur.take("l(t)")
            cur.take("^")
            factors.append(fam.LogFactor(_num(cur)))
        elif kind == "ll(t)":
            cur.take("ll(t)")
            cur.take("^")
            factors.append(fam.LogLogFactor(_num(cur)))
        elif kind == "exp":
            cur.take("exp")
            cur.take("(")
            coef = _num(cur)
            cur.take("sqrtlog")
            cur.take(")")
            factors.append(fam.ExpLogFactor(coef, 0.5))
        else:
            break
    if not factors:
        raise SpecParseError("empty piece", cur.peek()[2])
    return fam.AsymPiece(tuple(factors))


def _num(cur: _Cursor) -> float:
    sign = 1.0
    if cur.peek()[0] in ("+", "-"):
        sign = -1.0 if cur.take(cur.peek()[0])[1] == "-" else 1.0
    tok = cur.take("num")
    value = float(tok[1])
    if not math.isfinite(value):
        raise SpecParseError(f"number {tok[1]} is out of double range", tok[2])
    return sign * value


@dataclass(frozen=True)
class SpaceSpec:
    """A parsed space description: family name, parameters, optional piece
    overrides, and the resulting closed-form profile."""

    source: str
    name: str
    params: tuple[float, ...]
    family: fam.AsymptoticFamily
    overrides: tuple[str, ...] = ()

    def to_young(self, grid: GridSpec = DEFAULT_GRID) -> YoungFn:
        return from_family(self.family, grid=grid, label=render(self))


_FAMILY_ARITY = {"Lp": 1, "Zygmund": 4, "ExpType": 2, "Linf": 0, "L1": 0, "Pow": 0}


def parse_spec(text: str) -> SpaceSpec:
    """Parse a space description; raises SpecParseError with a byte offset."""
    cur = _Cursor(_tokenize(text))
    kind, name, pos = cur.peek()
    if kind not in ("word",):
        raise SpecParseError("expected a family name", pos)
    cur.take("word")
    if name not in _FAMILY_ARITY:
        raise SpecParseError(f"unknown family {name!r}", pos)
    params: list[float] = []
    if cur.peek()[0] == "(":
        cur.take("(")
        if cur.peek()[0] != ")":
            params.append(_num(cur))
            while cur.peek()[0] == ",":
                cur.take(",")
                params.append(_num(cur))
        cur.take(")")
    if len(params) != _FAMILY_ARITY[name]:
        raise SpecParseError(
            f"{name} takes {_FAMILY_ARITY[name]} parameter(s), got {len(params)}", pos)

    overrides: list[str] = []
    piece0 = pieceinf = None
    while cur.peek()[0] in ("@0", "@inf"):
        tag = cur.take(cur.peek()[0])
        pc = _parse_piece(cur)
        if tag[0] == "@0":
            piece0 = pc
            overrides.append("@0")
        else:
            pieceinf = pc
            overrides.append("@inf")
    cur.take("end")

    try:
        if name == "Lp":
            family = fam.lp(params[0])
        elif name == "Zygmund":
            family = fam.zygmund(*params)
        elif name == "ExpType":
            family = fam.exp_type(*params)
        elif name == "Linf":
            family = fam.linf()
        elif name == "L1":
            family = fam.l1()
        else:  # Pow: both pieces must come from the clauses
            if piece0 is None or pieceinf is None:
                raise SpecParseError("Pow requires @0 and @inf pieces", pos)
            family = fam.AsymptoticFamily(piece0, pieceinf)
    except ValueError as exc:
        raise SpecParseError(f"invalid parameters: {exc}", pos) from None

    if piece0 is not None or pieceinf is not None:
        if name != "Pow":
            family = fam.AsymptoticFamily(piece0 or family.near_zero,
                                          pieceinf or family.near_infinity)
        _check_piece(family.near_zero, "zero", pos)
        _check_piece(family.near_infinity, "infinity", pos)
    return SpaceSpec(text, name, tuple(params), family, tuple(overrides))


def _check_piece(pc: fam.AsymPiece, end: str, pos: int) -> None:
    p = pc.profile(end)
    if p.kind != "power" or math.isinf(p.q):
        return
    tie = (1e-12,)
    order = fam.lex_sign((p.q - 1.0,), tie)
    if order < 0:
        raise SpecParseError(f"piece near {end} has order {p.q} < 1", pos)
    # an order-1 piece keeps A(t)/t = l(t)**alpha nondecreasing in t
    flip = -1.0 if end == "zero" else 1.0
    if order == 0 and fam.lex_sign((flip * p.alpha,), tie) < 0:
        raise SpecParseError(
            f"order-1 piece near {end} needs log exponent "
            f"{'<= 0' if end == 'zero' else '>= 0'}", pos)


def render(spec: SpaceSpec) -> str:
    """Canonical string for a parsed spec; parse(render(s)) == s."""
    body = spec.name
    if _FAMILY_ARITY[spec.name] or spec.params:
        body += "(" + ", ".join(_fmt_num(p) for p in spec.params) + ")"
    if "@0" in spec.overrides or spec.name == "Pow":
        body += " @0 " + spec.family.near_zero.render()
    if "@inf" in spec.overrides or spec.name == "Pow":
        body += " @inf " + spec.family.near_infinity.render()
    return body


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"
