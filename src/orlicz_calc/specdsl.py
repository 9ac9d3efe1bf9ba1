"""Tiny space-description language for the command line.

Grammar (whitespace-insensitive):

    spec  := name ['(' [num {',' num}] ')'] {clause}
    clause:= ('@0' | '@inf') piece      (each tag at most once)
    piece := factor+
    factor:= 't' '^' num | 'l(t)' '^' num | 'll(t)' '^' num
           | 'exp' '(' num 'sqrtlog' ')'
    num   := ['+' | '-'] decimal        (ASCII digits)

Families: Lp(p), Zygmund(p0, a0, pinf, ainf), ExpType(b0, binf), Linf, L1,
and Pow (pieces supplied entirely by the @0 / @inf clauses).  A piece clause
replaces the corresponding asymptotic piece of the base family.  Parse errors
carry the byte offset of the offending token.

Each part of the grammar is read from one table: ``_TOKEN`` is the pattern
of every token, tried in order; ``_FACTORS`` maps the keyword of each
``keyword '^' num`` factor to its constructor; ``_FAMILIES`` maps each family
name to its parameter count and constructor.
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


# one token after optional whitespace, the first alternative that matches;
# the group's name is the token's kind, except that a keyword, a clause tag
# and a punctuation mark are their own kind
_TOKEN = re.compile(r"""\s*(?:
      (?P<keyword>ll\(t\)|l\(t\)|(?:sqrtlog|exp|t)(?!\w))
    | (?P<num>[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<clause>@inf|@0)
    | (?P<punct>[(),^+-])
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<bad>\S))""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        kind, value = m.lastgroup, m.group(m.lastgroup)
        if kind == "bad":
            raise SpecParseError(f"unexpected character {value!r}", m.start(kind))
        tokens.append((kind if kind in ("num", "word") else value, value, m.start(kind)))
        pos = m.end()
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


# the factors written keyword '^' num; exp(num sqrtlog) is the other one
_FACTORS = {"t": fam.PowerFactor, "l(t)": fam.LogFactor, "ll(t)": fam.LogLogFactor}


def _parse_piece(cur: _Cursor) -> fam.AsymPiece:
    factors: list[fam.Factor] = []
    while True:
        kind = cur.peek()[0]
        if kind in _FACTORS:
            cur.take(kind)
            cur.take("^")
            factors.append(_FACTORS[kind](_num(cur)))
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

    name: str
    params: tuple[float, ...]
    family: fam.AsymptoticFamily
    overrides: tuple[str, ...] = ()

    def to_young(self, grid: GridSpec = DEFAULT_GRID) -> YoungFn:
        return from_family(self.family, grid=grid, label=render(self))


# name -> (parameter count, constructor); Pow has none, its two pieces come
# from the @0 and @inf clauses
_FAMILIES = {"Lp": (1, fam.lp), "Zygmund": (4, fam.zygmund), "ExpType": (2, fam.exp_type),
             "Linf": (0, fam.linf), "L1": (0, fam.l1), "Pow": (0, None)}


def parse_spec(text: str) -> SpaceSpec:
    """Parse a space description; raises SpecParseError with a byte offset."""
    cur = _Cursor(_tokenize(text))
    kind, name, pos = cur.peek()
    if kind != "word":
        raise SpecParseError("expected a family name", pos)
    cur.take("word")
    if name not in _FAMILIES:
        raise SpecParseError(f"unknown family {name!r}", pos)
    count, build = _FAMILIES[name]
    params: list[float] = []
    if cur.peek()[0] == "(":
        cur.take("(")
        if cur.peek()[0] != ")":
            params.append(_num(cur))
            while cur.peek()[0] == ",":
                cur.take(",")
                params.append(_num(cur))
        cur.take(")")
    if len(params) != count:
        raise SpecParseError(f"{name} takes {count} parameter(s), got {len(params)}", pos)

    pieces: dict[str, fam.AsymPiece] = {}
    while cur.peek()[0] in ("@0", "@inf"):
        tag, _, at = cur.take(cur.peek()[0])
        if tag in pieces:
            raise SpecParseError(f"repeated {tag} clause", at)
        pieces[tag] = _parse_piece(cur)
    cur.take("end")

    piece0, pieceinf = pieces.get("@0"), pieces.get("@inf")
    if build is None and len(pieces) < 2:
        raise SpecParseError("Pow requires @0 and @inf pieces", pos)
    try:
        family = build(*params) if build else fam.AsymptoticFamily(piece0, pieceinf)
    except ValueError as exc:
        raise SpecParseError(f"invalid parameters: {exc}", pos) from None

    if pieces:
        family = fam.AsymptoticFamily(piece0 or family.near_zero,
                                      pieceinf or family.near_infinity)
        _check_piece(family.near_zero, "zero", pos)
        _check_piece(family.near_infinity, "infinity", pos)
    return SpaceSpec(name, tuple(params), family, tuple(pieces))


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
    if spec.params:
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
