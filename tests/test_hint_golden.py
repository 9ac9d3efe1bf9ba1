"""Golden closed-form hints: the target, domain, improved-domain and
conjugate profiles of seeded random closed families, render and bits.

Each line of ``data/hint_golden.jsonl`` holds one family (the factors of
both pieces), its conjugate hint and, for each context (n, gamma) in
``CONTEXTS``, its target, domain and improved-domain hints.  A hint is its
render and every factor parameter of both pieces, or null where no closed
form is derived; "gated" where the transform's admissibility condition
fails, so that it never builds the hint.  Floats are stored as their
shortest round-trip repr, so the file pins every bit.  The families mix
powers (some at the contexts' critical q* and n/gamma, some
within rounding of them), l(t), l(l(t)) and exp(c |log t|**k) factors,
exp(+-t**beta) pieces and the constant pieces 0 and inf.  A change that is
meant to move hints regenerates the file with

    PYTHONPATH=src python tests/test_hint_golden.py

which prints each family whose hints moved (and which ones), and says so;
any other difference is a regression.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from orlicz_calc import families as fam
from orlicz_calc import transforms as tr
from orlicz_calc.young import GammaContext, from_family

GOLDEN = Path(__file__).parent / "data" / "hint_golden.jsonl"
CONTEXTS = ((3, 1.0), (1, 0.5), (2, 1.0), (3, 2.9))
FAMILIES = 1500
SEED = 26

_KINDS = {fam.PowerFactor: "t", fam.LogFactor: "l", fam.LogLogFactor: "ll",
          fam.ExpLogFactor: "explog", fam.ExpPowerFactor: "exp", fam.ConstFactor: "const"}
_BUILD = {kind: cls for cls, kind in _KINDS.items()}


def encode(pc: fam.AsymPiece) -> list:
    """The factors of a piece: kind, then each parameter."""
    return [[_KINDS[type(f)], *(float(getattr(f, name)) for name in f.__dataclass_fields__)]
            for f in pc.factors]


def decode(factors: list) -> fam.AsymPiece:
    return fam.AsymPiece(tuple(_BUILD[kind](*args) for kind, *args in factors))


def hint(family: fam.AsymptoticFamily | None):
    """[render, parameters at zero, parameters at infinity], or None."""
    if family is None:
        return None
    return [family.render(), *([x for _, *args in encode(pc) for x in args]
                               for pc in (family.near_zero, family.near_infinity))]


def record(family: fam.AsymptoticFamily) -> dict:
    A = from_family(family)
    out = {"zero": encode(family.near_zero), "infinity": encode(family.near_infinity),
           "conjugate": hint(fam.conjugate_family(family))}
    for n, gamma in CONTEXTS:
        ctx = GammaContext(n, gamma)
        acond, bconv = tr.check_acond(A, ctx), tr.check_bconv(A, ctx)
        out[f"{n},{gamma:g}"] = {
            "target": hint(tr.target_profile_family(A, ctx)) if acond else "gated",
            "domain": hint(tr.domain_profile_family(A, ctx)) if bconv else "gated",
            "improved": hint(tr.improved_profile_family(A, ctx)) if acond else "gated",
        }
    return json.loads(json.dumps(out))


def _critical_powers() -> list[float]:
    """q* and n/gamma of every context, as the library computes them."""
    out = []
    for n, gamma in CONTEXTS:
        ctx = GammaContext(n, gamma)
        out += [ctx.q_star, ctx.r_star]
    return out


def random_piece(rng: random.Random, end: str) -> fam.AsymPiece:
    roll = rng.random()
    if roll < 0.04:
        return fam.piece(fam.ConstFactor(0.0 if end == "zero" else math.inf))
    if roll < 0.08:
        beta = rng.choice((0.5, 1.0, 2.0))
        return fam.piece(fam.ExpPowerFactor(-1.0, -beta) if end == "zero"
                         else fam.ExpPowerFactor(1.0, beta))
    critical = _critical_powers()
    roll = rng.random()
    if roll < 0.35:
        q = rng.choice(critical)
    elif roll < 0.45:
        q = rng.choice(critical) + rng.choice((-1.0, 1.0)) * rng.choice((1e-13, 4e-13))
    elif roll < 0.75:
        q = rng.choice((1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 27.0, 40.0))
    else:
        q = round(rng.uniform(0.8, 8.0), 3)
    factors: list = [fam.PowerFactor(q)]
    if rng.random() < 0.55:
        factors.append(fam.LogFactor(rng.choice(
            (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 0.0, -1.0 + 5e-13, 1e-13))))
    if rng.random() < 0.3:
        factors.append(fam.LogLogFactor(rng.choice((-1.0, -0.5, 0.5, 1.0))))
    if rng.random() < 0.3:
        factors.append(fam.ExpLogFactor(rng.choice((-1.0, -0.5, 0.5, 1.0)),
                                        rng.choice((0.5, 0.5, 0.25, 0.75))))
    if rng.random() < 0.05:
        factors.append(fam.LogFactor(rng.choice((-1.0, 1.0))))
    rng.shuffle(factors)
    return fam.AsymPiece(tuple(factors))


def families() -> list[fam.AsymptoticFamily]:
    rng = random.Random(SEED)
    return [fam.AsymptoticFamily(random_piece(rng, "zero"), random_piece(rng, "infinity"))
            for _ in range(FAMILIES)]


def test_hints_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(expected) == FAMILIES
    moved = []
    for i, entry in enumerate(expected):
        family = fam.AsymptoticFamily(decode(entry["zero"]), decode(entry["infinity"]))
        got = record(family)
        if got != entry:
            keys = [k for k in entry if got.get(k) != entry[k]]
            moved.append(f"line {i + 1} ({family.render()}): {keys}")
    assert not moved, f"{len(moved)} families moved: {moved[:10]}"


def main() -> int:
    """Print each family whose hints move, then rewrite the golden file."""
    old = ([json.loads(line) for line in GOLDEN.read_text().splitlines()]
           if GOLDEN.exists() else [])
    entries = [record(f) for f in families()]
    for i, entry in enumerate(entries):
        was = old[i] if i < len(old) else None
        if was != entry:
            keys = "new" if was is None else [k for k in entry if was.get(k) != entry[k]]
            print(f"line {i + 1}: {keys}")
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
