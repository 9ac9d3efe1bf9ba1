import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_calc import families as fam
from orlicz_calc import grid, young
from orlicz_calc.young import GammaContext


@pytest.fixture(scope="session")
def ctx31():
    return GammaContext(3, 1.0)


@pytest.fixture(scope="session")
def ctx21():
    return GammaContext(2, 1.0)


def make(family, label=""):
    return young.from_family(family, label=label)


def closed_profile(pc: fam.AsymPiece, end: str) -> young.EndProfile:
    """The end profile the library reads from a closed form with piece pc."""
    return make(fam.AsymptoticFamily(pc, pc)).end_profile(end)


def battery() -> dict:
    """Representative profiles across the supported families."""
    return {
        "t": fam.l1(),
        "t^1.5": fam.lp(1.5),
        "t^2": fam.lp(2),
        "t^3": fam.lp(3),
        "t^6": fam.lp(6),
        "Linf": fam.linf(),
        "zyg(2,1)": fam.zygmund(2, 1, 2, 1),
        "zyg(2,-1)": fam.zygmund(2, -1, 2, -1),
        "zyg(1.5,-2)": fam.zygmund(1.5, -2, 1.5, -2),
        "zyg(3,-2)": fam.zygmund(3, -2, 3, -2),
        "zyg-1branch": fam.zygmund(1, -0.5, 1, 0.5),
        "exp": fam.exp_type(-1, 1),
        "sqrtlog": fam.power_sqrtlog(2, -1, 2, 1),
        "mixed-2-4": fam.AsymptoticFamily(fam.piece(fam.PowerFactor(2)),
                                          fam.piece(fam.PowerFactor(4))),
    }


@pytest.fixture(scope="session")
def family_battery():
    return battery()


@pytest.fixture(scope="session")
def young_battery(family_battery):
    return {name: make(f, label=name) for name, f in family_battery.items()}


def bisect_inverse(evaluator, s, lo=1e-60, hi=1e60, iters=200):
    """Independent right-continuous inverse oracle: sup{t : f(t) <= s}."""
    if evaluator(lo) > s:
        return 0.0
    if evaluator(hi) <= s:
        return math.inf
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(iters):
        mid = 0.5 * (llo + lhi)
        if evaluator(math.exp(mid)) <= s:
            llo = mid
        else:
            lhi = mid
    return math.exp(llo)


@pytest.fixture
def young_calls(monkeypatch):
    """Counts, while the test runs, the calls of ``YoungFn._monotone_eval``
    (every evaluation of the monotone view) and ``YoungFn.inverse_many``, and
    the points each received: ``young_calls.calls["inverse_many"]``."""
    counts = SimpleNamespace(calls=Counter(), points=Counter())
    for name in ("_monotone_eval", "inverse_many"):
        method = getattr(young.YoungFn, name)

        def counted(self, t, _method=method, _name=name):
            counts.calls[_name] += 1
            counts.points[_name] += np.size(t)
            return _method(self, t)

        monkeypatch.setattr(young.YoungFn, name, counted)
    return counts


@pytest.fixture
def modular_calls(monkeypatch):
    """Counts, while the test runs, the evaluations of every modular that
    ``young._modular`` builds (one integral of A(g/lam) each):
    ``modular_calls.calls``."""
    counts = SimpleNamespace(calls=0)
    real = young._modular

    def counted(A, g):
        values, modular = real(A, g)

        def count(lam):
            counts.calls += 1
            return modular(lam)

        return values, count

    monkeypatch.setattr(young, "_modular", counted)
    return counts


@pytest.fixture
def gridfn_builds(monkeypatch):
    """Counts, while the test runs, the ``GridFn`` instances built:
    ``gridfn_builds.calls``."""
    counts = SimpleNamespace(calls=0)
    real = grid.GridFn.__init__

    def counted(self, *args, **kwargs):
        counts.calls += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(grid.GridFn, "__init__", counted)
    return counts


# -- the bits of a level search -----------------------------------------------

_SIGN = np.uint64(1 << 63)


def _rank(u: float) -> int:
    """The place of the double u in the order of all doubles (both zeros
    at 0): adjacent doubles have adjacent ranks."""
    k = int(np.float64(u).view(np.int64))
    return k if k >= 0 else -(k & 0x7FFF_FFFF_FFFF_FFFF)


def _doubles(ranks) -> np.ndarray:
    """The doubles of the given ranks."""
    r = np.asarray(ranks, dtype=np.int64)
    bits = np.abs(r).astype(np.uint64)
    return np.where(r < 0, bits | _SIGN, bits).view(np.float64)


def _least_double(cond, near: float) -> float:
    """The least double u where ``cond(u)`` holds, for a cond that fails
    below some u near ``near`` and holds from there on."""
    reach = 1e-12 * max(1.0, abs(near))
    lo, hi = _rank(near - reach), _rank(near + reach)
    assert not cond(_doubles(lo)) and cond(_doubles(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if cond(_doubles(mid)) else (mid, hi)
    return float(_doubles(hi))


def _flips(ok, i, first: int, stop: int) -> int:
    """How often ``ok`` of level i flips over the doubles of ranks first,
    ..., stop - 1: at least as often as between the first two and the last;
    counted one by one only when that is not more than once."""
    ends = np.unique([first, first + 1, stop - 1])
    seen = ok(_doubles(ends), np.full(ends.size, i))
    flips = int(np.count_nonzero(seen[1:] != seen[:-1]))
    if flips > 1:
        return flips
    flips, last = 0, None
    for start in range(first, stop, 1 << 16):
        ranks = np.arange(start, min(start + (1 << 16), stop))
        seen = ok(_doubles(ranks), np.full(ranks.size, i))
        flips += int(np.count_nonzero(seen[1:] != seen[:-1])) + (
            last is not None and bool(seen[0] != last))
        last = seen[-1]
    return flips


def assert_level_bits(ok, exp, got, want, label=""):
    """A level search's answers ``got``, sup{x : ok} per level, against the
    root search's ``want``; returns how many differ in their bits.

    ``ok(u, idx)`` tells whether the levels idx hold at the doubles u, read
    through ``exp`` (x = exp(u)).  Each answer has the root search's bits,
    or ``ok`` is not monotone between the two answers: over the doubles of
    u whose exp lies from one answer to the other it flips more than once,
    and it holds at got while it fails at the next value of exp past got.
    Any search that ends on adjacent doubles can end there."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, label
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))

    def least_past(x, strict):
        """The least double u with exp(u) > x (strict) or >= x."""
        def past(u):
            y = float(exp(np.array([u]))[0])
            return y > x if strict else y >= x
        return _least_double(past, math.log(x))

    for i in differ:
        where = (label, i, got[i], want[i])
        x, a, b = got[i], min(got[i], want[i]), max(got[i], want[i])
        at = least_past(x, False)
        assert exp(np.array([at]))[0] == x, where
        holds = ok(np.array([at, least_past(x, True)]), np.array([i, i]))
        assert holds.tolist() == [True, False], where
        first, stop = _rank(least_past(a, False)), _rank(least_past(b, True))
        assert _flips(ok, i, first, stop) > 1, where
    return differ.size
