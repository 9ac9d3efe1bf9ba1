from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_calc import families as fam
from orlicz_calc import young
from orlicz_calc.young import GammaContext


@pytest.fixture(scope="session")
def ctx31():
    return GammaContext(3, 1.0)


@pytest.fixture(scope="session")
def ctx21():
    return GammaContext(2, 1.0)


def make(family, label=""):
    return young.from_family(family, label=label)


@pytest.fixture(scope="session")
def family_battery():
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
def young_battery(family_battery):
    return {name: make(f, label=name) for name, f in family_battery.items()}


def bisect_inverse(evaluator, s, lo=1e-60, hi=1e60, iters=200):
    """Independent right-continuous inverse oracle: sup{t : f(t) <= s}."""
    import math
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
