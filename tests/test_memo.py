"""Per-instance results: transforms, Boyd indices and end profiles are
computed once per Young function and never change what a caller sees."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from orlicz_calc import (boyd, families as fam, grid, reduction as red, transforms as tr,
                         young)
from orlicz_calc.transforms import TransformGateError

from conftest import make

TRANSFORMS = (tr.a_gamma, tr.b_gamma, tr.a_sup)


def _memo_keys(A, fn):
    return [k for k in A._memo if k[0].endswith("." + fn.__name__)]


def _outcome(call):
    """The result of ``call()``, or the code of the gate it failed."""
    try:
        return call()
    except TransformGateError as exc:
        return ("gate", exc.code)


def _same_young(X, Y) -> bool:
    """Bit-for-bit equality of two Young functions' tables and metadata."""
    return (np.array_equal(X.table.t, Y.table.t)
            and np.array_equal(X.table.y, Y.table.y)
            and X.table.tail_zero == Y.table.tail_zero
            and X.table.tail_infinity == Y.table.tail_infinity
            and X.label == Y.label
            and X.zero_plateau_end == Y.zero_plateau_end
            and X.finite_sup == Y.finite_sup
            and (X.closed_form and X.closed_form.render())
            == (Y.closed_form and Y.closed_form.render()))


class TestCacheContract:
    def test_repeat_call_returns_the_same_object(self, ctx31):
        A = make(fam.lp(2))
        for fn in TRANSFORMS:
            assert fn(A, ctx31) is fn(A, ctx31)
        assert boyd.boyd_indices(A) is boyd.boyd_indices(A)
        assert A.end_profile("zero") is young.end_profile(A, "zero")

    def test_each_argument_gets_its_own_entry(self, ctx31):
        A = make(fam.zygmund(2, 1, 2, 1))
        ctx = young.GammaContext(1, 0.5)
        assert tr.a_gamma(A, ctx31) is not tr.a_gamma(A, ctx)
        assert len(_memo_keys(A, tr.a_gamma)) == 2
        sym = boyd.boyd_indices(A)
        num = boyd.boyd_indices(A, force_numeric=True)
        assert sym.method == "symbolic-exact" and num.method == "numeric-limit"
        # the default and the explicit default are one entry
        assert boyd.boyd_indices(A, force_numeric=False) is sym
        assert len(_memo_keys(A, boyd.boyd_indices)) == 2
        assert A.end_profile("zero") is not A.end_profile("infinity")
        assert len(_memo_keys(A, young.end_profile)) == 2

    def test_gate_errors_raise_every_time_and_store_nothing(self, ctx31):
        A = make(fam.lp(6))  # A(t) t^-3 -> 0 at zero: the A-condition fails
        for _ in range(2):
            with pytest.raises(TransformGateError):
                tr.a_gamma(A, ctx31)
        assert _memo_keys(A, tr.a_gamma) == []

    @pytest.mark.parametrize("form", ["closed", "callable"])
    def test_cached_equals_a_fresh_computation(self, family_battery, ctx31, form):
        for name, family in family_battery.items():
            A = (young.from_family(family) if form == "closed"
                 else young.from_callable(family.value))
            for fn in TRANSFORMS:
                cached = _outcome(lambda: fn(A, ctx31))
                fresh = _outcome(lambda: fn.__wrapped__(A, ctx31))
                if isinstance(cached, tuple):
                    assert cached == fresh, (name, fn.__name__)
                else:
                    assert _same_young(cached, fresh), (name, fn.__name__)
            assert boyd.boyd_indices(A) == boyd.boyd_indices.__wrapped__(A), name
            for end in ("zero", "infinity"):
                assert A.end_profile(end) == young.end_profile.__wrapped__(A, end)

    def test_no_cycle_keeps_an_instance_alive(self, ctx31):
        gc.collect()
        gc.disable()
        try:
            A = make(fam.zygmund(2, 1, 2, 1))
            for fn in TRANSFORMS:
                fn(A, ctx31)
            boyd.boyd_indices(A, force_numeric=True)
            A.end_profile("zero")
            assert young.inverse_on_grid(A) is not None
            assert len(A._memo) >= 5
            ref = weakref.ref(A)
            del A
            assert ref() is None
        finally:
            gc.enable()


class TestImmutable:
    def test_setting_an_attribute_raises(self):
        A = make(fam.lp(2))
        label = A.label
        for attr in ("label", "table", "finite_sup", "not_an_attribute"):
            with pytest.raises(AttributeError):
                setattr(A, attr, None)
        assert A.label == label and not hasattr(A, "not_an_attribute")
        # per_young results go to the instance's memo, past the seal
        assert young.inverse_on_grid(A) is young.inverse_on_grid(A)


def test_shared_and_fresh_instances_give_the_same_verdicts(family_battery,
                                                           young_battery, ctx31):
    """Per-instance results must not depend on what was asked before: the
    14x14 battery decided with shared instances and with fresh ones."""
    for a, fa in family_battery.items():
        for b, fb in family_battery.items():
            shared = red.bounded(young_battery[a], young_battery[b], ctx31)
            fresh = red.bounded(make(fa, label=a), make(fb, label=b), ctx31)
            assert shared == fresh, (a, b)


class TestFirstUse:
    """What ``bounded`` computes at first use and then shares: the prefix
    integral L of B per (B, ctx), the constant ladder per cap, and the tail
    fits of a GridFn."""

    def test_one_prefix_integral_per_target_and_context(self, family_battery, ctx31,
                                                         monkeypatch):
        # every computation of L samples its B once on the widened grid
        samples = Counter()
        real = tr.widened_sample

        def counted(B):
            samples[B.label] += 1
            return real(B)

        monkeypatch.setattr(tr, "widened_sample", counted)
        ys = {k: make(f, label=k) for k, f in family_battery.items()}
        for A in ys.values():
            for B in ys.values():
                red.bounded(A, B, ctx31)
        assert sum(samples.values()) <= len(ys)
        assert set(samples.values()) == {1}

    def test_shared_prefix_integral_is_read_only(self, ctx31):
        B = make(fam.zygmund(2, 1, 2, 1))
        L = tr.lower_fractional_integral(B, ctx31)
        assert L is tr.lower_fractional_integral(B, ctx31)
        for arr in (L.t, L.y):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        fresh = tr.lower_fractional_integral.__wrapped__(B, ctx31)
        assert L.t is fresh.t  # one widened abscissae array per grid
        assert L.y.tobytes() == fresh.y.tobytes()

    def test_ladder_is_shared_and_read_only(self):
        ladder = young.constant_ladder(young.CONSTANT_CAP)
        assert ladder is young.constant_ladder(young.CONSTANT_CAP)
        with pytest.raises(ValueError):
            ladder[0] = 2.0
        want = np.power(10.0, np.linspace(0.0, 6.0, young.CONSTANT_STEPS))
        assert ladder.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            young.constant_ladder(0.5)

    @pytest.mark.parametrize("form", ["closed", "callable"])
    def test_lazy_tails_equal_an_eager_fit(self, family_battery, ctx31, form,
                                           monkeypatch):
        # the fit each GridFn would have made at construction, on copies of
        # its arrays, against what it reads after a round of verdicts
        eager = []
        real = grid.GridFn.__init__

        def recording(self, t, y, tail_zero=None, tail_infinity=None):
            real(self, t, y, tail_zero, tail_infinity)
            t, y = self.t.copy(), self.y.copy()
            eager.append((self,
                          tail_zero or grid.fit_tail(t, y, "zero"),
                          tail_infinity or grid.fit_tail(t, y, "infinity")))

        monkeypatch.setattr(grid.GridFn, "__init__", recording)
        ys = {k: (young.from_family(f) if form == "closed"
                  else young.from_callable(f.value))
              for k, f in family_battery.items()}
        tables = [A.table for A in ys.values()]
        for A in ys.values():
            for fn in (tr.a_gamma, tr.b_gamma):
                out = _outcome(lambda: fn(A, ctx31))
                if not isinstance(out, tuple):
                    tables.append(out.table)
            for B in ys.values():
                red.bounded(A, B, ctx31)
        assert len(tables) > 30
        made = {id(g): (z, i) for g, z, i in eager}
        for g in tables:
            assert (g.tail_zero, g.tail_infinity) == made[id(g)]
        for g, z, i in eager:
            assert g.tail_zero == z and g.tail_infinity == i
