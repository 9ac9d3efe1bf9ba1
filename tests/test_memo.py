"""Per-instance results: transforms, Boyd indices and end profiles are
computed once per Young function and never change what a caller sees."""

import gc
import weakref

import numpy as np
import pytest

from orlicz_calc import boyd, families as fam, reduction as red, transforms as tr, young
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
