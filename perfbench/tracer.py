"""Per-layer tracing from outside the library.

The tracer replaces public functions of ``orlicz_calc`` by wrappers that
record a span per call: calls, self time (the span minus the spans of wrapped
functions it called) and, for evaluators, the number of points evaluated.
A function bound into several modules by ``from ... import`` is replaced at
every module attribute that holds it, so calls through any of those names are
seen.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= int(d)
        return n
    if isinstance(x, (list, tuple)):
        return len(x)
    return 1


def first_arg_points(args, kwargs) -> int:
    """Points of an evaluator called as f(x) or f(self, x)."""
    return _size(args[-1]) if args else 0


@dataclass(frozen=True)
class Target:
    """A function to wrap.  ``owner`` is the module that defines it and
    ``attr`` its name there, or ``Class.method`` for a method."""

    metric: str
    owner: str
    attr: str
    points: object = None  # callable(args, kwargs) -> int, for evaluators
    on_result: object = None  # callable(tracer, args, kwargs, result)


@dataclass
class Stat:
    evaluator: bool = False
    calls: int = 0
    self_s: float = 0.0
    points: int = 0


@dataclass
class Tracer:
    """Span recorder.  Spans are kept in memory up to ``max_spans`` and
    aggregated per wrapped function without limit."""

    max_spans: int = 20000
    stats: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    seen: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    dropped_spans: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _epoch: float = field(default_factory=time.perf_counter)

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.stats = {name: Stat(st.evaluator) for name, st in self.stats.items()}
        self.extra = {}
        self.seen = {}
        self.spans = []
        self.dropped_spans = 0
        self._epoch = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def wrap(self, target: Target, fn):
        name = target.metric
        self.stats[name] = Stat(target.points is not None)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self.stats[name]
            parent = stack[-1][0] if stack else -1
            index = len(self.spans)
            if index < self.max_spans:
                self.spans.append(None)
            else:
                index = -1
                self.dropped_spans += 1
            stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_s = stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.self_s += elapsed - child_s
                if stack:
                    stack[-1][1] += elapsed
                if index >= 0:
                    self.spans[index] = (name, parent, start - self._epoch,
                                         end - self._epoch)
            if target.points is not None:
                stat.points += target.points(args, kwargs)
            if target.on_result is not None:
                target.on_result(self, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets, package: str = "orlicz_calc") -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for target in targets:
            owner = sys.modules[target.owner]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(target, original))
                continue
            original = getattr(owner, target.attr)
            wrapper = self.wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def metrics(self, per: int = 1) -> dict:
        """Per-function metrics, divided by ``per`` (rounds run)."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls / per
            out[f"{name}.self_ms"] = 1e3 * st.self_s / per
            if st.evaluator:
                out[f"{name}.points"] = st.points / per
        return out

    def dump(self) -> dict:
        return {
            "spans": [s for s in self.spans if s is not None],
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "dropped_spans": self.dropped_spans,
            "stats": {k: vars(v) for k, v in sorted(self.stats.items())},
        }
