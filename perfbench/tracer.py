"""Timers installed around ``safebo`` functions from outside the package.

A :class:`Metric` names one figure and the one function or method it is
measured at, as a module and an attribute path (``"pairwise"`` or
``"SurrogateModel.posterior"``).  :meth:`Tracer.install` rebinds every
named attribute to a timing wrapper: on its class for a method, and for a
module-level function in every loaded ``safebo`` module that holds it
under that name, since modules call what they imported by name.  A metric
whose function no longer exists is listed in :attr:`Tracer.missing` by
name instead of failing or reading zero.

Each wrapper pushes a frame on one span stack.  A span's self time is its
duration minus the durations of the wrapped calls nested directly in it,
so the self times of all spans add up to the time covered by the
outermost ones.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Aggregations of a per-call value: "sum" adds, "max" keeps the largest,
# "distinct" counts different values.
_VALUE_STATS = ("sum", "max", "distinct")


@dataclass(frozen=True)
class Metric:
    """One traced figure: ``stat`` of the calls to ``module``.``attr``.

    ``stat`` is ``"self_s"``, ``"total_s"`` or ``"calls"``, or one of
    ``"sum"``, ``"max"`` and ``"distinct"`` applied to ``value``, which
    maps the call's bound arguments (with defaults) and its result to a
    number or, for ``"distinct"``, a hashable key.
    """

    name: str
    unit: str
    module: str
    attr: str
    stat: str = "self_s"
    value: Callable[[dict, Any], Any] | None = None

    def __post_init__(self) -> None:
        if (self.stat in _VALUE_STATS) != (self.value is not None):
            raise ValueError(f"{self.name}: stat {self.stat!r} and value do not match")


@dataclass
class SpanStats:
    """Accumulated figures of one hooked function."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)
    values: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Installs wrappers for a list of metrics; a context manager.

    ``keep_durations`` names hooks, as ``"module:attr"``, whose
    individual call durations are kept for percentiles.
    """

    def __init__(self, metrics: list[Metric], keep_durations: tuple[str, ...] = ()):
        self.metrics = list(metrics)
        self.keep_durations = set(keep_durations)
        self.missing: list[tuple[str, str]] = []
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def key(module: str, attr: str) -> str:
        return f"{module}:{attr}"

    def install(self) -> None:
        self.missing = []
        self.stats = {}
        self._stack = []
        by_hook: dict[str, list[Metric]] = {}
        for metric in self.metrics:
            by_hook.setdefault(self.key(metric.module, metric.attr), []).append(metric)
        for hook, metrics in by_hook.items():
            module, attr = metrics[0].module, metrics[0].attr
            target = _resolve(module, attr)
            if target is None:
                self.missing.extend((m.name, hook) for m in metrics)
                continue
            owner, name, raw = target
            stats = self.stats[hook] = SpanStats()
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapper = self._wrap(func, stats, metrics, hook in self.keep_durations)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(wrapper)
            if inspect.isclass(owner):
                self._rebind(owner, name, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] == "safebo" and (
                        vars(mod).get(name) is raw
                    ):
                        self._rebind(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner: object, name: str, wrapper: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, func, stats: SpanStats, metrics: list[Metric], keep: bool):
        stack = self._stack
        valued = [m for m in metrics if m.value is not None]
        signature = inspect.signature(func) if valued else None
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - frame[0]
                if keep:
                    stats.durations_ns.append(elapsed)
            if valued:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric in valued:
                    _accumulate(stats.values, metric, metric.value(bound.arguments, result))
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def read(self) -> dict[str, float]:
        """Every resolvable metric's value from the calls since install."""
        out = {}
        for metric in self.metrics:
            stats = self.stats.get(self.key(metric.module, metric.attr))
            if stats is None:
                continue
            if metric.stat == "self_s":
                out[metric.name] = stats.self_ns / 1e9
            elif metric.stat == "total_s":
                out[metric.name] = stats.total_ns / 1e9
            elif metric.stat == "calls":
                out[metric.name] = stats.calls
            elif metric.stat == "distinct":
                out[metric.name] = len(stats.values.get(metric.name, ()))
            else:
                out[metric.name] = stats.values.get(metric.name, 0)
        return out


def _accumulate(values: dict, metric: Metric, value) -> None:
    if metric.stat == "sum":
        values[metric.name] = values.get(metric.name, 0) + value
    elif metric.stat == "max":
        values[metric.name] = max(values.get(metric.name, value), value)
    else:
        values.setdefault(metric.name, set()).add(value)


def _resolve(module: str, attr: str):
    """``(owner, name, raw attribute)`` or None when it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name) if hasattr(owner, "__dict__") else None
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(func):
        return None
    return owner, name, raw
