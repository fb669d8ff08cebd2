"""Span tracing from outside the program, around the calls into each layer.

A :class:`Tracer` wraps public entry points of the ``repro`` layers and
keeps one span per call -- ``(id, name, start, end, parent, run id)`` --
in memory; :meth:`Tracer.write` dumps them as JSON lines when the unit
ends.  A layer's self time is its span time minus the time of its
direct child spans (:func:`self_times`), so the per-layer self times
plus the unattributed rest add up to the traced wall time.

Class methods are wrapped on the class.  A module function is rebound
in *every* ``repro`` module that holds it, because ``from x import f``
copies the binding: wrapping only the defining module would miss every
caller that imported the name.  :meth:`Tracer.uninstall` puts every
original back, and :func:`installed_wrappers` finds any wrapper still
in place (the untraced run must have none).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

#: Attribute that marks a wrapper and points at the wrapped original.
ORIGINAL = "__perfbench_original__"


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(id, name, start, end, parent id or 0, run id)`` per call.
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        #: Counters recorded at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self.run_id = 0
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0)
        #: ``(owner, attribute, original)`` for every binding replaced.
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, *,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span.

        ``before(args)`` runs ahead of the span and its value is handed
        to ``after(counts, state, result, args)``, which runs once the
        span has ended; neither is timed as part of the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            with tracer.region(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer.counts, state, result, args)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    @contextmanager
    def region(self, name: str):
        """Record a span around the ``with`` body."""
        if not self.enabled:
            yield
            return
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._current.reset(token)
            self.spans.append(
                (span_id, name, start, end, parent, self.run_id))

    # -- installing ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` on the class (instance or class method)."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            wrapper = self.wrap(name, original, **hooks)
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` and rebind it in every ``repro`` module
        that holds the same function object."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for holder in repro_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))

    def install(self, targets) -> None:
        """Apply ``(kind, owner, attr, name, hooks)`` patch targets and
        stop recording in processes forked from this one (pool workers
        are out of scope: their spans are never collected)."""
        for kind, owner, attr, name, hooks in targets:
            if kind == "method":
                self.patch_method(owner, attr, name, **hooks)
            else:
                self.patch_function(owner, attr, name, **hooks)
        os.register_at_fork(after_in_child=self._forked)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _forked(self) -> None:
        self.enabled = False

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as stream:
            for span_id, name, start, end, parent, run in self.spans:
                stream.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "run": run}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus direct children's duration.

    Correct for nesting and recursion alike, since each span only
    subtracts the spans whose parent it is.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _id, _name, start, end, parent, _run in spans:
        if parent:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _parent, _run in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def durations(spans) -> dict[str, float]:
    """Per span name: summed inclusive duration."""
    totals: dict[str, float] = defaultdict(float)
    for _id, name, start, end, _parent, _run in spans:
        totals[name] += end - start
    return dict(totals)


def repro_modules() -> list:
    """Every loaded module of the ``repro`` package."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def installed_wrappers(classes=()) -> list[str]:
    """Names of tracing wrappers currently bound in ``repro`` modules or
    on ``classes``."""
    found = []
    for module in repro_modules():
        for key, value in vars(module).items():
            if hasattr(value, ORIGINAL):
                found.append(f"{module.__name__}.{key}")
    for cls in classes:
        for key, value in vars(cls).items():
            func = value.__func__ if isinstance(value, classmethod) else value
            if hasattr(func, ORIGINAL):
                found.append(f"{cls.__qualname__}.{key}")
    return found
