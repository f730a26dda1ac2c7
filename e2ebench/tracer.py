"""Per-layer time split measured from outside the program.

A :class:`Tracer` replaces a layer's public functions with thin wrappers
that record one span per call: name, layer, parent span, start and end.
Nothing under ``src/`` changes; the wrappers are installed for one traced
run and every original attribute is put back afterwards.

Modules bind some functions by name (``from repro.analysis.transient import
simulate_transient``), so a function wrapper is installed on *every*
``repro`` module attribute that holds the original object, which is where
callers look the name up.  Methods are wrapped on the class that defines
them.

Spans nest per thread.  A layer's self time is the sum over its spans of
duration minus the time covered by direct child spans
(:func:`self_times`).  A call counts once per layer: a span whose parent
belongs to the same layer (``BoundMna.newton_solve`` falling back to
``numpy.linalg.solve``, a batched evaluation re-entering ``evaluate``) adds
self time but no call.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

#: Hook signature: ``hook(tracer, result)`` after a counted call returned.
Hook = Callable[["Tracer", Any], None]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap: ``module:attr`` or ``module:Class.attr``."""

    path: str
    layer: str
    #: Called with the return value of counted (outermost-in-layer) calls.
    on_result: Hook | None = None
    #: Extra counter bumped when a counted call raises.
    error_counter: str = ""

    @property
    def span_name(self) -> str:
        """The attribute name, e.g. ``solve`` for ``numpy.linalg:solve``."""
        return self.path.rsplit(".", 1)[-1].rsplit(":", 1)[-1]


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self) -> None:
        #: (name, layer, parent index or -1, thread id, start, end).
        self.spans: list[tuple[str, str, int, int, float, float]] = []
        #: Counters filled by result hooks and error counters.
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        name, layer = target.span_name, target.layer
        on_result, error_counter = target.on_result, target.error_counter
        spans, lock, clock = self.spans, self._lock, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent, parent_layer = stack[-1] if stack else (-1, "")
            with lock:
                index = len(spans)
                spans.append((name, layer, parent, threading.get_ident(), 0.0, 0.0))
            stack.append((index, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if error_counter and parent_layer != layer:
                    self.counts[error_counter] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name, layer, parent, threading.get_ident(), start, end,
                )
            if on_result is not None and parent_layer != layer:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; :meth:`restore` undoes all of it."""
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr_path:
                class_name, attr = attr_path.split(".", 1)
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(original, target))
                continue
            original = getattr(module, attr_path)
            wrapper = self.wrap(original, target)
            self._patch(module, attr_path, original, wrapper)
            if not module_name.startswith("repro"):
                continue
            # Name-bound imports: patch every repro module holding it.
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines (the in-memory trace, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, parent, thread, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "parent": parent,
                            "thread": thread,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-layer self time, per-layer call count and root-span coverage.

    ``spans`` are ``(name, layer, parent, thread, start, end)`` tuples with
    ``parent`` an index into the same list (-1 for a root).  Self time is a
    span's duration minus the durations of its direct children; children
    of one parent run one after another on the parent's thread, so their
    durations never overlap.  A span counts as a call unless its parent is
    in the same layer.  The third value is the summed duration of root
    spans: self times add up to exactly that.
    """
    child_time = [0.0] * len(spans)
    for name, layer, parent, thread, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    roots = 0.0
    for index, (name, layer, parent, thread, start, end) in enumerate(spans):
        duration = end - start
        self_s[layer] = self_s.get(layer, 0.0) + duration - child_time[index]
        if parent < 0:
            roots += duration
        if parent < 0 or spans[parent][1] != layer:
            calls[layer] = calls.get(layer, 0) + 1
    return self_s, calls, roots


def outermost_times(spans, names) -> dict[str, float]:
    """Wall time per name of ``names`` spans with no ``names`` ancestor.

    With ``names={"synthesize_mdac", "retarget_mdac"}`` a retarget's inner
    ``synthesize_mdac`` call is charged to the retarget, not counted twice.
    """
    totals = {name: 0.0 for name in names}
    for name, layer, parent, thread, start, end in spans:
        if name not in totals:
            continue
        outer = parent
        while outer >= 0 and spans[outer][0] not in totals:
            outer = spans[outer][2]
        if outer < 0:
            totals[name] += end - start
    return totals


__all__ = ["Target", "Tracer", "outermost_times", "self_times"]
