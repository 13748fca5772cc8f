"""Timing wrappers for the traced run, installed from outside the package.

Every public function defined in one of the measured modules is replaced,
in every gcdmat namespace that binds it, by a wrapper that records a span:
(name, start, end, parent span, op id). Calls between modules therefore
nest, e.g. divide_oracle -> solve_right. Spans stay in memory until the run
ends; remove() puts every original object back.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("numtheory", "setmodel", "exactmatrix", "tncore", "divisibility", "cli")
# Functions whose truthy result is a useful outcome: TN verdicts, gcd-closed sets.
OUTCOMES = ("tncore.check_tn_triple", "setmodel.is_gcd_closed")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.gc_s = 0.0
        self.outcomes: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[int] = []
        self._gc_start = None
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every binding to wrap."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "gcdmat" or name.startswith("gcdmat.")]
        patches = []
        for short in MODULES:
            module = importlib.import_module(f"gcdmat.{short}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            patches.append((ns, bound, obj, wrapper))
        return patches

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = self.outcomes[name] if name in OUTCOMES else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if outcome is not None:
                outcome[bool(result)] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        for ns, attr, original, _ in reversed(self._patches):
            setattr(ns, attr, original)
        gc.callbacks.remove(self._on_gc)

    def leftovers(self) -> list[str]:
        """Bindings that still hold a wrapper (empty after remove())."""
        wrappers = {id(w) for *_, w in self._patches}
        return [f"{ns.__name__}.{attr}" for ns, attr, *_ in self._patches
                if id(getattr(ns, attr)) in wrappers] + (
            ["gc.callbacks"] if self._on_gc in gc.callbacks else [])

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.op_id >= 0:
                self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. the root of each op."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)


def self_times(spans, first_op: int = 0) -> tuple[dict, dict]:
    """Per name, over the spans of ops numbered first_op and up: total self
    time and call count. Self time is the span's duration minus the time its
    direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for (name, start, end, parent, op), child in zip(spans, covered):
        if op >= first_op:
            self_s[name] += end - start - child
            calls[name] += 1
    return self_s, calls
