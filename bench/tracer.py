"""Span tracing of brieskorn's layers, installed from outside the package.

`Tracer.patch` replaces each named function with a timing wrapper in every
loaded `brieskorn` module that holds it (the defining module, `cli`, and the
package root, which import the names directly), and restores the originals
on exit. Nothing inside `src/` knows it is being traced.

A span's self time is its duration minus the durations of its direct child
spans. The tracer's own bookkeeping after a child returns is charged to
neither the child nor the parent.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Keeps spans and per-layer totals in memory until the run writes them out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.counts: dict[str, float] = {}
        # (span id, parent span id or -1, request id, layer name, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.keep_spans = True
        self.request = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by child spans]

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def layer(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    def wrap(self, name: str, fn, count=None):
        """Time `fn` as a span of layer `name`; `count(tracer, result, *args)` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = self.clock()
                    self._stack.pop()
                    if self.keep_spans:
                        self.spans.append((span_id, parent, self.request, name, start, end))
                    stats = self.layer(name)
                    stats.calls += 1
                    stats.total_s += end - start
                    stats.self_s += end - start - frame[1]
                if count is not None:
                    count(self, result, *args, **kwargs)
                return result
            finally:
                if self._stack:
                    # everything since this span started, bookkeeping included,
                    # is covered by a child as far as the parent is concerned
                    self._stack[-1][1] += self.clock() - start

        return traced

    @contextmanager
    def patch(self, targets):
        """Install wrappers for `targets`, a list of (module, attribute, layer, count).

        The wrapper replaces the attribute on `module` and on every loaded
        brieskorn module that holds the same function, so calls through
        `from .x import f` are traced too. The originals are put back when
        the block ends, even on error.
        """
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "brieskorn"]
        replaced = []
        try:
            for module, attr, layer, count in targets:
                original = getattr(module, attr)
                wrapper = self.wrap(layer, original, count)
                for holder in [module] + [m for m in package if m is not module]:
                    if getattr(holder, attr, None) is original:
                        setattr(holder, attr, wrapper)
                        replaced.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(replaced):
                setattr(holder, attr, original)
