"""Span tracer used by the benchmark's traced runs.

A span is opened around each call of a wrapped function. Functions are
wrapped where the caller looks them up: a module that did
``from .linalg import f`` calls its own attribute ``f``, so that
attribute is the one replaced. Spans are aggregated in memory per name
(calls, total time, self time) and per (parent, child) edge, which keeps
the tracer's cost per call small on sweeps that open ~10^5 spans.

Self time is a span's duration minus the time covered by its child
spans. The tracer is single-threaded: worker processes of a pool are
not traced, so traced runs use one process.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregates timing spans and keyed counters.

    clock is the time source, replaceable so tests can drive it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.edges: dict[tuple[str | None, str], int] = {}
        self.root_s = 0.0
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        # Open spans as [name, start, time covered by children].
        self._stack: list[list] = []

    def count(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def see(self, counter: str, key) -> None:
        """Record key under counter; n_distinct(counter) counts unique keys."""
        self.distinct.setdefault(counter, set()).add(key)

    def n_distinct(self, counter: str) -> int:
        return len(self.distinct.get(counter, ()))

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def edge_calls(self, parent: str | None, child: str) -> int:
        return self.edges.get((parent, child), 0)

    def wrap(self, name: str | None, fn, observe=None):
        """Return fn wrapped in a span called name.

        observe(tracer, *args, **kwargs), when given, runs before the
        call and outside the span, to record counts from the arguments.
        With name None the wrapper only observes and opens no span, for
        functions called too often to time without distorting callers.
        """
        if name is None:

            def observed(*args, **kwargs):
                observe(self, *args, **kwargs)
                return fn(*args, **kwargs)

            observed.__wrapped__ = fn
            return observed

        def traced(*args, **kwargs):
            if observe is not None:
                observe(self, *args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, self.clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - frame[1]
                stack.pop()
                stats = self.spans.get(name)
                if stats is None:
                    stats = self.spans[name] = SpanStats()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_s += duration
                edge = (parent, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap module attributes for the duration of the block.

        targets holds (module, attribute, span name or None, observe or
        None).
        Every replaced attribute is put back on exit, also on error.
        """
        saved = []
        try:
            for module, attribute, name, observe in targets:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original, observe))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)
