"""In-memory spans and counters for the benchmark's traced runs.

A span records a name, its start and end on ``time.perf_counter`` and the
span that was open when it started.  Spans are opened by the benchmark
around its calls into abckit, and ``Tracer.wrap`` swaps a module attribute
for the length of a traced job; abckit's source is not changed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.record = [name, None, 0.0, 0.0]  # name, parent index, start, end

    def __enter__(self):
        tracer = self.tracer
        self.record[1] = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans and counters of one job; ``spans`` holds [name, parent, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @contextmanager
    def wrap(self, module, attr: str, name: str):
        """Span every call of ``module.attr`` while the context is open."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def total(self, *names: str) -> float:
        """Summed duration in seconds of the spans with any of these names."""
        return sum(end - start for name, _, start, end in self.spans if name in names)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover.

        Children of one span run one after another, so the part they cover
        is the sum of their durations.
        """
        out = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out


class NullTracer:
    """Tracing off: spans and counters cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass

    def wrap(self, module, attr: str, name: str):
        return self._null
