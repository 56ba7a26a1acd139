"""Spans and counts recorded in memory by the benchmark's own code.

A span is one call (or one loop of calls) into a layer's public functions,
named ``<layer>.<what>``, or a grouping span of the benchmark itself, named
``bench.<what>``. Each span holds its name, start, end and the index of the
span that was open when it began (-1 at the top); times are CPU seconds of
the round's process, like the end-to-end timings. Nothing is written while a
round runs; the spans travel back to the runner with the round's result.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans and counts. ``on`` tells the workloads whether to make
    the extra, separately timed layer calls that only the traced run makes."""

    on = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.process_time(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.process_time()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part of it
        that its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + seconds
        return out


class NullTracer:
    """The untraced run: same call sites, no records, no extra calls."""

    on = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass
