"""Spans, counters, garbage-collector accounting and tail percentiles.

Everything is kept in memory and written out when the run ends.  The
library is never edited: a library function is traced by replacing the
attribute its callers look up (a module global or a class attribute) and
putting the original back afterwards.  A name that no longer exists is
reported as not recorded instead of failing the run, so the same
benchmark code can measure commits whose internals differ.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager


class Tracer:
    """Spans as [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.request = None
        self._open: list[int] = []
        self._in_library = False
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> bool:
        """Give each outermost call of owner.attr a span called name.

        Calls made while another wrapped call is open (recursion, or one
        library function calling another) pass straight through, so a
        caller's self time is measured against the library calls it makes
        itself.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return False

        def traced(*args, **kwargs):
            if self._in_library:
                return original(*args, **kwargs)
            self._in_library = True
            try:
                with self.span(name):
                    return original(*args, **kwargs)
            finally:
                self._in_library = False

        self._patch(owner, attr, traced)
        return True

    def count(self, owner, attr: str, counter: str) -> bool:
        """Count every call of owner.attr under counter."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(counter)
            return False
        self.counters[counter] = 0

        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)
        return True

    def _patch(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, had, saved in reversed(self._patches):
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": start, "end": end, "parent": parent, "request": request}
            for n, start, end, parent, request in self.spans
        ]


def tail(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value); (None, None) below eleven samples."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None, None
    rank = len(ordered) - 11
    return 100 * (rank + 1) / len(ordered), ordered[rank]


class GcMonitor:
    """Collections of the oldest generation, and time spent in all of them."""

    def __init__(self):
        self.gen2_collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2_collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
