"""Spans recorded from outside the program: module-level names are replaced
by wrappers that time each call, and the benchmark then calls the real
entry points. Spans stay in memory and are written out once at the end."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        # [name, start ns, end ns, parent span index or -1, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Time every call of ``module.attr`` as span ``name``; ``count(args,
        result)`` gives the units of work the call did, such as pairs."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[4] = count(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self, name: str) -> tuple[int, float, int]:
        """(calls, total seconds, total count) over the spans named ``name``."""
        calls, ns, count = 0, 0, 0
        for n, start, end, _, c in self.spans:
            if n == name:
                calls += 1
                ns += end - start
                count += c
        return calls, ns / 1e9, count

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "count"],
                       "spans": self.spans}, f, separators=(",", ":"))
