"""In-memory spans recorded around the benchmark's calls into the program.

A span is (name, start, end, parent, request id, attributes). Spans live
in a list until the run ends and ``dump`` writes them out. The untraced
runs use ``NullTracer``, whose span is a shared no-op context manager, so
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "request": request, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        return statistics.median(self.durations(name)) * 1000.0

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans
        cover (children of one span never overlap: one client thread)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + (s["end"] - s["start"]) - child[i])
        return out

    def dump(self, path: str, extra: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                 for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": spans, "self_time_s": self.self_times(),
                       **extra}, f, indent=1, default=str)


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext({})

    def span(self, name: str, request: str | None = None, **attrs):
        return self._null
