"""In-memory spans around the benchmark's calls into msslab's layers.

A span records its name, start, end, parent span and the round it
belongs to (the spans of one round share that identifier).  Spans stay
in memory and are written out once, when the run ends.  A disabled
tracer hands out one shared no-op span, so untraced rounds pay only an
attribute lookup and a call per boundary.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = {
            "id": len(tracer.spans),
            "name": name,
            "round": tracer.round,
            "parent": tracer.stack[-1] if tracer.stack else None,
            "start": None,
            "end": None,
        }

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Span recorder; ``enabled`` may be switched between rounds."""

    def __init__(self):
        self.enabled = False
        self.round = None
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def durations(self, name: str) -> dict:
        """Total duration of the spans named ``name``, per round."""
        out = defaultdict(float)
        for rec in self.spans:
            if rec["name"] == name:
                out[rec["round"]] += rec["end"] - rec["start"]
        return dict(out)

    def each(self, name: str) -> list[float]:
        """Duration of every span named ``name``."""
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]
