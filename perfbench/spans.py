"""In-memory span recorder for traced benchmark runs.

A span is one timed call into a szegolab module, recorded from outside the
package: name, start, end, parent span, run id, plus free attributes (model
kind, size, allocation peak).  Spans stay in memory until the run ends and
are then written out as JSON lines.

With tracing off the recorder hands out one shared no-op context, so the
untraced run pays only an attribute lookup per call.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    ok: bool
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NoSpan:
    """Stand-in yielded when tracing is off."""

    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Records spans when ``enabled``; otherwise every ``span`` is a no-op."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, alloc: bool = False, parent: int | None = None, **attrs):
        """Context manager timing one call.  The parent is the innermost open
        span unless ``parent`` names one.  ``alloc=True`` also records the
        peak bytes allocated inside the call (``tracemalloc``; numpy reports
        its buffers there) as ``attrs["alloc_bytes"]``."""
        if not self.enabled:
            return _NO_SPAN
        if parent is None and self._stack:
            parent = self._stack[-1]
        return self._record(name, alloc, parent, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, alloc: bool, parent: int | None, attrs: dict):
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=0.0,
            end=0.0,
            parent=parent,
            run_id=self.run_id,
            ok=False,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        if alloc:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            yield span
            span.ok = True
        finally:
            span.end = time.perf_counter()
            if alloc:
                span.attrs["alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
