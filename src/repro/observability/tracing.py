"""Low-overhead span tracer.

Spans are nestable timed regions recorded on a bounded ring buffer;
events are instantaneous records on the same buffer.  Clocks are
``time.perf_counter`` (monotonic), never wall time, so traces are
immune to clock steps and carry no absolute timestamps.

The tracer is built to be free when off: every instrumentation site
goes through :meth:`SpanTracer.span` / :meth:`SpanTracer.event`, which
when ``enabled`` is ``False`` return a shared no-op context manager /
return immediately — one attribute check, no allocation.  The bench
acceptance gate (codec/motion throughput within 3% of the previous
BENCH record with tracing disabled) holds the instrumented hot path to
that budget.

Records export to JSONL (one JSON object per line) via
:meth:`SpanTracer.to_jsonl`; each line carries ``seq`` (monotonic id,
assigned at span *entry* so it encodes program order), ``kind``
(``span``/``event``), ``name``, ``start_s``/``duration_s`` (relative
to the tracer epoch), ``depth``, ``parent`` (enclosing span's seq or
``None``) and free-form ``attrs``.  Spans append on *exit*, so a
parent span appears after its children; consumers that want entry
order sort by ``seq``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

__all__ = ["SpanRecord", "SpanTracer", "NULL_SPAN"]


@dataclass
class SpanRecord:
    """One completed span or point event."""

    seq: int
    kind: str  # "span" | "event"
    name: str
    start_s: float
    duration_s: float
    depth: int
    parent: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None


#: The singleton no-op span: returned by every ``span()`` call while
#: the tracer is disabled, so tracing costs one branch and zero
#: allocations when off.
NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager of one live span."""

    __slots__ = ("_tracer", "_name", "_attrs", "_seq", "_start", "_parent",
                 "_depth")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self._seq = next(tracer._seq)
        self._parent = stack[-1][0] if stack else None
        self._depth = len(stack)
        stack.append((self._seq, self._name))
        self._start = time.perf_counter()
        return self

    def set(self, **attrs: object) -> None:
        """Add attributes learned inside the span (recorded on exit)."""
        self._attrs.update(attrs)

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1][0] == self._seq:
            stack.pop()
        tracer._append(SpanRecord(
            seq=self._seq,
            kind="span",
            name=self._name,
            start_s=self._start - tracer._epoch,
            duration_s=end - self._start,
            depth=self._depth,
            parent=self._parent,
            attrs=self._attrs,
        ))


class SpanTracer:
    """Ring-buffer span tracer; a no-op while ``enabled`` is False."""

    def __init__(self, capacity: int = 65536, enabled: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self._records: Deque[SpanRecord] = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- internals -----------------------------------------------------
    def _stack(self) -> List[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _append(self, record: SpanRecord) -> None:
        self._records.append(record)

    # -- recording API -------------------------------------------------
    def span(self, name: str, **attrs: object):
        """Context manager timing a region; nested spans record their
        depth and enclosing span."""
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Record an instantaneous event at the current nesting."""
        if not self.enabled:
            return
        stack = self._stack()
        self._append(SpanRecord(
            seq=next(self._seq),
            kind="event",
            name=name,
            start_s=time.perf_counter() - self._epoch,
            duration_s=0.0,
            depth=len(stack),
            parent=stack[-1][0] if stack else None,
            attrs=attrs,
        ))

    def record_span(self, name: str, duration_s: float,
                    **attrs: object) -> None:
        """Record an externally-measured duration as a child span of
        the current context (used when the measurement happened where
        no tracer was reachable, e.g. inside a pool worker)."""
        if not self.enabled:
            return
        stack = self._stack()
        now = time.perf_counter() - self._epoch
        self._append(SpanRecord(
            seq=next(self._seq),
            kind="span",
            name=name,
            start_s=max(0.0, now - duration_s),
            duration_s=duration_s,
            depth=len(stack),
            parent=stack[-1][0] if stack else None,
            attrs=attrs,
        ))

    # -- lifecycle / export --------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._records.clear()
        self._seq = itertools.count()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    def records(self) -> List[SpanRecord]:
        """Buffered records, oldest first (completion order)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def iter_dicts(self) -> Iterator[dict]:
        for record in self.records():
            yield record.to_dict()

    def to_jsonl(self, path: str) -> int:
        """Write the buffer as JSONL; returns the line count."""
        n = 0
        with open(path, "w") as fh:
            for record in self.iter_dicts():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                n += 1
        return n
