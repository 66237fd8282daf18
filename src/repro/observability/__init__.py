"""Observability: process-local metrics and span tracing.

One registry and one tracer per process, reachable from anywhere via
:func:`get_registry` / :func:`get_tracer`.  Metrics are always on
(counter updates are cheap dictionary arithmetic); the tracer is off by
default and every instrumentation site degrades to a single branch
while it stays off, so enabling observability is a run-time decision
(``repro serve --trace-out ...``) rather than a build-time one.

Tests and scoped runs swap in fresh instances with :func:`scoped`::

    with scoped() as (registry, tracer):
        tracer.enable()
        ...  # run instrumented code
        assert registry.value("repro_frames_encoded_total", mode="proposed")

The server's encode threads count in the same registry as their
caller, under its lock.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.observability.metrics import (
    DEFAULT_TIME_BUCKETS,
    HistogramValue,
    MetricsRegistry,
    format_metrics,
)
from repro.observability.tracing import NULL_SPAN, SpanRecord, SpanTracer

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "HistogramValue",
    "MetricsRegistry",
    "NULL_SPAN",
    "SpanRecord",
    "SpanTracer",
    "disable_tracing",
    "enable_tracing",
    "format_metrics",
    "get_registry",
    "get_tracer",
    "reset",
    "scoped",
]

_registry = MetricsRegistry()
_tracer = SpanTracer()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def get_tracer() -> SpanTracer:
    """The process-wide span tracer (disabled until enabled)."""
    return _tracer


def enable_tracing(capacity: Optional[int] = None) -> SpanTracer:
    """Enable the global tracer, optionally resizing its ring buffer."""
    global _tracer
    if capacity is not None and capacity != _tracer.capacity:
        _tracer = SpanTracer(capacity=capacity, enabled=True)
    else:
        _tracer.enable()
    return _tracer


def disable_tracing() -> None:
    _tracer.disable()


def reset() -> None:
    """Fresh global registry and (disabled) tracer."""
    global _registry, _tracer
    _registry = MetricsRegistry()
    _tracer = SpanTracer()


@contextmanager
def scoped(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
) -> Iterator[Tuple[MetricsRegistry, SpanTracer]]:
    """Temporarily replace the global registry/tracer (test isolation)."""
    global _registry, _tracer
    saved = (_registry, _tracer)
    _registry = registry if registry is not None else MetricsRegistry()
    _tracer = tracer if tracer is not None else SpanTracer()
    try:
        yield _registry, _tracer
    finally:
        _registry, _tracer = saved
