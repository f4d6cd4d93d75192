"""Span-based phase tracing for the encode → persist → decode → serve pipeline.

Usage::

    from repro.obs import trace

    with trace.span("persist.write", path=path):
        ...

Spans nest through a thread-local stack, so one enabled run of the full
pipeline produces a hierarchical phase-timing tree (the ``repro-pestrie
trace`` subcommand renders it).  Tracing is **disabled by default** and
costs one attribute check plus a no-op context manager per call site when
off — cheap enough to leave the ``span(...)`` calls on every phase
boundary permanently.

Exception safety: ``__exit__`` always pops the stack and stamps the
duration; a span that exits through an exception is flagged ``error`` but
its parents and siblings keep timing correctly.

Enabled spans also observe their duration into the shared registry's
``repro_trace_span_seconds{span=...}`` histogram, so repeated phases
accumulate a distribution besides the last tree.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from .registry import get_registry

#: Completed root spans kept per tracer (oldest evicted first).
DEFAULT_ROOT_CAPACITY = 64


class Span:
    """One timed phase: name, attributes, duration, children."""

    __slots__ = ("name", "attrs", "start", "seconds", "children", "error")

    def __init__(self, name: str, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.seconds = 0.0
        self.children: List["Span"] = []
        self.error = False

    def tree_lines(self, indent: int = 0) -> List[str]:
        label = self.name
        if self.attrs:
            label += " [%s]" % ", ".join(
                "%s=%s" % (key, value) for key, value in sorted(self.attrs.items())
            )
        if self.error:
            label += " !error"
        lines = ["%s%-*s %10.3f ms" % ("  " * indent, 44 - 2 * indent, label,
                                       1e3 * self.seconds)]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines

    def render(self) -> str:
        return "\n".join(self.tree_lines())

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for a descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            match = child.find(name)
            if match is not None:
                return match
        return None


class _ActiveSpan:
    """The context manager driving one :class:`Span`'s lifetime."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._span.start = time.perf_counter()
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.seconds = time.perf_counter() - span.start
        span.error = exc_type is not None
        stack = self._tracer._stack()
        # The span may not be on top if a nested span leaked (it cannot via
        # this API, but never corrupt the stack on behalf of a bug).
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            self._tracer._finish_root(span)
        get_registry().histogram("repro_trace_span_seconds", span=span.name).observe(
            span.seconds
        )
        return False


class _Propagation:
    """Pushes an adopted parent span onto another thread's stack.

    Unlike :class:`_ActiveSpan` it never stamps the span's duration or
    finishes it — the owning thread's context manager does that; this one
    only makes the span the attachment point for the block's children.
    ``Span.children`` mutation is a single ``list.append`` (atomic under
    the GIL), so the owning thread may read the finished tree afterwards
    without extra locking.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        elif self._span in stack:
            stack.remove(self._span)
        return False


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


class Tracer:
    """Per-process tracer; the module-level :data:`trace` is the default."""

    def __init__(self, root_capacity: int = DEFAULT_ROOT_CAPACITY):
        self._enabled = False
        self._local = threading.local()
        self._roots: Deque[Span] = deque(maxlen=root_capacity)
        self._roots_lock = threading.Lock()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish_root(self, span: Span) -> None:
        with self._roots_lock:
            self._roots.append(span)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: object):
        """A context manager timing one phase (no-op while disabled)."""
        if not self._enabled:
            return _NOOP
        return _ActiveSpan(self, Span(name, attrs))

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread, or ``None``.

        Capture it before handing work to another thread, then re-attach
        there with :meth:`propagate` — the stack is thread-local, so
        without this a span opened under ``run_in_executor`` becomes an
        orphaned root instead of a child of the request that spawned it.
        """
        if not self._enabled:
            return None
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return None

    def propagate(self, parent: Optional[Span]):
        """Adopt ``parent`` as the current span for a block on this thread::

            parent = trace.current()          # submitting thread
            def job():
                with trace.propagate(parent): # executor thread
                    with trace.span("work"):
                        ...

        Spans opened inside the block become ``parent``'s children even
        though they run on a different thread.  The caller must guarantee
        ``parent`` outlives the block (the daemon does: it awaits the
        executor future before closing the request span).  No-op when
        disabled or ``parent`` is ``None``, so call sites need no guards.
        """
        if not self._enabled or parent is None:
            return _NOOP
        return _Propagation(self, parent)

    def roots(self) -> List[Span]:
        """Completed top-level spans, oldest first."""
        with self._roots_lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._roots_lock:
            self._roots.clear()

    def capture(self) -> "_Capture":
        """Enable tracing for a ``with`` block and collect its root spans::

            with trace.capture() as spans:
                run_pipeline()
            print(spans[0].render())
        """
        return _Capture(self)

    def render(self) -> str:
        """Every retained root span as one indented phase-timing tree."""
        roots = self.roots()
        if not roots:
            return "(no completed spans)"
        return "\n".join(root.render() for root in roots)


class _Capture:
    __slots__ = ("_tracer", "_was_enabled", "_before", "spans")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.spans: List[Span] = []

    def __enter__(self) -> List[Span]:
        self._was_enabled = self._tracer.enabled
        self._before = len(self._tracer.roots())
        self._tracer.enable()
        return self.spans

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._was_enabled:
            self._tracer.disable()
        self.spans.extend(self._tracer.roots()[self._before:])
        return False


#: The default tracer every instrumented module uses.
trace = Tracer()


def spans(tracer: Optional[Tracer] = None) -> Iterator[Span]:
    """Iterate every retained span (roots and descendants), depth-first."""
    stack = list((tracer or trace).roots())
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.children)
