"""Trace/span context, wire propagation and the local span store.

The clock policy matches PR 6's skew-immune design: **no timestamps ever
cross the wire**.  A wire envelope may carry exactly two trace fields —
``trace_id`` (shared by every span of one request's causal chain) and
``span_id`` (the sender's current span, which becomes the receiver's
parent) — and each process measures its own spans' durations with its own
monotonic clock.  Spans therefore order by parent links, not by comparing
clocks across machines.

Span recording is process-wide: every span lands in :data:`SPANS`, a
bounded in-memory store served by ``GET /trace/{trace_id}``.  In the
in-process cluster topologies (:class:`~repro.cluster.local.LocalCluster`,
the test harness) all instances share the process, so any instance's
``/trace`` endpoint returns the *complete* tree — submit, fan-out,
assignment, run and commit.  Across real processes each instance serves
its local fragment of the trace (linked by the shared ``trace_id``).
"""

from __future__ import annotations

import contextlib
import contextvars
import re
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional

#: Ids are hex strings (no dashes): 32 chars for traces, 16 for spans.
_ID_RE = re.compile(r"^[0-9a-f]{8,32}$")

#: The only fields a wire trace envelope may carry — no timestamps, ever.
WIRE_FIELDS = ("trace_id", "span_id")


@dataclass(frozen=True)
class TraceContext:
    """The propagated half of a span: which trace, which (parent) span."""

    trace_id: str
    span_id: str


_current: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def current_trace() -> Optional[TraceContext]:
    """The active span's context in this thread (None outside any span)."""
    return _current.get()


def context_to_wire(context: TraceContext) -> Dict[str, str]:
    """The explicit envelope fields a request carries (and nothing else)."""
    return {"trace_id": context.trace_id, "span_id": context.span_id}


def context_from_wire(data: object) -> TraceContext:
    """Strict decode of a wire trace envelope.

    Unknown fields are rejected — in particular anything that smells like a
    timestamp — so the no-clocks-on-the-wire invariant is enforced at the
    same boundary as the other strict decoders.
    """
    if not isinstance(data, Mapping):
        raise ValueError("trace envelope must be a JSON object")
    unknown = sorted(set(data) - set(WIRE_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown trace field(s): {', '.join(unknown)} "
            "(trace envelopes carry only trace_id/span_id — no timestamps)"
        )
    values = {}
    for field in WIRE_FIELDS:
        value = data.get(field)
        if not isinstance(value, str) or not _ID_RE.match(value):
            raise ValueError(f"trace field {field!r} must be a lowercase hex id")
        values[field] = value
    return TraceContext(trace_id=values["trace_id"], span_id=values["span_id"])


class SpanStore:
    """Bounded in-memory span records, grouped by trace id.

    Oldest traces are evicted first once ``max_traces`` is reached; a trace
    caps at ``max_spans`` spans (beyond that, spans are counted but
    dropped), so a polling-heavy workload cannot grow memory without bound.
    """

    def __init__(self, max_traces: int = 256, max_spans: int = 512) -> None:
        self.max_traces = int(max_traces)
        self.max_spans = int(max_spans)
        self._traces: Dict[str, List[Dict[str, object]]] = {}
        self._dropped: Dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, span_record: Dict[str, object]) -> None:
        trace_id = str(span_record["trace_id"])
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                while len(self._traces) >= self.max_traces:
                    evicted = next(iter(self._traces))
                    del self._traces[evicted]
                    self._dropped.pop(evicted, None)
                spans = []
                self._traces[trace_id] = spans
            if len(spans) >= self.max_spans:
                self._dropped[trace_id] = self._dropped.get(trace_id, 0) + 1
                return
            spans.append(span_record)

    def spans(self, trace_id: str) -> Optional[List[Dict[str, object]]]:
        with self._lock:
            spans = self._traces.get(trace_id)
            return [dict(span) for span in spans] if spans is not None else None

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def tree(self, trace_id: str) -> Optional[Dict[str, object]]:
        """The span tree payload ``GET /trace/{trace_id}`` serves.

        Spans are returned flat (recording order) *and* nested under
        ``roots``; a span whose parent was recorded by another process (or
        evicted) becomes a root here — its parent link still names the
        remote span, so fragments from several instances can be stitched.
        """
        spans = self.spans(trace_id)
        if spans is None:
            return None
        by_id = {str(span["span_id"]): dict(span) for span in spans}
        for span_view in by_id.values():
            span_view["children"] = []
        roots: List[Dict[str, object]] = []
        for span in spans:
            view = by_id[str(span["span_id"])]
            parent = span.get("parent_span_id")
            if parent is not None and str(parent) in by_id:
                by_id[str(parent)]["children"].append(view)
            else:
                roots.append(view)
        with self._lock:
            dropped = self._dropped.get(trace_id, 0)
        return {
            "trace_id": trace_id,
            "spans": spans,
            "roots": roots,
            "dropped": dropped,
        }


#: The process-wide span sink (shared across in-process cluster instances).
SPANS = SpanStore()


@contextlib.contextmanager
def span(
    name: str,
    parent: Optional[TraceContext] = None,
    store: Optional[SpanStore] = None,
    **attrs: object,
) -> Iterator[TraceContext]:
    """Record one span; yields its context (what a wire envelope would carry).

    The parent is, in order: the explicit ``parent`` argument (a decoded
    wire context or a stored submission trace), else the calling thread's
    current span, else none — in which case a fresh trace starts here.
    Durations are measured with the local monotonic clock and recorded
    locally; nothing here ever produces a wall-clock timestamp for a peer.
    """
    parent = parent or _current.get()
    context = TraceContext(
        trace_id=parent.trace_id if parent else new_trace_id(),
        span_id=new_span_id(),
    )
    token = _current.set(context)
    start = time.perf_counter()
    status = "ok"
    try:
        yield context
    except BaseException as error:
        status = f"error:{type(error).__name__}"
        raise
    finally:
        _current.reset(token)
        record: Dict[str, object] = {
            "name": name,
            "trace_id": context.trace_id,
            "span_id": context.span_id,
            "parent_span_id": parent.span_id if parent else None,
            "duration_s": round(time.perf_counter() - start, 6),
            "status": status,
        }
        if attrs:
            record["attrs"] = dict(attrs)
        (store or SPANS).record(record)


__all__ = [
    "SPANS",
    "SpanStore",
    "TraceContext",
    "WIRE_FIELDS",
    "context_from_wire",
    "context_to_wire",
    "current_trace",
    "new_span_id",
    "new_trace_id",
    "span",
]
