"""Structured JSONL event logging with one process-wide sink.

Events are small JSON objects — ``{"ts": ..., "event": ..., **fields}`` —
kept in a bounded in-memory ring (for tests and the ``/healthz`` style
introspection) and, when a path is configured (``an5d serve --event-log``
or the ``AN5D_EVENT_LOG`` environment variable), appended to a JSONL file
one line per event.  The file is the incident-time surface: ``grep`` it by
``"event"`` or ``"error_class"`` (see the README's Observability section).

Two delivery paths besides the ring:

* **File mirror** — size-capped and rotated in place (``events.jsonl`` →
  ``events.jsonl.1`` … ``.N``, newest suffix lowest), so a week-long
  campaign cannot grow the log unbounded (``an5d serve
  --event-log-max-bytes``).
* **Subscribers** — :meth:`EventLog.subscribe` hands out a bounded
  :class:`EventSubscription` queue that ``GET /events/stream`` and
  ``GET /campaigns/{id}/stream`` drain.  ``emit`` never blocks on a
  subscriber: when a queue is full the event is *dropped for that
  subscriber only* and counted in ``stream_dropped_total{reason}`` — a
  slow or dead reader can never wedge the worker.

Timestamps here are *local* (this process' wall clock, never sent to a
peer), so the no-timestamps-on-the-wire policy is untouched.

:func:`record_suppressed` is the satellite-1 contract: every retry loop
that deliberately swallows an exception routes it through here, which
increments ``errors_swallowed_total{site,error_class}`` and emits an
``error_suppressed`` event — a swallowed error is never silent again.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, get_registry

#: Per-subscriber queue depth; deep enough for a burst of job completions,
#: small enough that a dead reader costs bounded memory.
QUEUE_DEPTH = 512

#: Events the in-memory ring keeps.
RING_CAPACITY = 1000

#: Rotated generations kept beside the live file (``.1`` is the newest).
DEFAULT_KEEP_ROTATED = 3


def _drop_counter():
    return get_registry().counter(
        "stream_dropped_total",
        "Events dropped instead of blocking, by reason",
        labels=("reason",),
    )


class EventSubscription:
    """One subscriber's bounded view of the event stream.

    ``get`` is the timeout-aware single-event read the streaming handlers
    use to interleave keep-alives; it returns ``None`` once the
    subscription is closed.
    """

    _CLOSE = object()

    def __init__(
        self,
        log: "EventLog",
        events: Optional[frozenset] = None,
        predicate: Optional[Callable[[Dict[str, object]], bool]] = None,
    ) -> None:
        self._log = log
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=QUEUE_DEPTH)
        self._events = events
        self._predicate = predicate
        self._closed = threading.Event()
        self.dropped = 0

    def _offer(self, record: Dict[str, object]) -> bool:
        """Deliver without blocking; returns False when the event was dropped."""
        if self._closed.is_set():
            return True
        if self._events is not None and record.get("event") not in self._events:
            return True
        if self._predicate is not None and not self._predicate(record):
            return True
        try:
            self._queue.put_nowait(record)
            return True
        except queue.Full:
            self.dropped += 1
            return False

    def get(self, timeout: Optional[float] = None) -> Optional[Dict[str, object]]:
        """Next event, or ``None`` on timeout or once the stream is closed."""
        if self._closed.is_set() and self._queue.empty():
            return None
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is self._CLOSE:
            return None
        return item  # type: ignore[return-value]

    def close(self) -> None:
        """Detach from the log; pending events are discarded on next read."""
        if not self._closed.is_set():
            self._closed.set()
            self._log._unsubscribe(self)
            try:
                self._queue.put_nowait(self._CLOSE)
            except queue.Full:
                pass  # a reader blocked in get() will see _closed on timeout

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def __enter__(self) -> "EventSubscription":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class EventLog:
    """Thread-safe event sink: bounded ring, optional JSONL file, fan-out."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._ring: Deque[Dict[str, object]] = deque(maxlen=RING_CAPACITY)
        self._lock = threading.Lock()
        self._file_lock = threading.Lock()
        self._path: Optional[Path] = None
        self._max_bytes: Optional[int] = None
        self._keep_rotated = DEFAULT_KEEP_ROTATED
        self._subscribers: List[EventSubscription] = []
        if path:
            self.configure(path)

    def configure(
        self,
        path: Optional[Union[str, Path]],
        max_bytes: Optional[int] = None,
        keep_rotated: int = DEFAULT_KEEP_ROTATED,
    ) -> None:
        """Start (or stop, with ``None``) mirroring events to a JSONL file.

        ``max_bytes`` caps the live file: once an append pushes it past the
        cap it is rotated to ``<path>.1`` (existing generations shift up,
        the oldest beyond ``keep_rotated`` is deleted).
        """
        with self._file_lock:
            self._path = Path(path) if path else None
            self._max_bytes = int(max_bytes) if max_bytes else None
            self._keep_rotated = max(1, int(keep_rotated))
            if self._path is not None:
                self._path.parent.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Optional[Path]:
        with self._file_lock:
            return self._path

    # -- subscribers -------------------------------------------------------

    def subscribe(
        self,
        events: Optional[Union[str, List[str], frozenset]] = None,
        predicate: Optional[Callable[[Dict[str, object]], bool]] = None,
    ) -> EventSubscription:
        """Attach a bounded push subscriber (optionally filtered by kind).

        ``events`` restricts delivery to the named event kinds; ``predicate``
        is an arbitrary record filter evaluated on the emitting thread (keep
        it cheap).  Close the subscription (or use it as a context manager)
        to detach.
        """
        if isinstance(events, str):
            events = frozenset((events,))
        elif events is not None:
            events = frozenset(events)
        subscription = EventSubscription(self, events=events, predicate=predicate)
        with self._lock:
            self._subscribers.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: EventSubscription) -> None:
        # Only subscribe() makes subscriptions, and close() detaches once.
        with self._lock:
            self._subscribers.remove(subscription)

    # -- emission ----------------------------------------------------------

    def emit(self, event: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the record that was written."""
        record: Dict[str, object] = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
        with self._lock:
            self._ring.append(record)
            subscribers = list(self._subscribers)
        dropped = 0
        for subscription in subscribers:
            if not subscription._offer(record):
                dropped += 1
        if dropped:
            _drop_counter().inc(dropped, reason="slow_subscriber")
        self._write_line(line)
        return record

    def _write_line(self, line: str) -> None:
        with self._file_lock:
            path, max_bytes = self._path, self._max_bytes
            if path is None:
                return
            try:
                with path.open("a") as handle:
                    handle.write(line + "\n")
                    size = handle.tell()
                if max_bytes is not None and size >= max_bytes:
                    self._rotate_locked(path)
            except OSError:
                pass  # observability must never take the workload down

    def _rotate_locked(self, path: Path) -> None:
        """Shift ``path`` → ``.1`` → ``.2`` …, dropping beyond keep_rotated."""
        oldest = path.with_name(path.name + f".{self._keep_rotated}")
        if oldest.exists():
            oldest.unlink()
        for index in range(self._keep_rotated - 1, 0, -1):
            source = path.with_name(path.name + f".{index}")
            if source.exists():
                source.rename(path.with_name(path.name + f".{index + 1}"))
        path.rename(path.with_name(path.name + ".1"))

    def tail(self) -> List[Dict[str, object]]:
        """The events the ring still holds, oldest first."""
        with self._lock:
            return list(self._ring)


#: The process-wide sink; honours ``AN5D_EVENT_LOG`` at import.
EVENTS = EventLog(path=os.environ.get("AN5D_EVENT_LOG") or None)


def emit_event(event: str, **fields: object) -> Dict[str, object]:
    """Emit one structured event on the process-wide sink."""
    return EVENTS.emit(event, **fields)


def record_suppressed(
    site: str,
    error: BaseException,
    metrics: Optional[MetricsRegistry] = None,
    **fields: object,
) -> None:
    """Account for a deliberately swallowed exception (never let it be silent).

    Increments ``errors_swallowed_total{site,error_class}`` on the given
    registry (default: the process-wide one) and emits an
    ``error_suppressed`` event carrying the site, error class and message.
    """
    error_class = type(error).__name__
    registry = metrics if metrics is not None else get_registry()
    registry.counter(
        "errors_swallowed_total",
        "Errors swallowed by retry/supervision loops, by site and class",
        labels=("site", "error_class"),
    ).inc(site=site, error_class=error_class)
    emit_event(
        "error_suppressed",
        site=site,
        error_class=error_class,
        detail=str(error)[:500],
        **fields,
    )


__all__ = [
    "QUEUE_DEPTH",
    "EVENTS",
    "EventLog",
    "EventSubscription",
    "emit_event",
    "record_suppressed",
]
