"""Instrumented in-process caches with single-flight build deduplication.

One small primitive serves every read-through cache in the repo — the
service's hot model-batch cache, materialised report/export objects, the
coordinator's status payloads:

* **LRU over a plain dict** — bounded capacity, thread-safe, eviction in
  insertion-recency order;
* **single-flight** — when N threads miss on the same key concurrently,
  exactly one runs the builder; the others block on an event and share the
  one result, so a stampede of identical ``POST /predict`` requests costs
  one batch-model evaluation, not N;
* **metrics** — every cache reports ``cache_hits_total{cache}``,
  ``cache_misses_total{cache}`` and ``cache_evictions_total{cache}`` to the
  owning registry, plus a ``cache_singleflight_wait_seconds`` histogram of
  how long followers waited on a leader's build.

Values are never copied: callers must treat cached objects as immutable
(every current user caches frozen dataclasses, tuples or rendered payloads).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

from repro.obs.metrics import MetricsRegistry, get_registry

T = TypeVar("T")

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISSING = object()


class SingleFlightCache:
    """A bounded LRU cache whose misses are built once per key, not per caller."""

    def __init__(
        self,
        name: str,
        capacity: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self.metrics = metrics if metrics is not None else get_registry()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        # key -> the build-in-progress event followers wait on.
        self._building: Dict[Hashable, threading.Event] = {}

    # -- metrics helpers -------------------------------------------------------
    def _count(self, verb: str, amount: int = 1) -> None:
        self.metrics.counter(
            f"cache_{verb}_total", f"Cache {verb} by cache name", labels=("cache",)
        ).inc(float(amount), cache=self.name)

    # -- plain access ----------------------------------------------------------
    def get(self, key: Hashable) -> Tuple[object, bool]:
        """``(value, True)`` on a hit, ``(None, False)`` on a miss (counted)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._count("hits")
                return value, True
        self._count("misses")
        return None, False

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) one entry, evicting the least recently used."""
        with self._lock:
            self._store_locked(key, value)

    def _store_locked(self, key: Hashable, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        if evicted:
            self._count("evictions", evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- single-flight ---------------------------------------------------------
    def get_or_build(
        self, key: Hashable, builder: Callable[[], T]
    ) -> Tuple[T, bool]:
        """The cached value for ``key``, building it at most once concurrently.

        Returns ``(value, hit)``.  The *leader* (first caller to miss) runs
        ``builder`` outside the lock and counts a miss; *followers* arriving
        during the build wait on its event, record their wait in the
        ``cache_singleflight_wait_seconds`` histogram and count a hit — they
        were served without paying for a build.  A builder that raises
        releases the followers, and the first of them retries as the new
        leader, so one failed build never wedges the key.
        """
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    self._count("hits")
                    return value, True  # type: ignore[return-value]
                event = self._building.get(key)
                if event is None:
                    self._building[key] = threading.Event()
                    break  # this caller is the leader
            # Follower: wait out the leader's build, then re-check the cache.
            waited_from = time.perf_counter()
            event.wait()
            self.metrics.histogram(
                "cache_singleflight_wait_seconds",
                "Time spent waiting on another caller's in-flight cache build",
                labels=("cache",),
            ).observe(time.perf_counter() - waited_from, cache=self.name)
        self._count("misses")
        try:
            value = builder()
        except BaseException:
            with self._lock:
                pending = self._building.pop(key, None)
            if pending is not None:
                pending.set()
            raise
        with self._lock:
            self._store_locked(key, value)
            pending = self._building.pop(key, None)
        if pending is not None:
            pending.set()
        return value, False


__all__ = ["SingleFlightCache"]
