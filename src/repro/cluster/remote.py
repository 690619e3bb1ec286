"""Wire-native store and registry: cluster members with no filesystem store.

A worker built on :class:`RemoteStore` commits results to the coordinator
over HTTP (``POST /results/commit``) instead of opening the shared SQLite
file — which is what lets workers run on boxes that cannot see the store at
all.  The class duck-types exactly the slice of
:class:`~repro.campaign.store.ResultStore` the scheduler and worker loop
touch (``put`` / ``statuses`` / ``has_ok``), so the entire campaign
execution path is unchanged; only the commit transport differs.

Durability & degradation
------------------------
Every result is appended to a local JSONL **journal** before anything goes
on the wire, and a background flush loop drains the journal to the
coordinator in batches:

* a flush that fails with a *retryable* error (coordinator down, 5xx) backs
  off — capped exponential + jitter — and tries again, rotating through
  every known store-native peer (:func:`~repro.cluster.client.post_any`),
  which is how a worker re-resolves the coordinator after a failover;
* results keep accumulating in the journal meanwhile, so a worker that
  outlives a coordinator outage loses nothing, and a worker that *crashes*
  mid-outage replays its journal on restart;
* replay is safe because commits are idempotent by construction — job keys
  are content addresses and the receiving store only upgrades non-``ok``
  rows (:meth:`~repro.campaign.store.ResultStore.commit_records`).

:class:`RemoteRegistry` is the matching membership client: register /
heartbeat / deregister over the wire, with **no timestamps in any
envelope** — the receiver stamps arrivals with its own clock, so a wire
member's liveness is immune to its wall-clock skew.  Heartbeat responses
carry the live store-native peer URLs, which feed the store's candidate
rotation.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.jobs import JobSpec
from repro.campaign.store import RECORD_FIELDS, make_record
from repro.cluster.client import (
    ClusterClient,
    ClusterError,
    ClusterHTTPError,
    backoff_delay,
    is_retryable,
    post_any,
)
from repro.obs import MetricsRegistry, get_registry, record_suppressed
from repro.obs.trace import context_to_wire, current_trace

#: Seconds between journal flush attempts when the previous one succeeded.
DEFAULT_FLUSH_INTERVAL = 0.2

#: Records per commit request (bounds request size, not correctness).
FLUSH_BATCH = 200


class RemoteStore:
    """The scheduler-facing store subset, served over the cluster wire."""

    def __init__(
        self,
        url: str,
        journal: Union[str, Path],
        client: Optional[ClusterClient] = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
    ) -> None:
        self._primary = url.rstrip("/")
        self._peers: List[str] = []
        self.journal = Path(journal)
        self.client = client or ClusterClient()
        self.flush_interval = float(flush_interval)
        self.metrics = get_registry()
        self._lock = threading.Lock()
        self._pending: List[Dict[str, object]] = []
        self._kick = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._flush_failures = 0  # consecutive, drives the backoff ceiling
        self._load_journal()
        self._start_flusher()

    def set_metrics(self, metrics: MetricsRegistry) -> None:
        """Adopt an instance's registry (a wire store serves one member)."""
        self.metrics = metrics
        self._set_journal_gauge(self.pending_count())

    def _set_journal_gauge(self, depth: int) -> None:
        self.metrics.gauge(
            "journal_pending", "Results journaled locally, not yet acknowledged"
        ).set(float(depth))

    # -- identity ---------------------------------------------------------------
    @property
    def path(self) -> str:
        """What this "store" points at (shown by /healthz and the CLI)."""
        return f"wire:{self._primary}"

    @property
    def urls(self) -> List[str]:
        """Commit candidates: the last URL that worked first, then peers."""
        with self._lock:
            return [self._primary] + [u for u in self._peers if u != self._primary]

    def update_peers(self, urls: Sequence[str]) -> None:
        """Refresh the candidate rotation from a heartbeat response."""
        with self._lock:
            self._peers = [str(u).rstrip("/") for u in urls]

    def pending_count(self) -> int:
        """Results journaled locally but not yet acknowledged by a peer."""
        with self._lock:
            return len(self._pending)

    # -- journal ----------------------------------------------------------------
    def _load_journal(self) -> None:
        """Replay unacknowledged records from a previous process (crash-safe)."""
        if not self.journal.exists():
            self.journal.parent.mkdir(parents=True, exist_ok=True)
            return
        records: List[Dict[str, object]] = []
        for line in self.journal.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a crash mid-append
            if isinstance(record, dict) and all(f in record for f in RECORD_FIELDS):
                records.append(record)
        self._pending = records
        self._set_journal_gauge(len(records))

    def _append_journal(self, record: Dict[str, object]) -> None:
        with self.journal.open("a") as handle:
            handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            )

    def _rewrite_journal(self) -> None:
        """Journal = exactly the unacknowledged records (called under lock)."""
        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self._pending
        ]
        tmp = self.journal.with_suffix(self.journal.suffix + ".tmp")
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
        tmp.replace(self.journal)

    # -- store subset the scheduler uses ----------------------------------------
    def put(
        self,
        spec: JobSpec,
        payload: Dict[str, object],
        status: str = "ok",
        elapsed_s: float = 0.0,
    ) -> str:
        """Journal one result and wake the flush loop; returns the job key.

        The journal append happens *before* any network attempt, so a crash
        at any point after ``put`` returns cannot lose the result.
        """
        record = make_record(spec, payload, status, elapsed_s)
        trace = current_trace()
        if trace is not None:
            # The run span's context rides the journal and the commit wire
            # (the receiver strips it before the row — exports never change).
            record["trace"] = context_to_wire(trace)
        with self._lock:
            self._append_journal(record)
            self._pending.append(record)
            depth = len(self._pending)
        self._set_journal_gauge(depth)
        self._kick.set()
        return str(record["key"])

    def statuses(self, keys: Sequence[str]) -> Dict[str, str]:
        """Status by key: the peer's view overlaid with our unflushed results.

        The overlay matters twice: a worker mid-outage still dedupes against
        its own journaled results, and progress counts never regress while a
        commit is in flight.  When no peer is reachable the journal alone
        answers (degraded but correct: absent keys read as pending).
        """
        keys = list(keys)
        try:
            _, out = post_any(
                self.client,
                self.urls,
                lambda url: self.client.result_statuses(url, keys),
            )
        except ClusterError as error:
            # Degraded but correct (the journal answers); never silent.
            record_suppressed("remote.statuses", error, metrics=self.metrics)
            out = {}
        with self._lock:
            pending = {str(r["key"]): str(r["status"]) for r in self._pending}
        for key in keys:
            if key in pending:
                out[key] = pending[key]
        return out

    def has_ok(self, spec: JobSpec) -> bool:
        key = spec.key()
        return self.statuses([key]).get(key) == "ok"

    # -- flush loop --------------------------------------------------------------
    def flush(self) -> int:
        """Drain the journal now; returns how many records were acknowledged.

        Raises the transport error when no candidate peer accepts the batch
        (callers that must not fail — the background loop — catch and back
        off; callers that want the error — tests, close() — see it).
        """
        acknowledged = 0
        while True:
            with self._lock:
                batch = self._pending[:FLUSH_BATCH]
            if not batch:
                return acknowledged
            url, _ = post_any(
                self.client,
                self.urls,
                lambda url: self.client.commit_results(url, batch),
            )
            with self._lock:
                # A peer acknowledged: rotate it to the front and drop the
                # batch (by identity — put() only ever appends).
                self._primary = url
                self._pending = self._pending[len(batch):]
                self._rewrite_journal()
                depth = len(self._pending)
            self._set_journal_gauge(depth)
            acknowledged += len(batch)

    def _flush_loop(self) -> None:
        while not self._stop.is_set():
            self._kick.wait(timeout=self.flush_interval)
            self._kick.clear()
            if self._stop.is_set():
                return
            try:
                self.flush()
                self._flush_failures = 0
            except ClusterError as error:
                # Coordinator gone (or every peer 5xx-ing): back off with
                # jitter so N workers do not stampede the next coordinator,
                # but never stop — the journal holds everything meanwhile.
                delay = backoff_delay(self._flush_failures)
                self._flush_failures += 1
                self.metrics.counter(
                    "flush_failures_total", "Journal flush attempts no peer accepted"
                ).inc()
                self.metrics.histogram(
                    "flush_backoff_seconds", "Backoff delays between flush retries"
                ).observe(delay)
                record_suppressed("remote.flush_loop", error, metrics=self.metrics)
                self._stop.wait(timeout=delay)

    def _start_flusher(self) -> None:
        self._thread = threading.Thread(
            target=self._flush_loop, name="remote-store-flush", daemon=True
        )
        self._thread.start()

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Stop the flush loop, attempting one final drain first."""
        try:
            self.flush()
        except ClusterError as error:
            # The journal keeps the leftovers for the next process.
            record_suppressed("remote.close", error, metrics=self.metrics)
        self._stop.set()
        self._kick.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class RemoteRegistry:
    """Register / heartbeat / deregister against a store-native peer.

    Mirrors the :class:`~repro.cluster.registry.InstanceRegistry` surface the
    service app uses, but over HTTP — and deliberately sends **no
    timestamps**: the receiver stamps heartbeat arrivals with its own clock
    (see the registry module's clock policy), which is what makes a wire
    member's liveness independent of its local wall clock.
    """

    def __init__(self, store: RemoteStore) -> None:
        self.remote = store
        self.client = store.client
        self._registration: Optional[Dict[str, object]] = None

    def _send(self, send) -> Dict[str, object]:
        _, answer = post_any(self.client, self.remote.urls, send)
        self._absorb_peers(answer)
        return answer

    def _absorb_peers(self, answer: Dict[str, object]) -> None:
        peers = answer.get("peers")
        if isinstance(peers, list):
            self.remote.update_peers([str(p) for p in peers])

    def register(
        self,
        instance_id: str,
        host: str,
        port: int,
        role: str = "worker",
        capabilities: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        registration = {
            "instance_id": instance_id,
            "host": host,
            "port": int(port),
            "role": role,
            "capabilities": capabilities or {},
        }
        answer = self._send(
            lambda url: self.client.register(url, **registration)  # type: ignore[arg-type]
        )
        self._registration = registration
        return answer

    def heartbeat(self, instance_id: str) -> bool:
        """One wire heartbeat; re-registers when the peer lost our row.

        A failover (or an operator wiping the instances table) leaves the
        new coordinator without this member — the heartbeat answers
        ``ok: false`` and the cached registration is replayed.
        """
        try:
            answer = self._send(
                lambda url: self.client.heartbeat(url, instance_id)
            )
        except (ClusterError, ClusterHTTPError) as error:
            if not is_retryable(error):
                raise
            # Unreachable: try again next interval — counted, not silent.
            record_suppressed("remote.heartbeat", error, metrics=self.remote.metrics)
            return False
        if not answer.get("ok", False) and self._registration is not None:
            answer = self._send(
                lambda url: self.client.register(url, **self._registration)  # type: ignore[arg-type]
            )
            return bool(answer.get("ok", True))
        return bool(answer.get("ok", False))

    record_heartbeat = heartbeat

    def deregister(self, instance_id: str) -> bool:
        try:
            answer = self._send(
                lambda url: self.client.deregister(url, instance_id)
            )
        except ClusterError as error:
            # Shutting down while the peer is gone — fine, but accounted.
            record_suppressed("remote.deregister", error, metrics=self.remote.metrics)
            return False
        return bool(answer.get("ok", False))


__all__ = ["RemoteRegistry", "RemoteStore", "DEFAULT_FLUSH_INTERVAL", "FLUSH_BATCH"]
