"""The campaign service application and its stdlib HTTP server.

:class:`CampaignApp` owns the shared :class:`~repro.campaign.store.ResultStore`
(WAL mode, one connection per thread) and the async
:class:`~repro.service.worker.CampaignWorker`; its handler methods implement
the endpoints listed in :mod:`repro.service.routes` and are plain functions
over :class:`~repro.service.routes.Request`, so the whole service can be
exercised without a socket.

With a :class:`~repro.cluster.registry.ClusterConfig` the app becomes a
cluster member: it registers itself in the store's instance registry, runs a
heartbeat thread, accepts coordinator shard assignments on
``POST /campaigns/assigned``, and — in the coordinator role — accepts whole
campaigns on ``POST /cluster/campaigns``, fans shards out to live instances
and supervises re-assignment on a monitor thread.

:class:`CampaignServer` wraps the app in a ``ThreadingHTTPServer``: request
threads only ever read the store and enqueue work; the worker loop owns all
campaign execution.  Bind to port ``0`` for an ephemeral port (tests, CI).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union
from urllib.parse import parse_qsl, urlsplit

import repro
from repro.campaign.report import REPORTS, report_options
from repro.campaign.store import ResultStore
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.registry import ClusterConfig, InstanceRegistry
from repro.cluster.remote import RemoteStore
from repro.obs import (
    EVENTS,
    SPANS,
    MetricsRegistry,
    SingleFlightCache,
    profile_for,
    record_suppressed,
    span,
)
from repro.obs.events import EventSubscription
from repro.obs.top import code_version_report, telemetry_deltas
from repro.service.hotcache import HotModelCache
from repro.service.routes import Request, Response, dispatch, route_table
from repro.service.worker import CampaignWorker, QueueFull, WorkerSettings
from repro.service.wire import (
    JSONL_TYPE,
    TEXT_TYPE,
    WireError,
    decode_assignment,
    decode_instance_id,
    decode_member,
    decode_predict_request,
    decode_result_records,
    decode_status_query,
    decode_submit,
    decode_tune_request,
    etag,
    render_table,
    spec_summary,
)

#: Prometheus text exposition content type served by ``GET /metrics``.
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Event kinds a campaign stream delivers, and the ones that end it.
_CAMPAIGN_STREAM_EVENTS = frozenset(
    {"campaign_run_started", "job_finished", "campaign_run_finished", "campaign_failed"}
)
_CAMPAIGN_TERMINAL_EVENTS = frozenset({"campaign_run_finished", "campaign_failed"})


def _event_line(record: Dict[str, object]) -> bytes:
    """One stream record as a canonical JSONL line."""
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


class CampaignApp:
    """Endpoint handlers over one store, one worker and (optionally) a cluster."""

    #: Telemetry snapshots kept in the store (older ones are pruned).
    TELEMETRY_KEEP = 1000

    def __init__(
        self,
        store: Union[str, Path, ResultStore, RemoteStore] = "campaign.sqlite",
        settings: Optional[WorkerSettings] = None,
        cluster: Optional[ClusterConfig] = None,
        telemetry_interval: Optional[float] = None,
    ) -> None:
        # Each app gets its *own* registry: in-process multi-instance
        # topologies then serve genuinely per-instance /metrics, and tests
        # assert exact counts.
        self.metrics = MetricsRegistry()
        # Most recent trace id seen by any span-opening handler; attached to
        # the request-latency histogram as an OpenMetrics exemplar so a
        # scrape links straight into ``GET /trace/{id}``.
        self.last_trace_id: Optional[str] = None
        # Telemetry history: with an interval, a background thread persists
        # ``metrics.snapshot()`` into the store's (timestamped, non-exported)
        # telemetry table every ``telemetry_interval`` seconds, pruned to the
        # newest ``TELEMETRY_KEEP`` rows.
        self.telemetry_interval = telemetry_interval
        self._telemetry_stop = threading.Event()
        self._telemetry_thread: Optional[threading.Thread] = None
        self._owns_store = not isinstance(store, (ResultStore, RemoteStore))
        if self._owns_store:
            self.store = ResultStore(store, metrics=self.metrics)
        else:
            self.store = store
            if isinstance(store, RemoteStore):
                # A wire store serves exactly one member; its journal gauge
                # and flush histograms belong on this instance's /metrics.
                store.set_metrics(self.metrics)
        self.worker = CampaignWorker(self.store, settings, metrics=self.metrics)
        # The interactive tier: the hot model cache behind /predict and
        # /tune, plus read-through caches over the store's report, export
        # and cluster-status reads.  The read-through keys embed the store's
        # write generation, so invalidation is automatic (and scoped: only
        # *result* writes evict reports/exports, heartbeat churn does not).
        # Every cache honours ``?cache=off``; generations are per-process,
        # so a second process writing the same SQLite file must be polled
        # with ``cache=off`` (documented on ResultStore.generation).
        self.hot = HotModelCache(metrics=self.metrics)
        self._report_cache = SingleFlightCache("report", capacity=128, metrics=self.metrics)
        self._export_cache = SingleFlightCache("export", capacity=64, metrics=self.metrics)
        self._status_cache = SingleFlightCache("cluster_status", capacity=8, metrics=self.metrics)
        self.cluster = cluster
        self.registry = None  # InstanceRegistry | RemoteRegistry
        self.coordinator: Optional[ClusterCoordinator] = None
        self._endpoint: Optional[tuple] = None  # (host, port) once bound
        self._cluster_stop = threading.Event()
        self._cluster_threads: List[threading.Thread] = []
        if isinstance(self.store, RemoteStore):
            # Wire-native member: no filesystem access to the store, so it
            # can neither coordinate (no submissions table) nor answer the
            # store-native routes — it executes shards and commits over HTTP.
            if cluster is None:
                raise ValueError(
                    "a wire-native store needs a ClusterConfig (the member "
                    "must register with its coordinator)"
                )
            if cluster.coordinates:
                raise ValueError(
                    "a wire-native member cannot coordinate: the coordinator "
                    "role needs direct store access (leases, submission queue)"
                )
            # Imported lazily only to keep module import order obvious; the
            # registry speaks to whichever store-native peer answers.
            from repro.cluster.remote import RemoteRegistry

            self.registry = RemoteRegistry(self.store)
        elif cluster is not None:
            self.registry = InstanceRegistry(
                self.store, liveness_timeout=cluster.liveness_timeout
            )
            self.coordinator = ClusterCoordinator(
                self.store,
                self.registry,
                instance_id=cluster.instance_id,
                lease_ttl=cluster.liveness_timeout,
                metrics=self.metrics,
            )

    @property
    def store_native(self) -> bool:
        """Whether this instance holds the SQLite store itself."""
        return isinstance(self.store, ResultStore)

    # -- lifecycle -------------------------------------------------------------
    def set_endpoint(self, host: str, port: int) -> None:
        """Record the HTTP address this app is reachable at (pre-``start``)."""
        self._endpoint = (host, int(port))

    def start(self) -> None:
        self.worker.start()
        if self.telemetry_interval and self.store_native:
            self._telemetry_stop.clear()
            self._telemetry_thread = threading.Thread(
                target=self._telemetry_loop, name="telemetry-snapshots", daemon=True
            )
            self._telemetry_thread.start()
        if self.cluster is None:
            return
        if self._endpoint is None:
            raise RuntimeError("cluster mode needs set_endpoint() before start()")
        host, port = self._endpoint
        self.registry.register(
            self.cluster.instance_id,
            host,
            port,
            role=self.cluster.role,
            capabilities={
                "workers": self.worker.settings.workers,
                "concurrency": self.worker.settings.concurrency,
                # Advertised so peers know who can receive wire commits:
                # only store-native members answer /results/commit.
                "store": "native" if self.store_native else "wire",
            },
        )
        self._cluster_stop.clear()
        self._cluster_threads = [
            threading.Thread(
                target=self._heartbeat_loop, name="cluster-heartbeat", daemon=True
            )
        ]
        if self.cluster.coordinates:
            self._cluster_threads.append(
                threading.Thread(
                    target=self._monitor_loop, name="cluster-monitor", daemon=True
                )
            )
        for thread in self._cluster_threads:
            thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._cluster_stop.wait(self.cluster.heartbeat_interval):
            try:
                self.registry.heartbeat(self.cluster.instance_id)
            except Exception as error:  # noqa: BLE001 — a missed beat is not fatal
                record_suppressed(
                    "app.heartbeat_loop", error, metrics=self.metrics,
                    instance=self.cluster.instance_id,
                )

    def _monitor_loop(self) -> None:
        while not self._cluster_stop.wait(self.cluster.heartbeat_interval):
            try:
                self.coordinator.tick()
            except Exception as error:  # noqa: BLE001 — supervision must keep running
                record_suppressed(
                    "app.monitor_loop", error, metrics=self.metrics,
                    instance=self.cluster.instance_id,
                )

    def _instance_label(self) -> str:
        """How this instance identifies itself in telemetry rows."""
        if self.cluster is not None:
            return self.cluster.instance_id
        if self._endpoint is not None:
            host, port = self._endpoint
            return f"{host}:{port}"
        return "solo"

    def _telemetry_loop(self) -> None:
        while not self._telemetry_stop.wait(self.telemetry_interval):
            self.record_telemetry_snapshot()

    def record_telemetry_snapshot(self) -> Optional[int]:
        """Persist one metrics snapshot into the store's telemetry table.

        Deliberately *outside* the content-addressed results namespace (its
        rows are explicitly timestamped), so exports stay byte-identical no
        matter how much history accumulates; the write bumps only the
        ``telemetry`` generation, leaving report/export caches warm.
        """
        if not self.store_native:
            return None
        try:
            row_id = self.store.record_telemetry(
                self._instance_label(),
                self.metrics.snapshot(),
                code_version=repro.__version__,
            )
            self.store.prune_telemetry(self.TELEMETRY_KEEP)
            return row_id
        except Exception as error:  # noqa: BLE001 — history must not kill serving
            record_suppressed("app.telemetry_snapshot", error, metrics=self.metrics)
            return None

    def _stop_telemetry(self) -> None:
        self._telemetry_stop.set()
        if self._telemetry_thread is not None:
            self._telemetry_thread.join(timeout=5.0)
            self._telemetry_thread = None

    def _stop_cluster(self, deregister: bool) -> None:
        self._cluster_stop.set()
        for thread in self._cluster_threads:
            thread.join(timeout=5.0)
        self._cluster_threads = []
        if deregister and self.cluster is not None and self.registry is not None:
            if self.coordinator is not None and self.cluster.coordinates:
                # Graceful exit hands the lease back so a standby takes over
                # immediately instead of waiting out the TTL.
                try:
                    self.coordinator.release_lease()
                except Exception as error:  # noqa: BLE001 — the store may already be gone
                    record_suppressed(
                        "app.release_lease", error, metrics=self.metrics,
                        instance=self.cluster.instance_id,
                    )
            try:
                self.registry.deregister(self.cluster.instance_id)
            except Exception as error:  # noqa: BLE001 — the store may already be gone
                record_suppressed(
                    "app.deregister", error, metrics=self.metrics,
                    instance=self.cluster.instance_id,
                )

    def close(self) -> None:
        # A graceful shutdown leaves the registry (the cluster's
        # source of truth) without this instance, so coordinators stop
        # planning work onto it immediately instead of after a heartbeat
        # lapse.
        self._stop_cluster(deregister=True)
        stopped = self.worker.stop()
        if self._telemetry_thread is not None:
            # One final snapshot so short-lived serves still leave history.
            self._stop_telemetry()
            if stopped:
                self.record_telemetry_snapshot()
        if isinstance(self.store, RemoteStore) and stopped:
            # Final journal drain (best effort) + flush-thread shutdown.
            self.store.close()
        # If the worker could not drain in time, a campaign is still running
        # on its executor thread; leaking the store beats yanking SQLite
        # connections out from under an in-flight commit.
        if self._owns_store and stopped:
            self.store.close()

    def kill(self) -> None:
        """Simulate a crash: no drain, no deregistration, heartbeats stop.

        The instance's registry row stays behind with an aging heartbeat —
        exactly what a SIGKILL leaves — so coordinator re-assignment can be
        exercised in-process.
        """
        self._stop_telemetry()
        self._stop_cluster(deregister=False)
        self.worker.kill()

    def handle(self, request: Request) -> Response:
        return dispatch(self, request)

    # -- endpoint handlers -----------------------------------------------------
    def health(self, request: Request) -> Response:
        payload = {
            "status": "ok",
            "version": repro.__version__,
            "store": self.store.path,
            "campaigns": len(self.worker.records()),
            "routes": route_table(),
        }
        if self.store_native:
            payload["results"] = self.store.count()
        else:
            # A wire member's local truth is its journal: how many results
            # it has finished but not yet gotten acknowledged by a peer.
            payload["journal_pending"] = self.store.pending_count()
        if self.cluster is not None:
            payload["cluster"] = {
                "instance_id": self.cluster.instance_id,
                "role": self.cluster.role,
                "store": "native" if self.store_native else "wire",
            }
        return Response.json(payload)

    def metrics_endpoint(self, request: Request) -> Response:
        """This instance's registry in Prometheus text exposition format."""
        return Response(
            body=self.metrics.render().encode("utf-8"), content_type=METRICS_TYPE
        )

    def trace_endpoint(self, request: Request, tid: str) -> Response:
        """The span tree this process recorded for one trace id."""
        tree = SPANS.tree(tid)
        if tree is None:
            raise WireError(f"unknown trace {tid!r}", status=404)
        return Response.json(tree)

    # -- live observability plane -----------------------------------------------
    def profile_endpoint(self, request: Request) -> Response:
        """Sample this process for N seconds; folded-stack (collapse) text.

        Blocks one handler thread for the window — fine under the threading
        server — and shares the refcounted process profiler, so concurrent
        windows and armed hot paths compose.
        """
        seconds = float(request.param("seconds", "2"))
        if not 0.0 < seconds <= 60.0:
            raise WireError("seconds must be in (0, 60]")
        folded, samples = profile_for(seconds, metrics=self.metrics)
        body = folded.encode("utf-8")
        return Response(
            body=body,
            content_type=TEXT_TYPE,
            headers={"X-Profile-Samples": str(samples)},
        )

    def _stream_response(
        self,
        subscription: EventSubscription,
        timeout_s: float,
        max_events: int = 0,
        opening: Optional[Dict[str, object]] = None,
        terminal: Optional[Callable[[Dict[str, object]], bool]] = None,
    ) -> Response:
        """Chunked JSONL push stream over one event subscription.

        The subscriber's queue is bounded and fed with ``put_nowait`` on the
        emitting thread, so a stalled (or dead) reader can never wedge a
        worker: overflow is dropped and counted on this instance's registry
        as ``stream_dropped_total{reason="slow_subscriber"}``.  Idle seconds
        emit a blank keep-alive line, which doubles as prompt dead-client
        detection; the subscription is detached however the stream ends.
        """
        drops = self.metrics.counter(
            "stream_dropped_total",
            "Events dropped because a stream subscriber was too slow",
            labels=("reason",),
        )

        def generate() -> Iterator[bytes]:
            sent = 0
            dropped_seen = 0
            deadline = time.monotonic() + timeout_s
            try:
                if opening is not None:
                    yield _event_line(opening)
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
                    record = subscription.get(timeout=min(1.0, remaining))
                    if subscription.dropped > dropped_seen:
                        drops.inc(
                            subscription.dropped - dropped_seen,
                            reason="slow_subscriber",
                        )
                        dropped_seen = subscription.dropped
                    if record is None:
                        if subscription.closed:
                            return
                        yield b"\n"
                        continue
                    yield _event_line(record)
                    sent += 1
                    if terminal is not None and terminal(record):
                        return
                    if max_events and sent >= max_events:
                        return
            finally:
                subscription.close()

        return Response(content_type=JSONL_TYPE, stream=generate())

    def events_stream(self, request: Request) -> Response:
        """Long-lived push stream of this instance's structured events.

        ``?event=a,b`` filters to the named kinds; ``?timeout=`` bounds the
        stream's lifetime; ``?max_events=`` ends it after N deliveries
        (tests, scripted consumers).
        """
        raw_kinds = request.query.get("event", "")
        kinds = frozenset(kind for kind in raw_kinds.split(",") if kind) or None
        timeout_s = min(float(request.param("timeout", "3600")), 86400.0)
        max_events = int(request.param("max_events", "0"))
        subscription = EVENTS.subscribe(events=kinds)
        return self._stream_response(subscription, timeout_s, max_events)

    def campaign_stream(self, request: Request, cid: str) -> Response:
        """Push stream of one campaign's lifecycle: every per-job completion
        as it lands, ending with the terminal ``campaign_run_finished`` (or
        ``campaign_failed``) line.

        Subscribes *before* reading the campaign's state, so a completion
        racing the request is never missed; ``?wait=1`` allows subscribing
        ahead of submission (the id is then taken on faith).
        """
        wait = request.param("wait", "0") not in ("0", "", "false", "no")
        timeout_s = min(float(request.param("timeout", "600")), 86400.0)
        max_events = int(request.param("max_events", "0"))
        subscription = EVENTS.subscribe(
            events=_CAMPAIGN_STREAM_EVENTS,
            predicate=lambda record: record.get("campaign") == cid,
        )
        status = self.worker.status(cid)
        if status is None and not wait:
            subscription.close()
            raise WireError(
                f"unknown campaign {cid!r} (pass wait=1 to stream ahead of "
                "submission)",
                status=404,
            )
        state = str(status.get("state", "unknown")) if status else "unknown"
        if status is not None and state in ("done", "failed") and not wait:
            # Already terminal: nothing will ever arrive — close now so the
            # stream is just the opening line instead of a timeout wait.
            subscription.close()
        opening = {"event": "stream_open", "campaign": cid, "state": state}
        return self._stream_response(
            subscription,
            timeout_s,
            max_events,
            opening=opening,
            terminal=lambda record: record.get("event") in _CAMPAIGN_TERMINAL_EVENTS,
        )

    def telemetry_history(self, request: Request) -> Response:
        """Persisted metrics snapshots plus the regression-delta report."""
        store = self._require_store_native()
        limit = int(request.param("limit", "50"))
        rows = store.telemetry_rows(
            instance_id=request.query.get("instance"),
            code_version=request.query.get("code_version"),
            limit=limit,
        )
        return Response.json(
            {
                "snapshots": rows,
                "deltas": telemetry_deltas(rows),
                "code_versions": code_version_report(rows),
            }
        )

    # -- interactive fast path --------------------------------------------------
    def predict_endpoint(self, request: Request) -> Response:
        """Synchronous model prediction from the hot cache (no queue, no store)."""
        spec, trace = decode_predict_request(request.body)
        with span("predict.sync", parent=trace, job=spec.key()[:12]) as ctx:
            payload, hit = self.hot.predict(spec)
        self.last_trace_id = ctx.trace_id
        return Response.json(
            {
                "kind": "predict",
                "key": spec.key(),
                "cached": hit,
                "result": payload,
                "trace_id": ctx.trace_id,
            }
        )

    def tune_endpoint(self, request: Request) -> Response:
        """Synchronous autotuning re-entered from the cached stage-1 ranking."""
        spec, trace = decode_tune_request(request.body)
        with span("tune.sync", parent=trace, job=spec.key()[:12]) as ctx:
            payload, hit = self.hot.tune(spec)
        self.last_trace_id = ctx.trace_id
        return Response.json(
            {
                "kind": "tune",
                "key": spec.key(),
                "cached": hit,
                "result": payload,
                "trace_id": ctx.trace_id,
            }
        )

    @staticmethod
    def _queue_full(error: QueueFull) -> Response:
        retry_after = str(error.retry_after)
        return Response.json(
            {"error": str(error), "retry_after_s": error.retry_after},
            status=429,
            **{"Retry-After": retry_after},
        )

    def submit_campaign(self, request: Request) -> Response:
        spec, trace = decode_submit(request.body)
        with span("campaign.submit", parent=trace, campaign=spec.short_id()) as ctx:
            try:
                record = self.worker.submit(spec, trace=ctx)
            except QueueFull as error:
                return self._queue_full(error)
        self.last_trace_id = ctx.trace_id
        payload = {
            "id": record.id,
            "state": record.state,
            "runs": record.runs,
            "jobs": spec.size(),
            "url": f"/campaigns/{record.id}",
            "trace_id": ctx.trace_id,
            **spec_summary(spec),
        }
        return Response.json(payload, status=202)

    def assigned_campaign(self, request: Request) -> Response:
        """Coordinator forwarding target: run one shard plan of a campaign."""
        spec, plan, trace = decode_assignment(request.body)
        with span(
            "campaign.assigned",
            parent=trace,
            campaign=spec.short_id(),
            shard=plan.describe(),
        ) as ctx:
            try:
                record = self.worker.submit(spec, plan=plan, trace=ctx)
            except QueueFull as error:
                return self._queue_full(error)
        self.last_trace_id = ctx.trace_id
        payload = {
            "id": record.id,
            "state": record.state,
            "runs": record.runs,
            "shard_plan": plan.to_json(),
            "jobs": len(self.worker.job_keys(record.id) or ()),
            "url": f"/campaigns/{record.id}",
            "trace_id": ctx.trace_id,
        }
        return Response.json(payload, status=202)

    def list_campaigns(self, request: Request) -> Response:
        return Response.json(
            {"campaigns": [record.summary() for record in self.worker.records()]}
        )

    def campaign_status(self, request: Request, cid: str) -> Response:
        status = self.worker.status(cid)
        if status is None:
            raise WireError(f"unknown campaign {cid!r}", status=404)
        return Response.json(status)

    def _require_store_native(self) -> ResultStore:
        """The routes that read or write store rows directly need the store."""
        if not self.store_native:
            raise WireError(
                "this instance is wire-native (no store access); ask a "
                "store-native member (the coordinator)",
                status=409,
            )
        return self.store

    def _render_report(self, request: Request, keys: Sequence[str]) -> Response:
        self._require_store_native()
        kind = request.param("kind", "table5")
        builder = REPORTS.get(kind)
        if builder is None:
            raise WireError(
                f"unknown report kind {kind!r}; available: {', '.join(REPORTS)}"
            )
        options = report_options(kind, request.query)
        # Scoped to the addressed campaign's job keys: sharing a store with
        # other campaigns never leaks their rows into this report.  (For a
        # store holding just this campaign that is exactly what
        # `an5d campaign report --store ...` renders.)
        #
        # The materialised report — built table *and* rendered bytes, both
        # deterministic for a given store state — is read-through cached,
        # keyed on the store's *results* write generation: any
        # commit/put/purge evicts by key change, while heartbeats (cluster
        # generation) leave it warm.
        fmt = request.param("format", "json")

        def build() -> tuple:
            return render_table(builder(self.store, keys=keys, **options), fmt)

        if request.param("cache", "on") == "off":
            body, content_type = build()
        else:
            cache_key = (
                self.store.generation("results"),
                kind,
                tuple(sorted(options.items())),
                frozenset(keys),
                fmt,
            )
            (body, content_type), _ = self._report_cache.get_or_build(
                cache_key, build
            )
        return Response(body=body, content_type=content_type)

    def _stream_export(self, request: Request, keys: Sequence[str]) -> Response:
        store = self._require_store_native()
        ok_only = request.param("status", "ok") == "ok"
        key_set = frozenset(keys)

        def build() -> tuple:
            records = [
                record
                for record in store.export_records(ok_only=ok_only)
                if record["key"] in key_set
            ]
            lines = tuple(store.record_line(record) + "\n" for record in records)
            digest = etag("".join(lines).encode("utf-8"))
            return lines, digest, len(records)

        # Export lines are deterministic for a given store state, so the
        # rendered (lines, etag, count) triple caches under the results
        # generation.  The stream below re-encodes per request — the cached
        # tuple is immutable and shared.
        if request.param("cache", "on") == "off":
            lines, digest, count = build()
        else:
            (lines, digest, count), _ = self._export_cache.get_or_build(
                (store.generation("results"), ok_only, key_set), build
            )
        return Response(
            content_type=JSONL_TYPE,
            headers={"ETag": digest, "X-Result-Count": str(count)},
            stream=(line.encode("utf-8") for line in lines),
        )

    def campaign_report(self, request: Request, cid: str) -> Response:
        keys = self.worker.job_keys(cid)
        if keys is None:
            raise WireError(f"unknown campaign {cid!r}", status=404)
        return self._render_report(request, keys)

    def campaign_export(self, request: Request, cid: str) -> Response:
        keys = self.worker.job_keys(cid)
        if keys is None:
            raise WireError(f"unknown campaign {cid!r}", status=404)
        return self._stream_export(request, keys)

    # -- wire-native result path -----------------------------------------------
    def commit_results(self, request: Request) -> Response:
        """Receive a batch of result records from a wire-native worker.

        Idempotent by construction (content-addressed keys; the store only
        upgrades non-ok rows), so duplicated and replayed batches — retries,
        injected faults, two workers racing on a re-assigned shard — are
        absorbed without changing what an export will say.
        """
        store = self._require_store_native()
        records, trace = decode_result_records(request.body)
        now = self.registry.clock() if isinstance(self.registry, InstanceRegistry) else None
        if trace is not None:
            # The sender's run span rode the envelope; the commit itself is
            # a receiver-side child span (duration on *our* clock).
            with span("results.commit", parent=trace, records=len(records)) as ctx:
                written = store.commit_records(records, now=now)
            self.last_trace_id = ctx.trace_id
        else:
            written = store.commit_records(records, now=now)
        return Response.json(
            {"ok": True, "received": len(records), "committed": written}
        )

    def result_statuses(self, request: Request) -> Response:
        store = self._require_store_native()
        keys = decode_status_query(request.body)
        return Response.json({"statuses": store.statuses(keys)})

    # -- wire membership --------------------------------------------------------
    def _require_member_registry(self) -> InstanceRegistry:
        """Wire membership endpoints need the store-backed registry."""
        self._require_store_native()
        if not isinstance(self.registry, InstanceRegistry):
            raise WireError(
                "this instance is not a cluster member (start it with --cluster)",
                status=409,
            )
        return self.registry

    @staticmethod
    def _peer_urls(registry: InstanceRegistry) -> List[str]:
        """Live store-native member URLs — valid wire-commit targets.

        Handed back on register/heartbeat so wire members can re-resolve
        the coordinator after a failover without any out-of-band config.
        """
        return [
            instance.url
            for instance in registry.live()
            if instance.capabilities.get("store") == "native"
        ]

    def cluster_register(self, request: Request) -> Response:
        registry = self._require_member_registry()
        member = decode_member(request.body)
        registry.register(**member)  # receiver-stamped heartbeat start
        return Response.json({"ok": True, "peers": self._peer_urls(registry)})

    def cluster_heartbeat(self, request: Request) -> Response:
        registry = self._require_member_registry()
        instance_id = decode_instance_id(request.body)
        # The arrival time on *our* clock is the heartbeat — the envelope
        # carries no timestamp (the decoder rejects any), so a wire member
        # with a skewed wall clock is judged exactly like one without.
        known = registry.record_heartbeat(instance_id)
        return Response.json({"ok": known, "peers": self._peer_urls(registry)})

    def cluster_deregister(self, request: Request) -> Response:
        registry = self._require_member_registry()
        instance_id = decode_instance_id(request.body)
        return Response.json({"ok": registry.deregister(instance_id)})

    # -- cluster endpoints -----------------------------------------------------
    def _require_cluster(self) -> ClusterCoordinator:
        if self.coordinator is None:
            raise WireError(
                "this instance is not a cluster member (start it with --cluster)",
                status=409,
            )
        return self.coordinator

    def _require_coordinator(self) -> ClusterCoordinator:
        coordinator = self._require_cluster()
        if not self.cluster.coordinates:
            raise WireError(
                "this instance is not a coordinator; submit to the "
                "coordinator's /cluster/campaigns instead",
                status=409,
            )
        return coordinator

    def cluster_status(self, request: Request) -> Response:
        coordinator = self._require_cluster()
        if request.param("cache", "on") == "off" or not self.store_native:
            return Response.json(coordinator.status())
        # Status polling must not hit SQLite per request: the payload caches
        # under (results gen, cluster gen, 1s clock bucket).  Any commit,
        # heartbeat or assignment change moves a generation; the clock
        # bucket bounds liveness staleness to a second even when nothing
        # writes at all (e.g. a peer silently dying).
        key = (
            self.store.generation("results"),
            self.store.generation("cluster"),
            int(self.registry.clock()),
        )
        payload, _ = self._status_cache.get_or_build(key, coordinator.status)
        return Response.json(payload)

    def cluster_instances(self, request: Request) -> Response:
        self._require_cluster()
        return Response.json({"instances": self.registry.summaries()})

    def cluster_submit(self, request: Request) -> Response:
        coordinator = self._require_coordinator()
        spec, trace = decode_submit(request.body)
        with span("cluster.submit", parent=trace, campaign=spec.short_id()) as ctx:
            payload = coordinator.submit(spec)
        self.last_trace_id = ctx.trace_id
        payload["url"] = f"/cluster/campaigns/{payload['id']}"
        payload["trace_id"] = ctx.trace_id
        return Response.json(payload, status=202)

    def _submission_keys(self, sid: str) -> List[str]:
        coordinator = self._require_cluster()
        try:
            return coordinator.job_keys(sid)
        except KeyError:
            raise WireError(f"unknown submission {sid!r}", status=404) from None

    def cluster_campaign_status(self, request: Request, sid: str) -> Response:
        coordinator = self._require_cluster()
        try:
            return Response.json(coordinator.submission_status(sid))
        except KeyError:
            raise WireError(f"unknown submission {sid!r}", status=404) from None

    def cluster_report(self, request: Request, sid: str) -> Response:
        return self._render_report(request, self._submission_keys(sid))

    def cluster_export(self, request: Request, sid: str) -> Response:
        # The full campaign's keys — whichever instances computed them — so
        # the stream is byte-identical to a single-instance run.
        return self._stream_export(request, self._submission_keys(sid))


class _CampaignRequestHandler(BaseHTTPRequestHandler):
    """Bridges http.server onto :meth:`CampaignApp.handle`."""

    app: CampaignApp  # bound by CampaignServer via a subclass attribute
    protocol_version = "HTTP/1.1"
    # Interactive tier: without TCP_NODELAY, keep-alive clients whose
    # request spans two segments (headers, then body) stall ~40 ms per
    # round-trip on the Nagle/delayed-ACK interaction — dwarfing the
    # single-millisecond /predict fast path this server exists to serve.
    disable_nagle_algorithm = True
    quiet = True

    # -- plumbing --------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _read_request(self) -> Request:
        parts = urlsplit(self.path)
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        return Request(
            method=self.command,
            path=parts.path,
            query=dict(parse_qsl(parts.query)),
            body=body,
        )

    def _send(self, response: Response) -> None:
        if response.stream is not None:
            self._send_chunked(response)
            return
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _send_chunked(self, response: Response) -> None:
        """Stream an iterable body with chunked transfer encoding."""
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        stream = response.stream
        try:
            for chunk in stream:
                if not chunk:
                    continue  # a zero-length chunk would end the body
                self.wfile.write(f"{len(chunk):x}\r\n".encode("ascii"))
                self.wfile.write(chunk)
                self.wfile.write(b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        finally:
            # A disconnect mid-stream must still release the producer (for
            # event streams, the subscription detaches in its finally).
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    def _handle(self) -> None:
        try:
            response = self.app.handle(self._read_request())
        except Exception as error:  # noqa: BLE001 — the server must not die
            response = Response.error(
                f"internal error: {type(error).__name__}: {error}", status=500
            )
        try:
            self._send(response)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    do_GET = _handle
    do_POST = _handle
    do_DELETE = _handle
    do_PUT = _handle


class CampaignServer:
    """A long-running campaign service on one store.

    >>> server = CampaignServer(port=0, store="campaign.sqlite")
    >>> server.start()          # background serving (tests, embedding)
    >>> server.url
    'http://127.0.0.1:54321'
    >>> server.stop()

    ``run()`` serves on the calling thread until interrupted (the CLI path).
    Pass a :class:`~repro.cluster.registry.ClusterConfig` to join (or
    coordinate) a cluster of instances sharing the store.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        store: Union[str, Path, ResultStore, RemoteStore] = "campaign.sqlite",
        settings: Optional[WorkerSettings] = None,
        quiet: bool = True,
        cluster: Optional[ClusterConfig] = None,
        advertise_host: Optional[str] = None,
        telemetry_interval: Optional[float] = None,
    ) -> None:
        self.app = CampaignApp(
            store, settings, cluster=cluster, telemetry_interval=telemetry_interval
        )
        handler = type(
            "BoundCampaignRequestHandler",
            (_CampaignRequestHandler,),
            {"app": self.app, "quiet": quiet},
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self.host, self.port = self._httpd.server_address[:2]
        # Peers dial what the registry advertises.  A wildcard bind address
        # is not dialable, so fall back to ``advertise_host`` (multi-box
        # deployments) or this host's name.
        advertised = advertise_host or self.host
        if advertised in ("0.0.0.0", "::", ""):
            advertised = socket.gethostname()
        self.app.set_endpoint(advertised, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Serve in a background thread (returns once accepting requests)."""
        self.app.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="campaign-http",
            daemon=True,
            kwargs={"poll_interval": 0.05},
        )
        self._thread.start()

    def run(self) -> None:
        """Serve on the calling thread until KeyboardInterrupt."""
        self.app.start()
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:  # ctrl-c stops serving
            pass

    def stop(self) -> None:
        # shutdown() waits for serve_forever(), so a server whose start()
        # failed before serving must skip it.
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        self.app.close()

    def kill(self) -> None:
        """Crash-stop: close the socket, abandon work, keep the registry row.

        What remains is exactly the footprint of a killed process — an
        instance whose heartbeat stops aging forward — which the cluster
        coordinator detects and routes around.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.app.kill()

    def __enter__(self) -> "CampaignServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
