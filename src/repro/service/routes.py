"""Routing table of the campaign service.

The router is transport-agnostic: it maps a :class:`Request` (method, path,
query, body) to a :class:`Response` by calling handler methods on the app
object, which makes every endpoint testable without opening a socket.

Endpoints
---------

``GET  /healthz``
    Liveness probe: store path and campaign counts.
``GET  /metrics``
    This instance's metrics registry in Prometheus text format.
``GET  /trace/{trace_id}``
    The span tree this process recorded for one trace id (JSON).
``GET  /profile?seconds=N``
    Sample this process' thread stacks for N seconds; folded-stack
    (flamegraph ``collapse``) text.
``GET  /events/stream``
    Long-lived chunked JSONL push stream of this instance's structured
    events (``?event=`` filters to one kind).
``GET  /telemetry/history``
    Persisted metrics snapshots plus the regression-delta report across
    runs and code versions (JSON).
``POST /predict``
    Synchronous fast path: one model prediction, answered in-request from
    the hot model-batch cache (no campaign queue, no store write).
``POST /tune``
    Synchronous fast path: one autotuning run re-entered from the cached
    stage-1 ranking (``top_k`` finalists simulated in-request).
``POST /campaigns``
    Submit a campaign spec (JSON); returns its id (202), or 429 with a
    ``Retry-After`` header when the admission queue is full.
``POST /campaigns/assigned``
    Coordinator forwarding target: a campaign spec plus the shard plan this
    instance must run (202).
``GET  /campaigns``
    All known campaigns in submission order.
``GET  /campaigns/{id}``
    Lifecycle state plus queued/running/done job counts from the store.
``GET  /campaigns/{id}/report?kind=leaderboard|table5|accuracy|summary``
    A rendered report table (``format=json|jsonl|text``).
``GET  /campaigns/{id}/export``
    The campaign's results, streamed as deterministic JSONL.
``GET  /campaigns/{id}/stream``
    Long-lived chunked JSONL push stream of one campaign's per-job
    completions (ends with a ``campaign_run_finished`` line).
``POST /results/commit``
    Wire-native result path: a JSONL batch of store records committed to
    this instance's store (idempotent — keys are content addresses).
``POST /results/statuses``
    Bulk status lookup (``{"keys": [...]}``) for wire-native schedulers.
``POST /cluster/register`` / ``POST /cluster/heartbeat`` /
``POST /cluster/deregister``
    Wire membership: envelopes carry no timestamps; heartbeat arrivals are
    stamped with the *receiver's* clock.  Responses list the live
    store-native peer URLs so wire members can re-resolve the coordinator.
``GET  /cluster/status``
    Aggregated cluster view: instances with liveness, submissions with
    per-instance merged progress.
``GET  /cluster/instances``
    The instance registry with heartbeat-derived liveness.
``POST /cluster/campaigns``
    Submit a campaign to the coordinator, which shards it over live
    instances (202).
``GET  /cluster/campaigns/{id}``
    One cluster submission: state, shard assignments, merged progress.
``GET  /cluster/campaigns/{id}/report`` / ``GET /cluster/campaigns/{id}/export``
    Whole-campaign reports/exports — byte-identical to a single-instance
    run over the same spec.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.service.wire import JSON_TYPE, WireError, json_body


@dataclass
class Request:
    """One decoded HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def param(self, name: str, default: str) -> str:
        return self.query.get(name, default)


@dataclass
class Response:
    """One response; ``stream`` (an iterable of byte chunks) wins over ``body``."""

    status: int = 200
    body: bytes = b""
    content_type: str = JSON_TYPE
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[Iterable[bytes]] = None

    @classmethod
    def json(cls, payload: object, status: int = 200, **headers: str) -> "Response":
        return cls(status=status, body=json_body(payload), headers=dict(headers))

    @classmethod
    def error(cls, message: str, status: int) -> "Response":
        return cls.json({"error": message}, status=status)


#: (method, compiled path pattern, app handler name)
_ROUTES: Tuple[Tuple[str, "re.Pattern[str]", str], ...] = tuple(
    (method, re.compile(pattern), handler)
    for method, pattern, handler in (
        ("GET", r"^/healthz$", "health"),
        ("GET", r"^/metrics$", "metrics_endpoint"),
        ("GET", r"^/trace/(?P<tid>[0-9a-f]+)$", "trace_endpoint"),
        ("GET", r"^/profile$", "profile_endpoint"),
        ("GET", r"^/events/stream$", "events_stream"),
        ("GET", r"^/telemetry/history$", "telemetry_history"),
        ("POST", r"^/predict$", "predict_endpoint"),
        ("POST", r"^/tune$", "tune_endpoint"),
        ("POST", r"^/campaigns$", "submit_campaign"),
        ("GET", r"^/campaigns$", "list_campaigns"),
        # /campaigns/assigned must precede the {cid} capture routes.
        ("POST", r"^/campaigns/assigned$", "assigned_campaign"),
        ("GET", r"^/campaigns/(?P<cid>[A-Za-z0-9_-]+)$", "campaign_status"),
        ("GET", r"^/campaigns/(?P<cid>[A-Za-z0-9_-]+)/report$", "campaign_report"),
        ("GET", r"^/campaigns/(?P<cid>[A-Za-z0-9_-]+)/export$", "campaign_export"),
        ("GET", r"^/campaigns/(?P<cid>[A-Za-z0-9_-]+)/stream$", "campaign_stream"),
        ("POST", r"^/results/commit$", "commit_results"),
        ("POST", r"^/results/statuses$", "result_statuses"),
        ("POST", r"^/cluster/register$", "cluster_register"),
        ("POST", r"^/cluster/heartbeat$", "cluster_heartbeat"),
        ("POST", r"^/cluster/deregister$", "cluster_deregister"),
        ("GET", r"^/cluster/status$", "cluster_status"),
        ("GET", r"^/cluster/instances$", "cluster_instances"),
        ("POST", r"^/cluster/campaigns$", "cluster_submit"),
        ("GET", r"^/cluster/campaigns/(?P<sid>[A-Za-z0-9_-]+)$", "cluster_campaign_status"),
        ("GET", r"^/cluster/campaigns/(?P<sid>[A-Za-z0-9_-]+)/report$", "cluster_report"),
        ("GET", r"^/cluster/campaigns/(?P<sid>[A-Za-z0-9_-]+)/export$", "cluster_export"),
    )
)


def _call(app: object, handler_name: str, request: Request, params: Dict[str, str]) -> Tuple[Response, Optional[str]]:
    """Invoke one handler; returns (response, error class when it failed)."""
    handler: Callable[..., Response] = getattr(app, handler_name)
    try:
        return handler(request, **params), None
    except WireError as error:
        return Response.error(str(error), status=error.status), "WireError"
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args and isinstance(error.args[0], str) else error
        return Response.error(str(message), status=400), type(error).__name__


def dispatch(app: object, request: Request) -> Response:
    """Route one request to the app, mapping failures to JSON errors.

    Every request is accounted on the app's
    :class:`~repro.obs.metrics.MetricsRegistry` (``app.metrics``): the route label is
    the *handler name*, never the raw path, so label cardinality is bounded
    by the route table: ``requests_total{route,method,code}``,
    ``request_seconds{route}``, ``request_errors_total{route,error_class}``
    and the ``requests_in_flight`` gauge.
    """
    handler_name = "unmatched"
    matched_path = False
    params: Dict[str, str] = {}
    for method, pattern, name in _ROUTES:
        match = pattern.match(request.path)
        if match is None:
            continue
        matched_path = True
        if method != request.method:
            continue
        handler_name, params = name, match.groupdict()
        break
    registry = app.metrics
    in_flight = registry.gauge("requests_in_flight", "Requests being handled right now")
    requests_total = registry.counter(
        "requests_total", "Requests handled, by route/method/status",
        labels=("route", "method", "code"),
    )
    latency = registry.histogram(
        "request_seconds", "Request handling latency by route", labels=("route",)
    )
    errors = registry.counter(
        "request_errors_total", "Requests that failed, by route and error class",
        labels=("route", "error_class"),
    )
    in_flight.inc()
    start = time.perf_counter()
    error_class: Optional[str] = None
    status = 500
    try:
        if handler_name != "unmatched":
            response, error_class = _call(app, handler_name, request, params)
        elif matched_path:
            response = Response.error(
                f"method {request.method} not allowed here", status=405
            )
        else:
            response = Response.error(f"no route for {request.path}", status=404)
        status = response.status
        return response
    except Exception as error:  # noqa: BLE001 — counted, then 500s upstream
        error_class = type(error).__name__
        raise
    finally:
        in_flight.dec()
        # The most recent trace id rides the latency histogram as an
        # OpenMetrics exemplar, linking a scrape straight to /trace/{id}.
        latency.observe(
            time.perf_counter() - start,
            exemplar=getattr(app, "last_trace_id", None),
            route=handler_name,
        )
        requests_total.inc(route=handler_name, method=request.method, code=str(status))
        if error_class is not None:
            errors.inc(route=handler_name, error_class=error_class)


def route_table() -> List[str]:
    """Human-readable route listing (surfaced by /healthz)."""
    return sorted({f"{method} {pattern.pattern}" for method, pattern, _ in _ROUTES})
