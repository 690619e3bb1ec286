"""The live observability plane: push streams, profiler, telemetry history.

Covers the acceptance contract of the streaming layer — per-job completions
pushed during a live campaign exactly once, stalled subscribers dropped
(never blocking the worker), disconnects detaching cleanly — plus the
sampling profiler, the store-backed telemetry/coverage tables, OpenMetrics
exemplars, and the sacred invariant: exports stay byte-identical with
streaming, profiling and telemetry history all switched on.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro import api
from repro.campaign.jobs import CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs import (
    EVENTS,
    MetricsRegistry,
    PROFILER,
    SamplingProfiler,
    get_registry,
    profile_for,
    set_registry,
)
from repro.obs import events as events_module
from repro.obs.events import EventLog
from repro.obs.metrics import parse_prometheus
from repro.obs.top import code_version_report, render_history, stream_records, telemetry_deltas
from repro.service import CampaignApp, CampaignServer, Request, WorkerSettings

#: Two-job campaign, small enough to run cold in a couple of seconds.
SPEC_JSON = {
    "benchmarks": ["j2d5pt", "star3d1r"],
    "gpus": ["V100"],
    "dtypes": ["float"],
    "kinds": ["tune"],
    "time_steps": 100,
    "interior_2d": [512, 512],
    "interior_3d": [48, 48, 48],
    "top_k": 2,
}

SPEC = CampaignSpec(
    benchmarks=("j2d5pt", "star3d1r"),
    gpus=("V100",),
    dtypes=("float",),
    kinds=("tune",),
    time_steps=100,
    interior_2d=(512, 512),
    interior_3d=(48, 48, 48),
    top_k=2,
)


def _request(server, path, method="GET", data=None):
    payload = json.dumps(data).encode() if data is not None else None
    request = urllib.request.Request(server.url + path, method=method, data=payload)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read(), dict(response.headers)


def _poll_done(server, cid, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body, _ = _request(server, f"/campaigns/{cid}")
        status = json.loads(body)
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"campaign {cid} did not settle within {timeout}s")


# -- event subscriptions (unit) ------------------------------------------------


def test_subscription_receives_matching_events():
    log = EventLog()
    with log.subscribe(events="ping") as sub:
        log.emit("ping", n=1)
        log.emit("pong", n=2)  # filtered out
        log.emit("ping", n=3)
        first = sub.get(timeout=1.0)
        second = sub.get(timeout=1.0)
    assert first["event"] == "ping" and first["n"] == 1
    assert second["event"] == "ping" and second["n"] == 3
    assert log._subscribers == []  # context manager detached it


def test_subscription_predicate_filters_on_emitting_thread():
    log = EventLog()
    with log.subscribe(predicate=lambda r: r.get("campaign") == "c1") as sub:
        log.emit("job_finished", campaign="c2")
        log.emit("job_finished", campaign="c1")
        record = sub.get(timeout=1.0)
        assert record["campaign"] == "c1"
        assert sub.get(timeout=0.05) is None


def test_slow_subscriber_drops_without_blocking_emitter(monkeypatch):
    monkeypatch.setattr(events_module, "QUEUE_DEPTH", 4)
    registry = MetricsRegistry()
    previous = get_registry()
    set_registry(registry)
    try:
        log = EventLog()
        sub = log.subscribe()
        start = time.perf_counter()
        for index in range(200):
            log.emit("tick", index=index)
        elapsed = time.perf_counter() - start
    finally:
        set_registry(previous)
    # The emitter never waited on the stalled reader...
    assert elapsed < 1.0
    # ...the overflow was dropped and counted, and the queue still holds the
    # oldest undelivered events for whenever the reader catches up.
    assert sub.dropped == 196
    dropped = registry.counter(
        "stream_dropped_total", "drops", labels=("reason",)
    ).value(reason="slow_subscriber")
    assert dropped == 196
    assert sub.get(timeout=0.1)["index"] == 0
    sub.close()


def test_event_log_rotation_caps_file_size(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog()
    log.configure(path, max_bytes=400, keep_rotated=2)
    for index in range(120):
        log.emit("tick", index=index, padding="x" * 40)
    # The loop may have ended exactly on a rotation (live file momentarily
    # absent); a couple more lines land a fresh live file either way.
    for index in range(120, 126):
        log.emit("tick", index=index, padding="x" * 40)
        if path.exists():
            break
    assert path.exists()
    assert path.stat().st_size <= 400 + 200  # live file capped (one line slack)
    rotated = sorted(p.name for p in tmp_path.glob("events.jsonl.*"))
    assert rotated and len(rotated) <= 2  # generations kept, oldest deleted
    # Every surviving line is intact JSON (rotation never splits a record).
    for candidate in [path, *tmp_path.glob("events.jsonl.*")]:
        for line in candidate.read_text().splitlines():
            assert json.loads(line)["event"] == "tick"


# -- sampling profiler ---------------------------------------------------------


def _burn(deadline):
    total = 0
    while time.monotonic() < deadline:
        total += sum(range(200))
    return total


def test_profiler_collects_folded_stacks():
    profiler = SamplingProfiler(hz=250.0)
    deadline = time.monotonic() + 0.4
    worker = threading.Thread(target=_burn, args=(deadline,))
    worker.start()
    profiler.start()
    try:
        worker.join()
    finally:
        profiler.stop()
    assert not profiler.running
    assert profiler.samples > 0
    folded = profiler.folded()
    assert folded
    for line in folded.splitlines():
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert all(":" in frame for frame in stack.split(";"))
    # The busy thread's frame shows up root-first somewhere in the stacks.
    assert "_burn" in folded


def test_profiler_window_samples_only_when_armed():
    profiler = SamplingProfiler(hz=200.0)
    with profiler.window("cold"):
        assert not profiler.running  # unarmed window is a no-op
    profiler.arm()
    try:
        with profiler.window("hot"):
            assert profiler.running
            time.sleep(0.05)
        assert not profiler.running
    finally:
        profiler.disarm()


def test_profile_for_returns_window_only_counts():
    registry = MetricsRegistry()
    profiler = SamplingProfiler(hz=250.0)
    deadline = time.monotonic() + 0.5
    worker = threading.Thread(target=_burn, args=(deadline,))
    worker.start()
    try:
        folded, samples = profile_for(0.3, profiler=profiler, metrics=registry)
    finally:
        worker.join()
    assert samples > 0
    assert folded.strip()
    assert registry.counter("profile_windows_total", "w").value() == 1


# -- telemetry + coverage store tables ----------------------------------------


def test_store_telemetry_history_roundtrip(tmp_path):
    with ResultStore(tmp_path / "t.sqlite") as store:
        results_gen = store.generation("results")
        store.record_telemetry("i1", {"requests_total": {"": 1.0}}, code_version="v1", now=10.0)
        store.record_telemetry("i1", {"requests_total": {"": 5.0}}, code_version="v2", now=20.0)
        store.record_telemetry("i2", {"requests_total": {"": 2.0}}, code_version="v2", now=30.0)
        # Telemetry lives beside, never inside, the results namespace: the
        # results generation (report/export cache key) is untouched.
        assert store.generation("results") == results_gen
        assert store.generation("telemetry") == 3
        rows = store.telemetry_rows()
        assert [row["instance_id"] for row in rows] == ["i2", "i1", "i1"]  # newest first
        assert rows[-1]["snapshot"] == {"requests_total": {"": 1.0}}
        assert [r["code_version"] for r in store.telemetry_rows(code_version="v2")] == ["v2", "v2"]
        assert len(store.telemetry_rows(instance_id="i1")) == 2
        store.prune_telemetry(keep_last=1)
        survivors = store.telemetry_rows()
        assert len(survivors) == 1 and survivors[0]["instance_id"] == "i2"


def test_store_coverage_replace_is_idempotent(tmp_path):
    entries = {("star", "frontend_roundtrip"): (4, 4), ("box", "blocked_vs_reference"): (2, 1)}
    with ResultStore(tmp_path / "c.sqlite") as store:
        store.replace_coverage(entries)
        first = store.coverage_rows()
        store.replace_coverage(entries)
        assert store.coverage_rows() == first
    assert first == [
        {"family": "box", "check": "blocked_vs_reference", "runs": 2, "passed": 1},
        {"family": "star", "check": "frontend_roundtrip", "runs": 4, "passed": 4},
    ]


def test_fuzz_campaign_persists_coverage(tmp_path):
    store_path = tmp_path / "fuzz.sqlite"
    outcome, records = api.fuzz(seed=11, count=3, store=store_path, workers=1)
    assert records
    rows = api.fuzz_coverage(store_path)
    assert rows, "fuzz campaign left no coverage counters"
    checks = {row["check"] for row in rows}
    assert "frontend_roundtrip" in checks
    assert all(0 <= row["passed"] <= row["runs"] for row in rows)
    assert sum(row["runs"] for row in rows) == sum(
        len(record["payload"]["checks"]) for record in records
    )
    # Warm re-run: same results, same derived counters — nothing double counts.
    api.fuzz(seed=11, count=3, store=store_path, workers=1)
    assert api.fuzz_coverage(store_path) == rows


# -- telemetry delta report ----------------------------------------------------


def _snapshot(requests, p99):
    return {
        "requests_total": {'route="health"': requests},
        "request_seconds": {'route="health"': {"count": requests, "sum": 1.0, "p50": p99 / 2, "p95": p99, "p99": p99}},
    }


def test_telemetry_deltas_and_code_version_report():
    rows = [  # newest first, as telemetry_rows returns them
        {"instance_id": "i1", "code_version": "v2", "created_at": 30.0, "snapshot": _snapshot(30, 0.020)},
        {"instance_id": "i1", "code_version": "v2", "created_at": 20.0, "snapshot": _snapshot(10, 0.010)},
        {"instance_id": "i1", "code_version": "v1", "created_at": 10.0, "snapshot": _snapshot(4, 0.010)},
    ]
    deltas = telemetry_deltas(rows)
    assert len(deltas) == 2
    assert deltas[0]["requests_total"] == 20.0
    assert deltas[0]["requests_per_s"] == 2.0
    assert deltas[0]["req_p99_ms_delta"] == 10.0  # 10ms regression, surfaced
    versions = code_version_report(rows)
    assert [v["code_version"] for v in versions] == ["v2", "v1"]
    assert versions[0]["req_p99_ms"] == 20.0
    text = render_history(rows, deltas, versions)
    assert "telemetry history: 3 snapshot(s)" in text
    assert "code versions" in text


# -- OpenMetrics exemplars -----------------------------------------------------


def test_histogram_exemplar_renders_and_parses():
    registry = MetricsRegistry()
    latency = registry.histogram("request_seconds", "latency", labels=("route",))
    latency.observe(0.01, route="predict")
    latency.observe(0.02, exemplar="abcdef123456", route="predict")
    text = registry.render()
    assert '# {trace_id="abcdef123456"}' in text
    # The strict parser still round-trips an exemplar-bearing exposition,
    # and the exemplar does not change any sample value.
    samples = parse_prometheus(text)
    total = sum(value for _, value in samples["request_seconds_count"])
    assert total == 2.0


# -- service endpoints (no socket) ---------------------------------------------


@pytest.fixture()
def app(tmp_path):
    application = CampaignApp(
        store=tmp_path / "app.sqlite",
        settings=WorkerSettings(workers=1, concurrency=1),
    )
    yield application
    application.close()


def test_profile_endpoint_returns_folded_stacks(app):
    response = app.handle(Request("GET", "/profile", query={"seconds": "0.1"}))
    assert response.status == 200
    assert response.content_type.startswith("text/plain")
    assert int(response.headers["X-Profile-Samples"]) >= 0
    response = app.handle(Request("GET", "/profile", query={"seconds": "9000"}))
    assert response.status == 400


def test_telemetry_history_endpoint(app):
    assert app.record_telemetry_snapshot() is not None
    app.metrics.counter("requests_total", "r", labels=("route", "method", "code")).inc(
        route="health", method="GET", code="200"
    )
    assert app.record_telemetry_snapshot() is not None
    response = app.handle(Request("GET", "/telemetry/history"))
    assert response.status == 200
    payload = json.loads(response.body)
    assert len(payload["snapshots"]) == 2
    assert len(payload["deltas"]) == 1
    assert payload["deltas"][0]["requests_total"] == 1.0
    assert payload["code_versions"]


def test_events_stream_ends_after_max_events(app):
    response = app.handle(
        Request("GET", "/events/stream", query={"max_events": "2", "timeout": "10"})
    )
    assert response.stream is not None
    lines = []

    def consume():
        for chunk in response.stream:
            if chunk.strip():
                lines.append(json.loads(chunk))

    reader = threading.Thread(target=consume)
    reader.start()
    time.sleep(0.1)
    EVENTS.emit("stream_test_alpha", n=1)
    EVENTS.emit("stream_test_beta", n=2)
    reader.join(timeout=5.0)
    assert not reader.is_alive()
    assert [record["event"] for record in lines] == [
        "stream_test_alpha", "stream_test_beta"
    ]


def test_mid_stream_disconnect_detaches_subscriber(app):
    baseline = len(EVENTS._subscribers)
    response = app.handle(Request("GET", "/events/stream", query={"timeout": "30"}))
    iterator = iter(response.stream)
    assert next(iterator) == b"\n"  # keep-alive while idle
    assert len(EVENTS._subscribers) == baseline + 1
    # The client vanishes: closing the generator (what the chunked sender
    # does in its finally) must detach the subscription immediately.
    response.stream.close()
    assert len(EVENTS._subscribers) == baseline


def test_campaign_stream_unknown_campaign_404(app):
    response = app.handle(
        Request("GET", "/campaigns/nope/stream", query={})
    )
    assert response.status == 404
    assert EVENTS._subscribers == []


# -- streaming during a live campaign (real HTTP) ------------------------------


@pytest.fixture()
def server(tmp_path):
    with CampaignServer(
        host="127.0.0.1", port=0, store=tmp_path / "service.sqlite",
        settings=WorkerSettings(workers=1, concurrency=2),
        telemetry_interval=0.2,
    ) as running:
        yield running


def test_campaign_stream_yields_every_job_exactly_once(server):
    cid = SPEC.short_id()
    records = []
    errors = []

    def consume():
        url = f"{server.url}/campaigns/{cid}/stream?wait=1&timeout=60"
        try:
            records.extend(stream_records(url, timeout=30.0))
        except Exception as error:  # noqa: BLE001 — surfaced in the assert
            errors.append(error)

    reader = threading.Thread(target=consume)
    reader.start()
    time.sleep(0.2)  # subscribe strictly before any job can finish
    status, body, _ = _request(server, "/campaigns", method="POST", data=SPEC_JSON)
    assert status == 202 and json.loads(body)["id"] == cid
    reader.join(timeout=60.0)
    assert not reader.is_alive() and not errors
    by_event = {}
    for record in records:
        by_event.setdefault(record["event"], []).append(record)
    assert [r["campaign"] for r in by_event["stream_open"]] == [cid]
    assert len(by_event["campaign_run_started"]) == 1
    jobs = by_event["job_finished"]
    assert len(jobs) == SPEC.size() == 2  # every job pushed...
    assert len({job["key"] for job in jobs}) == 2  # ...exactly once
    assert all(job["status"] == "ok" and job["campaign"] == cid for job in jobs)
    # The stream ended on the terminal record, after every job line.
    assert records[-1]["event"] == "campaign_run_finished"
    assert records[-1]["ok"] is True


def test_exports_byte_identical_with_full_observability_on(server, tmp_path, monkeypatch):
    # Solo reference run: same spec, fresh store, no service, no obs extras.
    solo_store = tmp_path / "solo.sqlite"
    api.campaign(store=solo_store, **{
        "benchmarks": SPEC_JSON["benchmarks"],
        "gpus": SPEC_JSON["gpus"],
        "dtypes": SPEC_JSON["dtypes"],
        "kinds": SPEC_JSON["kinds"],
        "time_steps": SPEC_JSON["time_steps"],
        "interior_2d": SPEC_JSON["interior_2d"],
        "interior_3d": SPEC_JSON["interior_3d"],
        "top_k": SPEC_JSON["top_k"],
    })
    with ResultStore(solo_store) as store:
        solo_lines = "".join(
            store.record_line(record) + "\n" for record in store.export_records()
        ).encode()

    # Service run with the whole observability plane on: telemetry history
    # snapshots ticking (fixture), profiler armed, and a deliberately stalled
    # stream subscriber attached for the entire campaign.
    with monkeypatch.context() as one_slot:
        one_slot.setattr(events_module, "QUEUE_DEPTH", 1)
        stalled = EVENTS.subscribe()
    PROFILER.arm()
    try:
        status, body, _ = _request(server, "/campaigns", method="POST", data=SPEC_JSON)
        assert status == 202
        cid = json.loads(body)["id"]
        assert _poll_done(server, cid)["state"] == "done"
        _, export, _ = _request(server, f"/campaigns/{cid}/export")
    finally:
        PROFILER.disarm()
        stalled.close()
    assert export == solo_lines
    # And the history really accumulated while the campaign ran.
    time.sleep(0.3)
    _, history, _ = _request(server, "/telemetry/history")
    assert json.loads(history)["snapshots"]


def test_slow_http_subscriber_never_wedges_the_worker(server, monkeypatch):
    # A subscriber with a one-slot queue that never reads: the campaign must
    # finish at full speed and the overflow must be counted, not waited on.
    with monkeypatch.context() as one_slot:
        one_slot.setattr(events_module, "QUEUE_DEPTH", 1)
        stalled = EVENTS.subscribe()
    try:
        status, body, _ = _request(server, "/campaigns", method="POST", data=SPEC_JSON)
        assert status == 202
        done = _poll_done(server, json.loads(body)["id"], timeout=60.0)
        assert done["state"] == "done"
        assert stalled.dropped > 0
    finally:
        stalled.close()
