"""Tests for the interactive latency tier: synchronous /predict and /tune,
single-flight caching, read-through report/export caches and their
invalidation on store writes, and campaign admission control (429 +
``Retry-After``) end to end through the cluster client.

Everything except the client round-trip drives the app socket-free via
``CampaignApp.handle`` — same code path as the HTTP server, no ports.
"""

import json
import threading
import time

import pytest

import repro.cluster.client as cluster_client_module
from repro.campaign.jobs import CampaignSpec, JobSpec, _json_safe, run_job
from repro.campaign.store import make_record
from repro.cluster import ClusterClient
from repro.cluster.client import ClusterHTTPError, _parse_retry_after
from repro.obs import MetricsRegistry, SingleFlightCache
from repro.obs.metrics import parse_prometheus
from repro.obs.top import cache_ratio, instance_row, render
from repro.service import CampaignApp, CampaignServer, Request, WorkerSettings
from repro.stencils.library import DEFAULT_2D_GRID, DEFAULT_TIME_STEPS

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


@pytest.fixture()
def app(tmp_path):
    application = CampaignApp(
        tmp_path / "svc.sqlite", WorkerSettings(workers=1, concurrency=2)
    )
    application.start()
    yield application
    application.close()


def _json(response):
    assert response.status == 200, response.body
    return json.loads(response.body)


def _submit(app, spec=SPEC_JSON):
    response = app.handle(
        Request("POST", "/campaigns", body=json.dumps(spec).encode())
    )
    assert response.status == 202, response.body
    return json.loads(response.body)


def _poll_done(app, cid, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = _json(app.handle(Request("GET", f"/campaigns/{cid}")))
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"campaign {cid} did not settle")


# -- single-flight cache --------------------------------------------------------------


def test_single_flight_builds_once_under_contention():
    registry = MetricsRegistry()
    cache = SingleFlightCache("contended", capacity=4, metrics=registry)
    builds = []
    gate = threading.Event()

    def builder():
        builds.append(threading.get_ident())
        gate.wait(5.0)  # hold every follower until all threads arrived
        return "value"

    outcomes = []

    def caller():
        outcomes.append(cache.get_or_build("key", builder))

    threads = [threading.Thread(target=caller) for _ in range(8)]
    for thread in threads:
        thread.start()
    while not builds:  # leader entered the builder
        time.sleep(0.001)
    time.sleep(0.05)  # let the other 7 become followers
    gate.set()
    for thread in threads:
        thread.join(timeout=10.0)

    assert len(builds) == 1  # exactly one builder ran
    assert [value for value, _ in outcomes] == ["value"] * 8
    hits = [hit for _, hit in outcomes]
    assert hits.count(False) == 1 and hits.count(True) == 7


def test_single_flight_failed_build_releases_followers():
    cache = SingleFlightCache("flaky", metrics=MetricsRegistry())
    attempts = []

    def failing():
        attempts.append(1)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        cache.get_or_build("key", failing)
    # The failure was not cached: the next caller builds (successfully).
    value, hit = cache.get_or_build("key", lambda: 42)
    assert (value, hit) == (42, False)
    assert cache.get_or_build("key", lambda: 43) == (42, True)


def test_single_flight_lru_eviction_counted():
    registry = MetricsRegistry()
    cache = SingleFlightCache("tiny", capacity=2, metrics=registry)
    for index in range(3):
        cache.put(index, index)
    assert len(cache) == 2
    assert cache.get(0) == (None, False)  # oldest evicted
    assert cache.get(2) == (2, True)


# -- synchronous fast path ------------------------------------------------------------


def test_predict_endpoint_matches_run_job(app):
    response = app.handle(
        Request("POST", "/predict", body=json.dumps({"pattern": "j2d5pt"}).encode())
    )
    answer = _json(response)
    assert answer["cached"] is False

    spec = JobSpec(
        kind="predict", pattern="j2d5pt", gpu="V100", dtype="float",
        interior=DEFAULT_2D_GRID, time_steps=DEFAULT_TIME_STEPS,
    )
    expected = {str(k): _json_safe(v) for k, v in run_job(spec).items()}
    assert answer["result"] == expected
    assert answer["key"] == spec.key()

    # Identical request: answered from the hot cache, same payload.
    again = _json(app.handle(
        Request("POST", "/predict", body=json.dumps({"pattern": "j2d5pt"}).encode())
    ))
    assert again["cached"] is True
    assert again["result"] == expected


def test_tune_endpoint_matches_run_job(app):
    body = json.dumps({"pattern": "j2d5pt", "top_k": 3}).encode()
    answer = _json(app.handle(Request("POST", "/tune", body=body)))

    spec = JobSpec(
        kind="tune", pattern="j2d5pt", gpu="V100", dtype="float",
        interior=DEFAULT_2D_GRID, time_steps=DEFAULT_TIME_STEPS,
        params=(("top_k", 3),),
    )
    expected = {str(k): _json_safe(v) for k, v in run_job(spec).items()}
    assert answer["result"] == expected
    # The fast path never writes the store: tuning synchronously must not
    # have committed a row.
    assert app.store.count() == 0


def test_predict_rejects_bad_requests(app):
    def status_of(payload):
        return app.handle(
            Request("POST", "/predict", body=json.dumps(payload).encode())
        ).status

    assert status_of({"pattern": "nope"}) == 400  # unknown benchmark
    assert status_of({"pattern": "j2d5pt", "bogus": 1}) == 400  # unknown field
    assert status_of({"pattern": "j2d5pt", "bT": 0}) == 400  # below minimum
    assert status_of({"pattern": "j2d5pt", "bS": [999999, 4]}) == 400  # invalid config
    assert status_of({}) == 400  # pattern required


def test_predict_metrics_exposed(app):
    for _ in range(3):
        app.handle(
            Request("POST", "/predict", body=json.dumps({"pattern": "j2d5pt"}).encode())
        )
    samples = parse_prometheus(app.handle(Request("GET", "/metrics")).body.decode())
    hits = {
        labels["cache"]: value for labels, value in samples["cache_hits_total"]
    }
    misses = {
        labels["cache"]: value for labels, value in samples["cache_misses_total"]
    }
    assert hits.get("hot_predict", 0) >= 2
    assert misses.get("hot_predict", 0) >= 1

    # The `an5d top` row folds those counters into one CACHE column.
    row = instance_row(
        {"id": "i1", "role": "solo", "live": True, "url": ""}, samples
    )
    ratio = cache_ratio(row)
    assert ratio is not None and 0.0 < ratio < 1.0
    assert "CACHE" in render([row]).splitlines()[0]
    assert cache_ratio({"cache_hits": 0, "cache_misses": 0}) is None


# -- read-through report/export caches ------------------------------------------------


def test_report_cache_invalidated_by_store_writes(app):
    cid = _submit(app)["id"]
    assert _poll_done(app, cid)["state"] == "done"
    report_request = Request("GET", f"/campaigns/{cid}/report")

    warm = _json(app.handle(report_request))
    # Warm read is cached; bypassing the cache renders the same report.
    assert warm == _json(app.handle(
        Request("GET", f"/campaigns/{cid}/report", query={"cache": "off"})
    ))

    # Mutate one of the campaign's rows through the local commit path (a
    # failed attempt) and then the wire-commit path (the cluster's upgrade of
    # that failure by a successful retry); neither may leave the cached
    # report stale.
    victim = app.store.query(kind="tune")[0]
    job = next(j for j in CampaignSpec.from_json(SPEC_JSON).expand() if j.key() == victim.key)
    app.store.put(job, {"error": "injected"}, status="failed")
    assert _json(app.handle(report_request)) != warm
    record = make_record(job, {**victim.payload, "tuned_gflops": 9999.0})
    assert app.store.commit_records([record]) == 1

    fresh = _json(app.handle(report_request))
    assert fresh != warm  # the write invalidated the materialised report
    assert "9999.0" in json.dumps(fresh)
    assert fresh == _json(app.handle(
        Request("GET", f"/campaigns/{cid}/report", query={"cache": "off"})
    ))


def test_export_stays_byte_identical_under_concurrent_commits(app):
    cid = _submit(app)["id"]
    assert _poll_done(app, cid)["state"] == "done"
    path = f"/campaigns/{cid}/export"

    def export_bytes(cache):
        response = app.handle(Request("GET", path, query={"cache": cache}))
        assert response.status == 200
        return b"".join(response.stream), response.headers["ETag"]

    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                export_bytes("on")
        except Exception as error:  # noqa: BLE001 — surfaced via `errors`
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    # Concurrent writers: unrelated rows committed while readers stream.
    for index in range(10):
        spec = JobSpec(
            kind="predict", pattern="j2d5pt", gpu="V100", dtype="float",
            interior=(256, 256), time_steps=100 + index,
        )
        app.store.put(spec, {"marker": index})
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not errors

    # After the writes settle, cached and uncached exports agree byte for
    # byte (and the new rows never leaked into this campaign's scope).
    cached, cached_etag = export_bytes("on")
    uncached, uncached_etag = export_bytes("off")
    assert cached == uncached
    assert cached_etag == uncached_etag
    assert b"marker" not in cached


def test_job_keys_memoised_per_record(app):
    cid = _submit(app)["id"]
    _poll_done(app, cid)
    first = app.worker.job_keys(cid)
    record = app.worker.get(cid)
    assert record.job_keys_cache is not None
    assert app.worker.job_keys(cid) == first
    assert app.worker.job_keys("missing") is None


# -- admission control ----------------------------------------------------------------


def test_queue_full_answers_429_with_retry_after(app):
    app.worker.settings.max_queued = 1
    first = _submit(app)  # fills the single queue slot
    distinct = dict(SPEC_JSON, time_steps=101)
    response = app.handle(
        Request("POST", "/campaigns", body=json.dumps(distinct).encode())
    )
    assert response.status == 429
    assert float(response.headers["Retry-After"]) >= 1.0
    payload = json.loads(response.body)
    assert payload["retry_after_s"] >= 1
    assert "queue is full" in payload["error"]

    # Idempotent re-post of the in-flight campaign is deduped, never 429d.
    assert _submit(app)["id"] == first["id"]

    # The interactive tier is not behind the campaign queue.
    predict = app.handle(
        Request("POST", "/predict", body=json.dumps({"pattern": "j2d5pt"}).encode())
    )
    assert predict.status == 200

    app.worker.settings.max_queued = None
    _poll_done(app, first["id"])


def test_cluster_client_honours_retry_after(tmp_path, monkeypatch):
    naps = []
    monkeypatch.setattr(cluster_client_module.time, "sleep", naps.append)
    with CampaignServer(
        host="127.0.0.1", port=0, store=tmp_path / "svc.sqlite",
        settings=WorkerSettings(workers=1, concurrency=1, max_queued=1),
    ) as server:
        # Gate the first campaign's execution open-ended: the queue slot must
        # still be occupied when the second submission arrives, however slowly
        # this machine schedules the client between the two posts.
        gate = threading.Event()
        real_scheduler = server.app.worker._scheduler

        def gated_scheduler(spec, plan=None, campaign_id=None):
            scheduler = real_scheduler(spec, plan, campaign_id=campaign_id)
            original_run = scheduler.run
            scheduler.run = lambda: (gate.wait(timeout=60), original_run())[1]
            return scheduler

        monkeypatch.setattr(server.app.worker, "_scheduler", gated_scheduler)
        try:
            client = ClusterClient(retries=1)
            accepted = client.post_json(server.url + "/campaigns", SPEC_JSON)
            assert accepted["state"] in ("queued", "running")
            distinct = dict(SPEC_JSON, time_steps=101)
            with pytest.raises(ClusterHTTPError) as caught:
                client.post_json(server.url + "/campaigns", distinct)
        finally:
            gate.set()  # release the worker so server shutdown is prompt
    assert caught.value.status == 429
    assert caught.value.retry_after is not None and caught.value.retry_after >= 1.0
    assert caught.value.retryable
    # The retry loop slept exactly the server's hint, not its own backoff.
    assert naps == [pytest.approx(caught.value.retry_after)]


def test_parse_retry_after_variants():
    class Headers(dict):
        pass

    assert _parse_retry_after(None) is None
    assert _parse_retry_after(Headers()) is None
    assert _parse_retry_after(Headers({"Retry-After": "7"})) == 7.0
    assert _parse_retry_after(Headers({"Retry-After": " 2.5 "})) == 2.5
    assert _parse_retry_after(Headers({"Retry-After": "-3"})) is None
    assert _parse_retry_after(
        Headers({"Retry-After": "Fri, 07 Aug 2026 12:00:00 GMT"})
    ) is None


def test_client_caps_server_retry_after(monkeypatch):
    naps = []
    client = ClusterClient()
    monkeypatch.setattr(cluster_client_module.time, "sleep", naps.append)
    client._sleep(0, retry_after=10_000.0)
    assert naps == [ClusterClient.MAX_RETRY_AFTER_S]
