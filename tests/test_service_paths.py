"""Service paths ordinary campaigns do not take.

Wire-native members (no store), push streams that idle, overflow or time
out, the admission 429 of a shard assignment, unknown campaigns and
submissions, verbose request logging, a client that hangs up mid-response,
wildcard binds, and the worker loop's start/stop/kill edges.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import ResultStore
from repro.campaign.jobs import CampaignSpec, JobSpec
from repro.cluster import ClusterConfig, LocalCluster
from repro.cluster.remote import RemoteStore
from repro.obs import EVENTS, parse_prometheus
from repro.obs import events as events_module
from repro.service import CampaignApp, CampaignServer, Request, Response, WorkerSettings
from repro.service import worker as worker_module
from repro.service.app import _CampaignRequestHandler
from repro.service.hotcache import HotModelCache
from repro.service.worker import CampaignRecord, CampaignWorker, QueueFull

PREDICT = {"benchmarks": ["j2d5pt"], "gpus": ["V100"], "dtypes": ["float"], "kinds": ["predict"]}


def _member(role: str = "worker") -> ClusterConfig:
    return ClusterConfig(
        instance_id="w7", role=role, heartbeat_interval=1.0, liveness_timeout=5.0
    )


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _http_error(url: str, data: "bytes | None" = None) -> urllib.error.HTTPError:
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=30)
    return raised.value


@pytest.fixture()
def server(tmp_path):
    with CampaignServer(
        host="127.0.0.1", port=0, store=tmp_path / "paths.sqlite",
        settings=WorkerSettings(workers=1, concurrency=1),
    ) as running:
        yield running


# -- wire-native members ---------------------------------------------------------------


def test_a_wire_member_reports_its_journal_and_refuses_store_routes(tmp_path):
    remote = RemoteStore("http://127.0.0.1:9", journal=tmp_path / "w7.journal.jsonl")
    app = CampaignApp(remote, cluster=_member())
    try:
        health = json.loads(app.handle(Request("GET", "/healthz")).body)
        assert health["journal_pending"] == 0 and "results" not in health
        refused = app.handle(Request("POST", "/results/statuses", body=b'{"keys": []}'))
        assert refused.status == 409
        assert json.loads(refused.body)["error"].startswith("this instance is wire-native")
        assert app.record_telemetry_snapshot() is None  # no store to write history to
    finally:
        app.close()


def test_a_cluster_member_labels_its_telemetry_with_its_instance_id(tmp_path):
    app = CampaignApp(tmp_path / "member.sqlite", cluster=_member())
    try:
        assert app.record_telemetry_snapshot() is not None
        rows = app.store.telemetry_rows()
        assert [row["instance_id"] for row in rows] == ["w7"]
    finally:
        app.close()


# -- push streams --------------------------------------------------------------------


def _lines(response) -> list:
    return [line for chunk in response.stream for line in chunk.decode().splitlines(True)]


def test_an_idle_stream_sends_keep_alives_until_its_deadline(tmp_path):
    app = CampaignApp(tmp_path / "idle.sqlite")
    try:
        started = time.monotonic()
        response = app.handle(
            Request("GET", "/events/stream", {"event": "never_emitted", "timeout": "1.2"})
        )
        assert _lines(response) == ["\n", "\n"]
        assert 1.1 < time.monotonic() - started < 10
    finally:
        app.close()


def test_a_slow_subscriber_loses_events_and_the_loss_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(events_module, "QUEUE_DEPTH", 2)
    app = CampaignApp(tmp_path / "slow.sqlite")
    try:
        subscription = EVENTS.subscribe(events="overflow_probe")
        for index in range(3):
            EVENTS.emit("overflow_probe", index=index)
        assert subscription.dropped == 1
        response = app._stream_response(subscription, timeout_s=5.0, max_events=2)
        assert [json.loads(line)["index"] for line in _lines(response)] == [0, 1]
        samples = parse_prometheus(app.metrics.render())
        assert samples["stream_dropped_total"] == [({"reason": "slow_subscriber"}, 1.0)]
    finally:
        app.close()


def test_a_closed_subscription_reads_none_at_once_and_drops_nothing():
    subscription = EVENTS.subscribe(events="closed_probe")
    subscription.close()
    assert subscription.get(timeout=5.0) is None  # the close marker
    started = time.monotonic()
    assert subscription.get(timeout=5.0) is None  # closed and drained: no wait
    assert time.monotonic() - started < 1.0
    assert subscription._offer({"event": "closed_probe"}) and subscription.dropped == 0


def test_an_unwritable_event_log_never_fails_the_emitter(tmp_path):
    log = events_module.EventLog(path=tmp_path)  # a directory: every append fails
    record = log.emit("disk_probe", ok=True)
    assert record["event"] == "disk_probe" and log.tail()[-1] == record


# -- routes -------------------------------------------------------------------------


def test_a_full_worker_answers_a_shard_assignment_with_429(server, monkeypatch):
    def full(*args, **kwargs):
        raise QueueFull(depth=3, limit=3, retry_after=7)

    monkeypatch.setattr(server.app.worker, "submit", full)
    body = json.dumps({"spec": PREDICT, "shards": 1, "shard_indices": [0]}).encode()
    error = _http_error(server.url + "/campaigns/assigned", data=body)
    assert error.code == 429 and error.headers["Retry-After"] == "7"
    assert json.loads(error.read())["retry_after_s"] == 7


def test_an_unknown_campaign_report_is_404(server):
    error = _http_error(server.url + "/campaigns/nope/report")
    assert error.code == 404 and json.loads(error.read()) == {"error": "unknown campaign 'nope'"}


def test_cluster_routes_answer_unknown_submissions_and_reports(tmp_path):
    with LocalCluster(store=tmp_path / "routes.sqlite", instances=1) as cluster:
        for path in ("/cluster/campaigns/nope", "/cluster/campaigns/nope/report"):
            error = _http_error(cluster.url + path)
            assert error.code == 404
            assert json.loads(error.read()) == {"error": "unknown submission 'nope'"}
        request = urllib.request.Request(
            cluster.url + "/cluster/campaigns", data=json.dumps(PREDICT).encode()
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            sid = json.loads(response.read())["id"]
        deadline = time.monotonic() + 60
        while _get(f"{cluster.url}/cluster/campaigns/{sid}")[1]["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        _, report = _get(f"{cluster.url}/cluster/campaigns/{sid}/report?kind=summary")
        assert report["rows"] == [["predict", "ok", 1]]
        _, uncached = _get(cluster.url + "/cluster/status?cache=off")
        _, cached = _get(cluster.url + "/cluster/status")
        assert uncached["submissions"] == cached["submissions"]


def test_a_verbose_server_logs_each_request(tmp_path, capsys):
    with CampaignServer(host="127.0.0.1", port=0, store=tmp_path / "v.sqlite", quiet=False) as loud:
        assert _get(loud.url + "/healthz")[0] == 200
    assert '"GET /healthz HTTP/1.1" 200' in capsys.readouterr().err


def test_a_client_hanging_up_mid_response_leaves_the_server_serving(server, monkeypatch):
    real_send = _CampaignRequestHandler._send
    hung_up = []

    def hang_up(self, response):
        if not hung_up:
            hung_up.append(self.path)
            self.close_connection = True
            raise BrokenPipeError
        return real_send(self, response)

    monkeypatch.setattr(_CampaignRequestHandler, "_send", hang_up)
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        urllib.request.urlopen(server.url + "/healthz", timeout=30).read()
    assert hung_up == ["/healthz"]
    assert _get(server.url + "/healthz")[0] == 200


def test_an_empty_chunk_in_a_stream_does_not_end_the_body(server, monkeypatch):
    # In chunked encoding a zero-length chunk marks the end of the body.
    parts = [b"first\n", b"", b"second\n"]
    monkeypatch.setattr(
        server.app, "handle", lambda request: Response(content_type="text/plain", stream=iter(parts))
    )
    with urllib.request.urlopen(server.url + "/healthz", timeout=30) as response:
        assert response.headers["Transfer-Encoding"] == "chunked"
        assert response.read() == b"first\nsecond\n"


def test_a_wildcard_bind_advertises_the_host_name(tmp_path):
    server = CampaignServer(host="0.0.0.0", port=0, store=tmp_path / "any.sqlite")
    try:
        assert server.app._endpoint == (socket.gethostname(), server.port)
    finally:
        server.stop()


def test_a_hot_tune_with_no_surviving_configuration_is_refused():
    # No blocking of a radius-8 3-D star fits in shared memory in double.
    spec = JobSpec("tune", "star3d8r", "V100", "double", (64, 64, 64), 4, params=(("top_k", 5),))
    with pytest.raises(ValueError, match="no valid configuration for stencil 'star3d8r'"):
        HotModelCache().tune(spec)


# -- the worker loop -------------------------------------------------------------------


def test_a_worker_starts_once_and_reports_a_loop_that_never_comes_up(tmp_path, monkeypatch):
    with ResultStore(tmp_path / "loop.sqlite") as store:
        worker = CampaignWorker(store)
        worker.start()
        thread = worker._thread
        worker.start()
        assert worker._thread is thread
        assert worker.stop()
        stuck = CampaignWorker(store)
        monkeypatch.setattr(CampaignWorker, "STARTUP_TIMEOUT_S", 0.05)
        monkeypatch.setattr(CampaignWorker, "_run_loop", lambda self: None)
        with pytest.raises(RuntimeError, match="campaign worker event loop failed to start"):
            stuck.start()


def test_a_stop_that_outlasts_its_drain_window_says_so(tmp_path, monkeypatch):
    release = threading.Event()
    with ResultStore(tmp_path / "drain.sqlite") as store:
        worker = CampaignWorker(store)

        def slow(record, spec, plan):
            release.wait(30)
            raise RuntimeError("released")

        monkeypatch.setattr(worker, "_execute", slow)
        monkeypatch.setattr(CampaignWorker, "STOP_TIMEOUT_S", 0.05)
        worker.start()
        record = worker.submit(CampaignSpec.from_json(PREDICT))
        deadline = time.monotonic() + 30
        while record.state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert worker.stop() is False  # still running: the store must stay open
        release.set()
        worker._thread.join(30)
        assert record.state == "failed"


def test_killing_a_worker_twice_is_harmless(tmp_path):
    with ResultStore(tmp_path / "kill.sqlite") as store:
        worker = CampaignWorker(store)
        worker.start()
        worker.kill()
        worker._thread.join(30)
        assert worker._loop.is_closed()
        worker.kill()


def test_a_killed_worker_admits_nothing_more(tmp_path, monkeypatch):
    with ResultStore(tmp_path / "admit.sqlite") as store:
        worker = CampaignWorker(store)
        monkeypatch.setattr(worker, "_execute", pytest.fail)
        worker._killed = True
        record = CampaignRecord(id="c1", spec=CampaignSpec.from_json(PREDICT))
        asyncio.run(worker._run_admitted(record))
        assert record.state == "queued"


def test_heavy_campaigns_leave_the_reserved_slot_to_light_ones(tmp_path, monkeypatch):
    monkeypatch.setattr(worker_module, "HEAVY_JOBS", 0)  # every campaign is heavy
    running, peak = [0], [0]
    lock = threading.Lock()
    with ResultStore(tmp_path / "heavy.sqlite") as store:
        worker = CampaignWorker(store, WorkerSettings(concurrency=2, reserve_interactive=1))
        real_execute = worker._execute

        def counted(record, spec, plan):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.2)
            with lock:
                running[0] -= 1
            return real_execute(record, spec, plan)

        monkeypatch.setattr(worker, "_execute", counted)
        worker.start()
        records = [
            worker.submit(CampaignSpec.from_json({**PREDICT, "time_steps": steps}))
            for steps in (5, 6)
        ]
        deadline = time.monotonic() + 60
        while any(record.state != "done" for record in records):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert worker.stop()
    assert peak == [1]  # two heavy campaigns, one slot for them


def test_ctrl_c_ends_a_foreground_server(tmp_path, monkeypatch):
    server = CampaignServer(host="127.0.0.1", port=0, store=tmp_path / "fg.sqlite")

    def interrupted(poll_interval):
        raise KeyboardInterrupt

    monkeypatch.setattr(server._httpd, "serve_forever", interrupted)
    try:
        server.run()  # returns instead of raising
        assert server.app.worker._thread is not None  # the app had started
    finally:
        server.stop()
