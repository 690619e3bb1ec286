"""Broad ``except`` sites do what they exist for when a fault is injected.

* a handler raising something unexpected is a 500 naming the error class,
  counted on ``request_errors_total``, and the server keeps answering;
* a campaign whose scheduler raises reads ``failed`` and is counted on
  ``campaign_failures_total``;
* a local cluster that fails half-way through ``start()`` stops every server
  it had already started.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import LocalCluster
from repro.obs import parse_prometheus
from repro.service import CampaignApp, CampaignServer, WorkerSettings
from test_service import SPEC_JSON, _poll_done, _request, _submit


@pytest.fixture()
def server(tmp_path):
    with CampaignServer(
        host="127.0.0.1", port=0, store=tmp_path / "faults.sqlite",
        settings=WorkerSettings(workers=1, concurrency=1),
    ) as running:
        yield running


def _samples(server) -> dict:
    _, body, _ = _request(server, "/metrics")
    return parse_prometheus(body.decode())


def test_a_handler_that_raises_is_a_500_and_the_server_keeps_serving(server, monkeypatch):
    def broken(request):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(server.app, "health", broken)
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(server.url + "/healthz", timeout=30)
    assert raised.value.code == 500
    assert json.loads(raised.value.read()) == {"error": "internal error: RuntimeError: disk on fire"}
    samples = _samples(server)
    assert ({"route": "health", "error_class": "RuntimeError"}, 1.0) in samples["request_errors_total"]
    assert ({"route": "health", "method": "GET", "code": "500"}, 1.0) in samples["requests_total"]


def test_a_campaign_whose_scheduler_raises_reads_failed_and_is_counted(server, monkeypatch):
    def broken(record, spec, plan):
        raise RuntimeError("scheduler lost its store")

    monkeypatch.setattr(server.app.worker, "_execute", broken)
    submitted = _submit(server, SPEC_JSON)
    status, _ = _poll_done(server, submitted["id"])
    assert status["state"] == "failed"
    assert status["error"] == "RuntimeError: scheduler lost its store"
    assert "outcome" not in status
    samples = _samples(server)
    assert ({"error_class": "RuntimeError"}, 1.0) in samples["campaign_failures_total"]


def test_a_cluster_that_fails_to_start_stops_the_servers_it_started(tmp_path, monkeypatch):
    started = []
    real_start = CampaignServer.start
    real_app_start = CampaignApp.start

    def recording_start(self):
        real_start(self)
        started.append(self)

    def app_start(self):
        if self.cluster.instance_id == "w-coordinator":
            raise OSError("coordinator port refused")
        real_app_start(self)

    monkeypatch.setattr(CampaignServer, "start", recording_start)
    monkeypatch.setattr(CampaignApp, "start", app_start)
    cluster = LocalCluster(store=tmp_path / "cluster.sqlite", instances=2, standbys=1)
    failures = []

    def start():
        try:
            cluster.start()
        except OSError as error:
            failures.append(error)

    starter = threading.Thread(target=start, daemon=True)
    starter.start()
    starter.join(timeout=60)
    assert not starter.is_alive(), "stopping a server that never served hung"
    assert [str(error) for error in failures] == ["coordinator port refused"]
    assert len(started) == 3  # two workers and the standby came up first
    assert cluster.coordinator is None and cluster.workers == [] and cluster.standbys == []
    for server in started:
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(server.url + "/healthz", timeout=5)
