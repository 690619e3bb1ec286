"""End-to-end tests for the HTTP campaign service and its wire format.

The service harness starts a real ``CampaignServer`` on an ephemeral port
in a background thread, drives it over HTTP with urllib, and checks the
acceptance contract: a campaign submitted over HTTP produces reports and
store exports *byte-identical* to the same ``CampaignSpec`` run through
``an5d campaign run``, and re-submitting is served 100% from the warm
store.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign.jobs import CampaignSpec, JobSpec
from repro.cli import main
from repro.service import CampaignApp, CampaignServer, Request, WorkerSettings
from repro.service.wire import WireError, decode_submit

#: A campaign small enough to run cold in a couple of seconds.
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

#: The identical campaign, spelled as ``an5d campaign run`` flags.
SPEC_ARGV = [
    "--benchmarks", "j2d5pt,star3d1r",
    "--gpus", "V100",
    "--dtypes", "float",
    "--kinds", "tune",
    "--time-steps", "100",
    "--interior-2d", "512x512",
    "--interior-3d", "48x48x48",
    "--top-k", "2",
]


def _request(server, path, method="GET", data=None):
    """One HTTP round-trip; returns (status, body bytes, headers)."""
    payload = json.dumps(data).encode() if data is not None else None
    request = urllib.request.Request(server.url + path, method=method, data=payload)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read(), dict(response.headers)


def _submit(server, spec=SPEC_JSON):
    status, body, _ = _request(server, "/campaigns", method="POST", data=spec)
    assert status == 202
    return json.loads(body)


def _poll_done(server, cid, runs=1, timeout=120.0):
    """Poll the status endpoint until the campaign's latest run settles."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body, _ = _request(server, f"/campaigns/{cid}")
        status = json.loads(body)
        if status["state"] in ("done", "failed") and status["runs"] >= runs:
            return status
        time.sleep(0.05)
    raise AssertionError(f"campaign {cid} did not settle within {timeout}s")


@pytest.fixture()
def server(tmp_path):
    with CampaignServer(
        host="127.0.0.1", port=0, store=tmp_path / "service.sqlite",
        settings=WorkerSettings(workers=1, concurrency=2),
    ) as running:
        yield running


# -- the end-to-end acceptance path ---------------------------------------------------


def test_http_campaign_matches_cli_end_to_end(server, tmp_path, capsys):
    submitted = _submit(server)
    assert submitted["jobs"] == 2 and submitted["state"] in ("queued", "running")
    cid = submitted["id"]
    status = _poll_done(server, cid)
    assert status["state"] == "done"
    assert status["jobs"] == {"total": 2, "done": 2, "failed": 0, "pending": 0}
    assert status["outcome"]["cache_hit_rate"] == 0.0  # cold run

    # The same CampaignSpec through `an5d campaign run` into a fresh store.
    cli_store = str(tmp_path / "cli.sqlite")
    assert main(["campaign", "run", "--store", cli_store, *SPEC_ARGV]) == 0
    cli_jsonl = tmp_path / "cli.jsonl"
    assert main(["campaign", "export", "--store", cli_store, "-o", str(cli_jsonl)]) == 0
    capsys.readouterr()

    # Acceptance: the streamed HTTP export is byte-identical to the CLI's.
    _, exported, headers = _request(server, f"/campaigns/{cid}/export")
    assert exported == cli_jsonl.read_bytes()
    assert headers["X-Result-Count"] == "2"
    assert headers.get("ETag")

    # The text report matches `an5d campaign report` on the service's store.
    _, report_text, _ = _request(server, f"/campaigns/{cid}/report?kind=table5&format=text")
    assert main(["campaign", "report", "--store", server.app.store.path]) == 0
    assert report_text.decode() == capsys.readouterr().out


def test_resubmit_is_served_entirely_from_warm_cache(server):
    cid = _submit(server)["id"]
    _poll_done(server, cid)
    resubmitted = _submit(server)
    assert resubmitted["id"] == cid  # same content address, same campaign
    status = _poll_done(server, cid, runs=2)
    assert status["runs"] == 2
    assert status["outcome"]["cache_hit_rate"] == 1.0
    assert status["outcome"]["executed"] == 0


def test_report_kinds_and_formats(server):
    cid = _submit(server)["id"]
    _poll_done(server, cid)

    _, body, headers = _request(server, f"/campaigns/{cid}/report?kind=leaderboard")
    assert headers["Content-Type"] == "application/json"
    table = json.loads(body)
    assert table["headers"][:2] == ["rank", "pattern"] and len(table["rows"]) == 2

    _, body, _ = _request(server, f"/campaigns/{cid}/report?kind=accuracy&format=jsonl")
    records = [json.loads(line) for line in body.decode().splitlines()]
    assert records and 0.0 < records[0]["mean"] <= 1.0

    _, body, _ = _request(server, f"/campaigns/{cid}/report?kind=summary&format=text")
    assert "tune" in body.decode()


def test_campaigns_sharing_a_store_stay_scoped(server):
    """Counts, reports and exports follow the addressed campaign only."""
    cid = _submit(server)["id"]
    _poll_done(server, cid)
    # A second, disjoint campaign in the same store must not leak into
    # the first campaign's counts, reports or exports.
    other = dict(SPEC_JSON, benchmarks=["j2d9pt"])
    other_cid = _submit(server, other)["id"]
    assert other_cid != cid
    _poll_done(server, other_cid)
    _, body, _ = _request(server, f"/campaigns/{cid}")
    assert json.loads(body)["jobs"]["total"] == 2
    _, body, _ = _request(server, f"/campaigns/{cid}/report?kind=table5")
    patterns = [row[0] for row in json.loads(body)["rows"]]
    assert patterns == ["j2d5pt", "star3d1r"]  # no j2d9pt leakage
    _, body, _ = _request(server, f"/campaigns/{other_cid}/report?kind=leaderboard")
    assert [row[1] for row in json.loads(body)["rows"]] == ["j2d9pt"]
    _, exported, _ = _request(server, f"/campaigns/{other_cid}/export")
    assert [json.loads(line)["pattern"] for line in exported.decode().splitlines()] == ["j2d9pt"]
    _, body, _ = _request(server, "/campaigns")
    listed = json.loads(body)["campaigns"]
    assert [c["id"] for c in listed] == [cid, other_cid]  # submission order


def test_healthz_live(server):
    status, body, _ = _request(server, "/healthz")
    payload = json.loads(body)
    assert status == 200 and payload["status"] == "ok"
    assert payload["store"].endswith("service.sqlite")
    assert any("/campaigns" in route for route in payload["routes"])


def test_sharded_worker_scopes_status_and_exports(tmp_path):
    """A shard-0 instance reports progress over its own slice, not the
    whole matrix — otherwise a finished shard looks forever pending."""
    from repro.campaign.scheduler import ShardPlan
    from repro.campaign.store import ResultStore
    from repro.service import CampaignWorker

    spec = CampaignSpec.from_json(dict(SPEC_JSON, benchmarks=["j2d5pt", "j2d9pt", "star3d1r"]))
    shard_jobs = [job for job in spec.expand() if job.shard(2) == 0]
    assert 0 < len(shard_jobs) < spec.size()  # the split is non-trivial
    store = ResultStore(tmp_path / "shard.sqlite")
    worker = CampaignWorker(store)
    worker.start()
    try:
        record = worker.submit(spec, plan=ShardPlan(2, (0,)))
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = worker.status(record.id)
            if status["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert status["state"] == "done"
        assert status["jobs"] == {
            "total": len(shard_jobs), "done": len(shard_jobs), "failed": 0, "pending": 0,
        }
        assert worker.job_keys(record.id) == [job.key() for job in shard_jobs]
    finally:
        assert worker.stop() is True
        store.close()


# -- HTTP error contract --------------------------------------------------------------


def _expect_http_error(server, path, method="GET", data=None):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _request(server, path, method=method, data=data)
    error = excinfo.value
    return error.code, json.loads(error.read())


def test_submit_rejects_unknown_fields(server):
    code, payload = _expect_http_error(
        server, "/campaigns", method="POST", data={"benchmark": ["j2d5pt"]}
    )
    assert code == 400 and "unknown campaign spec field" in payload["error"]


def test_submit_rejects_bad_json_and_bad_values(server):
    request = urllib.request.Request(
        server.url + "/campaigns", method="POST", data=b"{not json"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400

    code, payload = _expect_http_error(
        server, "/campaigns", method="POST", data={"benchmarks": ["nope"]}
    )
    assert code == 400 and "nope" in payload["error"]

    code, payload = _expect_http_error(
        server, "/campaigns", method="POST", data={"gpus": ["H100"]}
    )
    assert code == 400 and "H100" in payload["error"]


def test_unknown_campaign_and_unknown_route_are_404(server):
    for path in ("/campaigns/c000000000000", "/campaigns/c000000000000/export", "/nope"):
        code, payload = _expect_http_error(server, path)
        assert code == 404, path
        assert "error" in payload


def test_wrong_method_is_405(server):
    code, _ = _expect_http_error(server, "/campaigns", method="DELETE")
    assert code == 405


def test_unknown_report_kind_is_400(server):
    cid = _submit(server)["id"]
    code, payload = _expect_http_error(server, f"/campaigns/{cid}/report?kind=pie")
    assert code == 400 and "unknown report kind" in payload["error"]


# -- wire format: content-address stability across submit routes ----------------------


def test_campaign_spec_json_round_trip_is_key_identical():
    spec = CampaignSpec.from_json(SPEC_JSON)
    again = CampaignSpec.from_json(spec.to_json())
    assert again == spec and again.key() == spec.key()
    assert [j.key() for j in again.expand()] == [j.key() for j in spec.expand()]


def test_campaign_id_stable_across_aliases_and_spellings():
    canonical = CampaignSpec.from_json(SPEC_JSON)
    # GPU aliases, repeated matrix entries and case differences all collapse
    # to the same normalised spec — and therefore the same campaign id.
    aliased = CampaignSpec.from_json(dict(SPEC_JSON, gpus=["v100", "volta", "V100"]))
    assert aliased.short_id() == canonical.short_id()
    assert aliased.gpus == ("V100",)
    repeated = CampaignSpec.from_json(
        dict(SPEC_JSON, benchmarks=["j2d5pt", "j2d5pt", "star3d1r"])
    )
    assert repeated.short_id() == canonical.short_id()


def test_job_spec_json_round_trip_normalizes_gpu_aliases():
    job = JobSpec("tune", "j2d5pt", "V100", "float", (512, 512), 100, (("top_k", 2),))
    aliased = JobSpec.from_json(dict(job.to_json(), gpu="volta"))
    assert aliased.gpu == "V100"
    assert aliased.key() == job.key()  # content address is submit-route independent
    assert JobSpec.from_json(job.to_json()) == job


def test_job_spec_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError, match="unknown job spec field"):
        JobSpec.from_json({"kind": "tune", "patern": "j2d5pt"})
    with pytest.raises(ValueError, match="missing job spec field"):
        JobSpec.from_json({"kind": "tune", "pattern": "j2d5pt"})
    with pytest.raises(ValueError, match="params"):
        JobSpec.from_json(
            {"kind": "tune", "pattern": "j2d5pt", "gpu": "V100", "dtype": "float",
             "interior": [512, 512], "time_steps": 100, "params": [1, 2]}
        )
    # A string interior would iterate digit-by-digit into (5, 1, 2).
    with pytest.raises(ValueError, match="interior"):
        JobSpec.from_json(
            {"kind": "tune", "pattern": "j2d5pt", "gpu": "V100", "dtype": "float",
             "interior": "512", "time_steps": 100}
        )


def test_wire_decoders_map_failures_to_400():
    for body in (b"", b"[1, 2]", b"\xff\xfe", json.dumps({"gpus": "V100"}).encode()):
        with pytest.raises(WireError) as excinfo:
            decode_submit(body)
        assert excinfo.value.status == 400


# -- the app is drivable without a socket ---------------------------------------------


def test_app_handlers_work_without_http(tmp_path):
    app = CampaignApp(tmp_path / "app.sqlite", WorkerSettings())
    app.start()
    try:
        response = app.handle(Request("GET", "/healthz"))
        assert response.status == 200
        submitted = app.handle(
            Request("POST", "/campaigns", body=json.dumps(SPEC_JSON).encode())
        )
        assert submitted.status == 202
        cid = json.loads(submitted.body)["id"]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = json.loads(app.handle(Request("GET", f"/campaigns/{cid}")).body)
            if status["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert status["state"] == "done"
        export = app.handle(Request("GET", f"/campaigns/{cid}/export"))
        assert export.stream is not None
        assert len(b"".join(export.stream).splitlines()) == 2
    finally:
        app.close()


# -- observability: /metrics, wire-propagated traces ----------------------------------


def test_metrics_endpoint_serves_parseable_prometheus(server):
    from repro.obs import parse_prometheus

    cid = _submit(server)["id"]
    _poll_done(server, cid)
    status, body, headers = _request(server, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    samples = parse_prometheus(body.decode("utf-8"))

    routes = {labels["route"] for labels, _ in samples["requests_total"]}
    assert {"submit_campaign", "campaign_status"} <= routes
    codes = {labels["code"] for labels, _ in samples["requests_total"]}
    assert {"202", "200"} <= codes
    assert sum(v for _, v in samples["requests_total"]) >= 3

    # Per-route latency histogram and per-kind job metrics from the run.
    assert any(l["route"] == "submit_campaign" for l, _ in samples["request_seconds_bucket"])
    done = {
        l["kind"]: v for l, v in samples["jobs_completed_total"] if l["status"] == "ok"
    }
    assert done.get("tune", 0) == len(SPEC_JSON["benchmarks"])
    assert any(v > 0 for _, v in samples["store_commit_seconds_count"])


def test_wire_trace_propagates_from_submit_to_job_spans(server):
    from repro.obs import TraceContext, context_to_wire, new_span_id, new_trace_id

    trace = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
    envelope = dict(SPEC_JSON)
    envelope["trace"] = context_to_wire(trace)
    status, body, _ = _request(server, "/campaigns", method="POST", data=envelope)
    assert status == 202
    submitted = json.loads(body)
    assert submitted["trace_id"] == trace.trace_id
    _poll_done(server, submitted["id"])

    # The trace envelope rides next to the payload, never inside it: the
    # campaign id must be identical to a traceless submit of the same spec.
    assert _submit(server)["id"] == submitted["id"]

    _, body, _ = _request(server, f"/trace/{trace.trace_id}")
    tree = json.loads(body)
    assert tree["trace_id"] == trace.trace_id
    spans = {s["name"]: s for s in tree["spans"]}
    assert {"campaign.submit", "campaign.run"} <= set(spans)
    # The submit span joins the client's trace; the runs hang off the submit.
    assert spans["campaign.submit"]["parent_span_id"] == trace.span_id
    assert spans["campaign.run"]["parent_span_id"] == spans["campaign.submit"]["span_id"]
    assert all(s["trace_id"] == trace.trace_id for s in tree["spans"])


def test_malformed_trace_envelopes_are_400(server):
    good = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
    for bad, needle in (
        ({**good, "started_at": 123.0}, "no timestamps"),
        ({**good, "trace_id": "NOT-HEX"}, "lowercase hex"),
        ({"trace_id": good["trace_id"]}, "span_id"),
        ("just-a-string", "JSON object"),
    ):
        code, payload = _expect_http_error(
            server, "/campaigns", method="POST", data={**SPEC_JSON, "trace": bad}
        )
        assert code == 400 and needle in payload["error"], bad


def test_unknown_trace_is_404(server):
    code, payload = _expect_http_error(server, "/trace/" + "f" * 32)
    assert code == 404 and "unknown trace" in payload["error"]
