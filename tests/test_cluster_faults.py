"""Chaos suite: the wire-native result path under injected faults.

The acceptance contract of the robustness layer: a campaign sharded over
wire-native workers (no filesystem access to the store), with drops,
duplicates and a mid-campaign coordinator kill injected, still completes
and exports *byte-identical* to a solo run.  The supporting invariants are
each pinned by their own test:

* the retry taxonomy (retryable vs terminal) and the jittered backoff;
* the coordinator lease as a CAS (fresh acquire, renewal, steal, release);
* receiver-stamped liveness — sender clocks never enter the registry, so
  instances whose wall clocks disagree by minutes agree on liveness;
* commit idempotency — the same batch committed N times interleaved
  across two workers leaves one row per key and an unchanged export;
* the journal — results survive a coordinator outage and a worker crash.
"""

import http.server
import json
import random
import sqlite3
import threading
import time

import pytest

import repro.cluster.client as cluster_client_module

from repro.campaign.jobs import CampaignSpec
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import ResultStore, make_record
from repro.cluster import (
    ClusterClient,
    ClusterError,
    ClusterHTTPError,
    FaultPlan,
    FaultyClusterClient,
    InstanceRegistry,
    LocalCluster,
    RETRYABLE_STATUSES,
    RemoteStore,
    backoff_delay,
    is_retryable,
    kill_instance,
)
from repro.service.wire import WireError, decode_instance_id, decode_member

#: Model-only matrix: fast (batched engine), still multi-benchmark.
PREDICT_SPEC = CampaignSpec(
    benchmarks=("j2d5pt", "j2d9pt", "gradient2d", "star3d1r", "star3d2r", "j3d27pt"),
    gpus=("V100",),
    dtypes=("float",),
    kinds=("predict",),
    time_steps=100,
    interior_2d=(512, 512),
    interior_3d=(48, 48, 48),
)


#: Wider matrix for the end-to-end chaos runs: more jobs => more wire
#: traffic => the seeded fault plans reliably inject something.
CHAOS_SPEC = CampaignSpec(
    benchmarks=PREDICT_SPEC.benchmarks,
    gpus=("V100", "P100"),
    dtypes=("float",),
    kinds=("predict", "tune"),
    time_steps=100,
    interior_2d=(512, 512),
    interior_3d=(48, 48, 48),
)


def _solo_export(tmp_path, spec=PREDICT_SPEC):
    """The reference artifact every chaos run must reproduce byte for byte."""
    with ResultStore(tmp_path / "solo.sqlite") as store:
        outcome = CampaignScheduler(spec, store).run()
        assert outcome.ok
        path = store.export_jsonl(tmp_path / "solo.jsonl")
    return path.read_bytes()


def _wait_submission(client, url, sid, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.submission_status(url, sid)
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"submission {sid} did not settle within {timeout}s")


# -- error taxonomy and backoff -------------------------------------------------------


def test_retry_taxonomy_separates_transient_from_terminal():
    for status in sorted(RETRYABLE_STATUSES):
        assert is_retryable(ClusterHTTPError(status, {}))
    for status in (400, 404, 409, 422):
        assert not is_retryable(ClusterHTTPError(status, {}))
    assert is_retryable(ClusterError("connection refused"))  # no status: transport
    assert not is_retryable(ValueError("not a cluster error at all"))


def test_backoff_delay_is_capped_exponential_with_jitter():
    rng = random.Random(0)
    for attempt in range(12):
        ceiling = min(0.05 * (2 ** attempt), 2.0)
        samples = [backoff_delay(attempt, rng=rng) for _ in range(50)]
        assert all(0.1 * ceiling <= s <= ceiling for s in samples)
    # Jitter draws differ (full jitter, not a fixed schedule).
    assert len({backoff_delay(6, rng=rng) for _ in range(20)}) > 1


# -- fault plan and injection ---------------------------------------------------------


class _PlainTextErrors(http.server.BaseHTTPRequestHandler):
    """``/flaky`` answers one text/plain 503, then JSON; ``/bad`` is a text/plain 400."""

    def do_GET(self) -> None:
        hits = self.server.hits  # type: ignore[attr-defined]
        hits[self.path] = hits.get(self.path, 0) + 1
        if self.path == "/flaky" and hits[self.path] > 1:
            status, body, kind = 200, b'{"ok": true}', "application/json"
        else:
            status, body, kind = (503 if self.path == "/flaky" else 400), b"not JSON", "text/plain"
        self.send_response(status)
        self.send_header("Content-Type", kind)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


def test_plain_text_error_bodies_are_retried_or_raised(monkeypatch):
    monkeypatch.setattr(cluster_client_module.time, "sleep", lambda seconds: None)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _PlainTextErrors)
    server.hits = {}
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.server_port}"
    try:
        client = ClusterClient(retries=2)
        assert client.get_json(base + "/flaky") == {"ok": True}
        assert server.hits["/flaky"] == 2  # the 503 was retried
        with pytest.raises(ClusterHTTPError) as excinfo:
            client.request(base + "/bad")
        assert excinfo.value.status == 400 and set(excinfo.value.payload) == {"error"}
        assert server.hits["/bad"] == 1  # a terminal 400 raises at once
    finally:
        server.shutdown()
        server.server_close()


def test_fault_plan_validates_probabilities():
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        FaultPlan(drop=1.5)


def test_fault_injection_is_seeded_and_tallied():
    class Transport(FaultyClusterClient):
        def __init__(self, plan):
            super().__init__(plan)
            self.sent = 0

        def request(self, url, method="GET", payload=None, data=None, content_type=None):
            # Bypass FaultyClusterClient.request's real send by overriding at
            # the ClusterClient layer instead: count what actually "lands".
            faults = self._decide()
            if faults["drop"]:
                self.injected["drop"] += 1
                raise ClusterError("injected drop")
            if faults["duplicate"]:
                self.injected["duplicate"] += 1
                self.sent += 2
                return (200, b"{}")
            self.sent += 1
            return (200, b"{}")

    outcomes = []
    for _ in range(2):  # identical seed => identical fault schedule
        client = Transport(FaultPlan(drop=0.3, duplicate=0.2, seed=42))
        log = []
        for index in range(50):
            try:
                client.request(f"http://peer/{index}")
                log.append("ok")
            except ClusterError:
                log.append("drop")
        outcomes.append((tuple(log), client.injected_counts(), client.sent))
    assert outcomes[0] == outcomes[1]
    counts = outcomes[0][1]
    assert counts["drop"] > 0 and counts["duplicate"] > 0


def test_injected_faults_surface_to_the_caller(tmp_path):
    """A drop is not quietly absorbed by the stock retry loop: the machinery
    *above* the client (journal, flush backoff, peer rotation) must recover."""
    client = FaultyClusterClient(FaultPlan(drop=1.0, seed=1), retries=3)
    with pytest.raises(ClusterError, match="injected drop"):
        client.request("http://127.0.0.1:9/healthz")
    assert client.injected_counts()["drop"] == 1  # one draw, not one per retry


# -- coordinator lease: CAS over the store --------------------------------------------


def test_lease_acquire_renew_steal_release(tmp_path):
    store = ResultStore(tmp_path / "lease.sqlite")
    assert store.acquire_lease("coordinator", "c0", ttl=10.0, now=100.0)
    lease = store.get_lease("coordinator")
    assert lease["holder"] == "c0" and lease["expires_at"] == 110.0
    # A live lease cannot be stolen.
    assert not store.acquire_lease("coordinator", "c1", ttl=10.0, now=105.0)
    # The holder renews (extends expiry, keeps the original acquired_at).
    assert store.acquire_lease("coordinator", "c0", ttl=10.0, now=108.0)
    lease = store.get_lease("coordinator")
    assert lease["expires_at"] == 118.0 and lease["acquired_at"] == 100.0
    # Expiry opens the lease to any contender; the seizure re-stamps it.
    assert store.acquire_lease("coordinator", "c1", ttl=10.0, now=119.0)
    lease = store.get_lease("coordinator")
    assert lease["holder"] == "c1" and lease["acquired_at"] == 119.0
    # Release is holder-gated; a stale holder cannot drop the new lease.
    assert not store.release_lease("coordinator", "c0")
    assert store.release_lease("coordinator", "c1")
    assert store.get_lease("coordinator") is None
    store.close()


def test_standby_coordinator_defers_while_lease_is_held(tmp_path):
    from repro.cluster import ClusterCoordinator

    store = ResultStore(tmp_path / "standby.sqlite")
    now = [0.0]
    registry = InstanceRegistry(store, liveness_timeout=5.0, clock=lambda: now[0])
    primary = ClusterCoordinator(store, registry, instance_id="c0", lease_ttl=5.0)
    standby = ClusterCoordinator(store, registry, instance_id="c1", lease_ttl=5.0)
    assert primary.holds_lease()
    # The standby's tick is a no-op while the primary renews.
    assert standby.tick() == {"settled": [], "redispatched": [], "standby": True}
    # A standby still *accepts* submissions — they queue for the holder.
    submitted = standby.submit(PREDICT_SPEC)
    assert submitted["state"] == "queued"
    assert store.get_lease("coordinator")["holder"] == "c0"
    # The primary stops renewing; past the TTL the standby's tick seizes it.
    now[0] += 6.0
    report = standby.tick()
    assert "standby" not in report
    assert store.get_lease("coordinator")["holder"] == "c1"
    store.close()


# -- receiver-stamped liveness (clock-skew immunity) ----------------------------------


def test_clock_skew_between_instances_cannot_break_liveness(tmp_path):
    """Two members whose wall clocks disagree by minutes agree on liveness,
    because heartbeat arrivals are stamped with the *receiver's* clock and
    the wire envelope cannot even carry a sender timestamp."""
    receiver_now = [1000.0]
    store = ResultStore(tmp_path / "skew.sqlite")
    registry = InstanceRegistry(store, liveness_timeout=5.0, clock=lambda: receiver_now[0])
    # w-ahead's local clock is 5 minutes ahead; w-behind's is 3 minutes
    # behind.  Neither clock appears anywhere in the envelopes below — the
    # strict decoders are what a wire member's bytes pass through.
    for instance_id in ("w-ahead", "w-behind"):
        member = decode_member(
            json.dumps(
                {"instance_id": instance_id, "host": "127.0.0.1", "port": 1, "role": "worker"}
            ).encode()
        )
        registry.register(**member)
    receiver_now[0] += 4.0
    for instance_id in ("w-ahead", "w-behind"):
        registry.record_heartbeat(decode_instance_id(json.dumps({"instance_id": instance_id}).encode()))
    receiver_now[0] += 4.0  # 4s since last beat: both inside the 5s window
    assert {i.instance_id for i in registry.live()} == {"w-ahead", "w-behind"}
    receiver_now[0] += 2.0  # 6s: both lapse together, on the receiver's clock
    assert registry.live() == []
    store.close()


def test_wire_decoders_reject_sender_timestamps():
    member = {"instance_id": "w1", "host": "h", "port": 1, "role": "worker"}
    for poison in ("heartbeat_at", "last_seen", "timestamp"):
        with pytest.raises(WireError, match="receiver-stamped") as excinfo:
            decode_member(json.dumps({**member, poison: 12345.0}).encode())
        assert excinfo.value.status == 400
    with pytest.raises(WireError, match="receiver-stamped") as excinfo:
        decode_instance_id(json.dumps({"instance_id": "w1", "heartbeat_at": 1.0}).encode())
    assert excinfo.value.status == 400


# -- commit idempotency (the property that makes replays safe) ------------------------


@pytest.mark.parametrize("seed", range(4))
def test_replayed_interleaved_commits_leave_one_row_per_key(tmp_path, seed):
    """The same result batch committed N times, interleaved across two
    workers in random chunkings, yields exactly one row per key and an
    export byte-identical to committing each record once."""
    rng = random.Random(seed)
    jobs = PREDICT_SPEC.expand()
    records = [make_record(job, {"metric": job.key()[:8]}) for job in jobs]
    # Reference: each record committed exactly once.
    with ResultStore(tmp_path / "once.sqlite") as store:
        assert store.commit_records(records, now=1.0) == len(records)
        reference = store.export_jsonl(tmp_path / "once.jsonl").read_bytes()

    store = ResultStore(tmp_path / f"replay{seed}.sqlite")
    # Two workers hold overlapping halves; a few records start as 'failed'
    # (a failed row must be upgraded by a later ok commit, never vice versa).
    half = len(records) // 2
    workers = [records[:half + 2], records[half - 2:]]
    failed_first = [dict(r, status="failed", payload=json.dumps({"error": "transient"}))
                    for r in rng.sample(records, 3)]
    store.commit_records(failed_first, now=0.5)
    for replay in range(4):  # N replays, interleaved chunk by chunk
        batches = []
        for batch in workers:
            shuffled = rng.sample(batch, len(batch))
            size = rng.randint(1, max(1, len(shuffled) // 2))
            batches.extend(shuffled[i:i + size] for i in range(0, len(shuffled), size))
        rng.shuffle(batches)
        for chunk in batches:
            store.commit_records(chunk, now=float(replay))
    assert store.count() == len(records)  # one row per key, no duplicates
    assert store.count(status="ok") == len(records)  # failures were upgraded
    replayed = store.export_jsonl(tmp_path / f"replay{seed}.jsonl").read_bytes()
    store.close()
    assert replayed == reference


def test_ok_rows_are_immutable_under_conflicting_replays(tmp_path):
    """First ok wins: a late commit with a *different* payload for an
    ok key is dropped, so replays can never rewrite history."""
    job = PREDICT_SPEC.expand()[0]
    first = make_record(job, {"winner": True})
    conflicting = make_record(job, {"winner": False})
    with ResultStore(tmp_path / "immutable.sqlite") as store:
        assert store.commit_records([first]) == 1
        assert store.commit_records([conflicting]) == 0
        assert store.get(first["key"]).payload == {"winner": True}


# -- the journal: durability across outages and crashes -------------------------------


def test_journal_survives_outage_and_replays_after_crash(tmp_path):
    """put() while every peer is down loses nothing: the journal holds the
    results, a restarted store replays them, and the next reachable peer
    receives the full set."""
    journal = tmp_path / "worker.journal.jsonl"
    dead_url = "http://127.0.0.1:9"  # nothing listens on the discard port
    jobs = PREDICT_SPEC.expand()[:4]
    remote = RemoteStore(dead_url, journal=journal, flush_interval=10.0)
    try:
        for job in jobs:
            remote.put(job, {"metric": 1})
        # Offline, the journal alone answers status queries (dedupe works).
        assert remote.statuses([jobs[0].key()])[jobs[0].key()] == "ok"
        assert remote.has_ok(jobs[0])
        with pytest.raises(ClusterError):
            remote.flush()
        assert remote.pending_count() == len(jobs)
    finally:
        remote.close()  # "crash": the final drain fails, the journal stays

    # A new process on the same journal replays the unacknowledged records,
    # skipping a torn final line from a crash mid-append.
    with journal.open("a") as handle:
        handle.write('{"key": "torn-')
    revived = RemoteStore(dead_url, journal=journal, flush_interval=10.0)
    try:
        assert revived.pending_count() == len(jobs)
        # A peer comes up: the drain lands every journaled result.
        from repro.service import CampaignApp, Request, WorkerSettings

        app = CampaignApp(tmp_path / "coord.sqlite", WorkerSettings())
        app.start()
        try:
            server_store = app.store

            class InProcessClient(ClusterClient):
                def request(self, url, method="GET", payload=None, data=None, content_type=None):
                    if not url.startswith("http://peer"):
                        raise ClusterError(f"unreachable peer {url}")
                    body = data if data is not None else (
                        json.dumps(payload).encode() if payload is not None else None
                    )
                    path = url.split("http://peer", 1)[1]
                    response = app.handle(Request(method, path, body=body))
                    if response.status >= 400:
                        raise ClusterHTTPError(response.status, json.loads(response.body))
                    return response.status, response.body

            revived.client = InProcessClient()
            revived.update_peers(["http://peer"])
            assert revived.flush() == len(jobs)
            assert revived.pending_count() == 0
            assert server_store.count() == len(jobs)
            assert journal.read_text() == ""  # drained journals are truncated
        finally:
            app.close()
    finally:
        revived.close()


# -- end-to-end chaos: wire workers, faults, coordinator kill -------------------------


def test_wire_workers_under_faults_export_byte_identical(tmp_path):
    """3 instances whose workers have no filesystem access to the store,
    with 10% drops and 5% duplicates injected into every worker request,
    complete the campaign with an export byte-identical to a solo run."""
    client = ClusterClient()
    faults = FaultPlan(drop=0.1, duplicate=0.05, seed=7)
    with LocalCluster(
        store=tmp_path / "chaos.sqlite",
        instances=2,
        standbys=0,
        wire_workers=True,
        faults=faults,
        workdir=tmp_path,
    ) as cluster:
        for worker in cluster.workers:
            assert not worker.app.store_native  # no filesystem store access
            assert worker.app.store.path.startswith("wire:")
        submitted = client.submit(cluster.url, CHAOS_SPEC)
        status = _wait_submission(client, cluster.url, submitted["id"])
        assert status["state"] == "done"
        assert status["jobs"]["done"] == CHAOS_SPEC.size()
        injected = {}
        for worker in cluster.workers:
            for fault, count in worker.app.store.client.injected_counts().items():
                injected[fault] = injected.get(fault, 0) + count
        assert sum(injected.values()) > 0  # the run really was faulty
        exported = client.export(cluster.url, submitted["id"])
    assert exported == _solo_export(tmp_path, CHAOS_SPEC)


def test_coordinator_kill_fails_over_and_completes(tmp_path):
    """Kill the coordinator mid-campaign: the standby seizes the expired
    lease, resumes fan-out from the store-backed queue, and the campaign
    finishes with a byte-identical export."""
    client = ClusterClient()
    with LocalCluster(
        store=tmp_path / "failover.sqlite",
        instances=2,
        standbys=1,
        wire_workers=True,
        faults=FaultPlan(drop=0.05, duplicate=0.05, seed=99),
        workdir=tmp_path,
    ) as cluster:
        coordinators = {
            server.app.cluster.instance_id: server
            for server in (cluster.coordinator, cluster.standbys[0])
        }
        submitted = client.submit(cluster.url, PREDICT_SPEC)
        sid = submitted["id"]
        # Whichever coordinator ticked first holds the lease; kill *it*.
        holder_id = cluster.store.get_lease("coordinator")["holder"]
        survivor_id = next(iid for iid in coordinators if iid != holder_id)
        survivor = coordinators[survivor_id]
        time.sleep(0.3)  # let the campaign get underway
        kill_instance(coordinators[holder_id])
        # The survivor's monitor tick finds the lease expired and seizes it.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            lease = cluster.store.get_lease("coordinator")
            if lease is not None and lease["holder"] == survivor_id:
                break
            time.sleep(0.05)
        assert cluster.store.get_lease("coordinator")["holder"] == survivor_id
        # Workers re-resolve the commit target from heartbeat peer lists;
        # the campaign settles under the new coordinator.
        status = _wait_submission(client, survivor.url, sid)
        assert status["state"] == "done"
        assert status["jobs"]["done"] == PREDICT_SPEC.size()
        exported = client.export(survivor.url, sid)
    assert exported == _solo_export(tmp_path)


def test_graceful_shutdown_hands_the_lease_to_a_standby(tmp_path):
    """stop() releases the lease explicitly, so a standby takes over without
    waiting out the TTL (crash vs graceful are distinct paths)."""
    with LocalCluster(
        store=tmp_path / "handover.sqlite",
        instances=1,
        standbys=1,
        wire_workers=True,
        workdir=tmp_path,
    ) as cluster:
        coordinators = {
            server.app.cluster.instance_id: server
            for server in (cluster.coordinator, cluster.standbys[0])
        }
        # The first monitor tick writes the lease; wait for it to appear.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            lease = cluster.store.get_lease("coordinator")
            if lease is not None:
                break
            time.sleep(0.05)
        holder_id = cluster.store.get_lease("coordinator")["holder"]
        survivor_id = next(iid for iid in coordinators if iid != holder_id)
        coordinators[holder_id].stop()
        # Released, not expired: the next survivor tick acquires it fresh —
        # handover completes well inside the liveness TTL.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            lease = cluster.store.get_lease("coordinator")
            if lease is not None and lease["holder"] == survivor_id:
                break
            time.sleep(0.05)
        assert cluster.store.get_lease("coordinator")["holder"] == survivor_id


# -- observability under faults (PR 7 acceptance) -------------------------------------


def test_chaos_campaign_is_fully_observable(tmp_path):
    """The telemetry spine under fire: a wire-worker cluster with injected
    faults and a mid-campaign worker kill yields (a) per-instance /metrics
    with per-route and per-job-kind histograms, (b) one trace id linking
    submit -> fan-out -> shard assignment -> run -> commit across the wire,
    (c) ``an5d top`` rows showing the re-assignment, and (d) an export still
    byte-identical to a solo run."""
    import threading

    from repro.obs import TraceContext, new_span_id, new_trace_id, parse_prometheus
    from repro.obs import top as obs_top

    client = ClusterClient()
    trace = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
    with LocalCluster(
        store=tmp_path / "observed.sqlite",
        instances=2,
        standbys=0,
        wire_workers=True,
        faults=FaultPlan(drop=0.1, duplicate=0.05, seed=7),
        workdir=tmp_path,
    ) as cluster:
        victim = cluster.workers[0]
        release = threading.Event()
        original_execute = victim.app.worker._execute

        def blocked_execute(record, spec, plan):
            # Park the victim's shard until the test lets go: its shard is
            # deterministically incomplete when the victim is killed, so the
            # coordinator *must* re-home it (first fan-out never counts).
            release.wait(timeout=120)
            return original_execute(record, spec, plan)

        victim.app.worker._execute = blocked_execute
        try:
            submitted = client.submit(cluster.url, PREDICT_SPEC, trace=trace)
            assert submitted["trace_id"] == trace.trace_id
            kill_instance(victim)  # crash-stop: heartbeats cease, shard orphans
            status = _wait_submission(client, cluster.url, submitted["id"])
        finally:
            release.set()
        assert status["state"] == "done"
        assert status["jobs"]["done"] == PREDICT_SPEC.size()

        # (a) per-instance /metrics: the coordinator counts the re-homing...
        _, body = client.request(f"{cluster.url}/metrics")
        coord = parse_prometheus(body.decode("utf-8"))
        assert sum(v for _, v in coord["cluster_reassign_total"]) >= 1
        assert sum(v for _, v in coord["cluster_fanout_total"]) >= 2
        routes = {labels["route"] for labels, _ in coord["requests_total"]}
        assert "cluster_submit" in routes
        assert any(
            labels["route"] == "cluster_submit"
            for labels, _ in coord["request_seconds_bucket"]
        )
        # ...and the surviving worker ran jobs of the campaign's kind.
        survivor = cluster.workers[1]
        _, body = client.request(f"{survivor.url}/metrics")
        worker_samples = parse_prometheus(body.decode("utf-8"))
        ok_jobs = sum(
            v
            for labels, v in worker_samples["jobs_completed_total"]
            if labels["kind"] == "predict" and labels["status"] == "ok"
        )
        assert ok_jobs == PREDICT_SPEC.size()  # the survivor ran every shard
        assert any(
            labels["kind"] == "predict"
            for labels, _ in worker_samples["job_execution_seconds_bucket"]
        )

        # (b) one trace id spans the whole distributed path.
        _, body = client.request(f"{cluster.url}/trace/{trace.trace_id}")
        tree = json.loads(body)
        assert tree["trace_id"] == trace.trace_id
        spans = tree["spans"]
        assert all(s["trace_id"] == trace.trace_id for s in spans)
        names = {s["name"] for s in spans}
        assert {
            "cluster.submit",
            "cluster.fan_out",
            "campaign.assigned",
            "campaign.run",
            "results.commit",
        } <= names
        by_id = {s["span_id"]: s for s in spans}
        submit_span = next(s for s in spans if s["name"] == "cluster.submit")
        assert submit_span["parent_span_id"] == trace.span_id
        for name, parent_name in (
            ("cluster.fan_out", "cluster.submit"),
            ("campaign.assigned", "cluster.fan_out"),
            ("campaign.run", "campaign.assigned"),
        ):
            child = next(s for s in spans if s["name"] == name)
            assert by_id[child["parent_span_id"]]["name"] == parent_name

        # (c) `an5d top` sees the cluster: live rows plus the counted re-home.
        rows = obs_top.collect(cluster.url)
        assert len(rows) == 3  # coordinator + 2 workers (one of them dead)
        assert sum(float(row.get("reassigned", 0)) for row in rows) >= 1
        assert any(not row["reachable"] for row in rows)  # the killed victim
        screen = obs_top.render(rows)
        assert "REASG" in screen and "cluster:" in screen

        # (d) the export is still byte-identical to a solo run.
        exported = client.export(cluster.url, submitted["id"])
    assert exported == _solo_export(tmp_path)


# -- the app's supervision and shutdown paths survive store failures ---------------


def _swallowed(app, site):
    counter = app.metrics.get("errors_swallowed_total")
    return 0.0 if counter is None else counter.value(site=site, error_class="OperationalError")


def _fails_once(real):
    """``real`` behind a first call that raises a locked-database error."""
    calls = []

    def call(*args):
        calls.append(args)
        if len(calls) == 1:
            raise sqlite3.OperationalError("database is locked")
        return real(*args)

    call.calls = calls
    return call


def _always_fails(*args, **kwargs):
    raise sqlite3.OperationalError("database is locked")


def _coordinator_app(store):
    from repro.cluster import ClusterConfig
    from repro.service import CampaignApp, WorkerSettings

    app = CampaignApp(
        store,
        WorkerSettings(),
        cluster=ClusterConfig("c0", role="coordinator", heartbeat_interval=0.02),
    )
    app.set_endpoint("127.0.0.1", 9)
    return app


def test_heartbeat_and_monitor_loops_outlive_a_failing_store(tmp_path, monkeypatch):
    from repro.service import Request

    with ResultStore(tmp_path / "loops.sqlite") as store:
        app = _coordinator_app(store)
        beat = _fails_once(app.registry.heartbeat)
        tick = _fails_once(app.coordinator.tick)
        monkeypatch.setattr(app.registry, "heartbeat", beat)
        monkeypatch.setattr(app.coordinator, "tick", tick)
        app.start()
        try:
            deadline = time.monotonic() + 10.0
            while (len(beat.calls) < 3 or len(tick.calls) < 3) and time.monotonic() < deadline:
                time.sleep(0.02)
            # Both loops kept beating after their first call raised.
            assert len(beat.calls) >= 3 and len(tick.calls) >= 3
            assert _swallowed(app, "app.heartbeat_loop") == 1
            assert _swallowed(app, "app.monitor_loop") == 1
            assert app.handle(Request("GET", "/healthz")).status == 200
        finally:
            app.close()


def test_a_failed_telemetry_snapshot_is_counted_and_serving_continues(tmp_path, monkeypatch):
    from repro.service import CampaignApp, Request, WorkerSettings

    app = CampaignApp(tmp_path / "telemetry.sqlite", WorkerSettings())
    try:
        monkeypatch.setattr(app.store, "record_telemetry", _always_fails)
        assert app.record_telemetry_snapshot() is None
        assert _swallowed(app, "app.telemetry_snapshot") == 1
        assert app.handle(Request("GET", "/healthz")).status == 200
        monkeypatch.undo()
        assert app.record_telemetry_snapshot() is not None
    finally:
        app.close()


def test_shutdown_deregisters_even_when_releasing_the_lease_fails(tmp_path, monkeypatch):
    with ResultStore(tmp_path / "release.sqlite") as store:
        app = _coordinator_app(store)
        app.start()
        assert [row["instance_id"] for row in store.instance_rows()] == ["c0"]
        monkeypatch.setattr(app.coordinator, "release_lease", _always_fails)
        app.close()
        assert _swallowed(app, "app.release_lease") == 1
        assert store.instance_rows() == []  # deregistration still ran


def test_shutdown_completes_when_deregistration_fails(tmp_path, monkeypatch):
    with ResultStore(tmp_path / "deregister.sqlite") as store:
        app = _coordinator_app(store)
        app.start()
        monkeypatch.setattr(app.registry, "deregister", _always_fails)
        app.close()
        assert _swallowed(app, "app.deregister") == 1
        assert app.worker._thread is None  # the worker drained and stopped after it
        # The lease was handed back before the failing step.
        assert store.acquire_lease("coordinator", "c1", ttl=10.0)
