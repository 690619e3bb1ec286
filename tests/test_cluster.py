"""Cluster layer tests: shard partitioning, registry, coordinator, end-to-end.

The acceptance contract of the cluster subsystem: a campaign sharded over
N cooperating instances on one store produces exports *byte-identical* to a
single-instance ``an5d campaign run``; killing a worker re-assigns its
shards and the campaign still completes; ``GET /cluster/status`` merges
per-instance progress.  The partition itself is property-tested over seeded
randomized campaigns: shard slices are pairwise disjoint and their union is
the full job set.
"""

import json
import random
import time
import urllib.request

import pytest

import repro
from repro.campaign.jobs import CampaignSpec
from repro.campaign.scheduler import CampaignScheduler, ShardPlan
from repro.campaign.store import ResultStore
from repro.cli import main
from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterCoordinator,
    ClusterError,
    ClusterHTTPError,
    InstanceRegistry,
    LocalCluster,
)
from repro.service import CampaignApp, Request, WorkerSettings
from repro.service.wire import WireError, decode_assignment

#: A model-only campaign: fast (batched engine), still multi-benchmark.
PREDICT_SPEC = CampaignSpec(
    benchmarks=("j2d5pt", "j2d9pt", "gradient2d", "star3d1r", "star3d2r", "j3d27pt"),
    gpus=("V100",),
    dtypes=("float",),
    kinds=("predict",),
    time_steps=100,
    interior_2d=(512, 512),
    interior_3d=(48, 48, 48),
)


# -- ShardPlan ------------------------------------------------------------------------


def test_shard_plan_validates_and_normalises():
    plan = ShardPlan(4, (2, 0, 2))
    assert plan.indices == (0, 2)  # deduped, sorted
    assert plan.describe() == "0+2/4"
    assert ShardPlan().is_full
    assert ShardPlan.from_json(plan.to_json()) == plan
    with pytest.raises(ValueError, match="at least 1"):
        ShardPlan(0, (0,))
    with pytest.raises(ValueError, match="at least one shard index"):
        ShardPlan(2, ())
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        ShardPlan(2, (2,))
    with pytest.raises(ValueError, match="integers"):
        ShardPlan(2, ("x",))
    with pytest.raises(ValueError, match="unknown shard plan field"):
        ShardPlan.from_json({"shards": 2, "shard": 0})
    with pytest.raises(ValueError, match="JSON array"):
        ShardPlan.from_json({"shards": 2, "shard_indices": "01"})


def _random_spec(rng: random.Random) -> CampaignSpec:
    from repro.stencils.library import BENCHMARKS

    names = rng.sample(sorted(BENCHMARKS), k=rng.randint(2, 8))
    return CampaignSpec(
        benchmarks=tuple(names),
        gpus=tuple(rng.sample(("V100", "P100"), k=rng.randint(1, 2))),
        dtypes=tuple(rng.sample(("float", "double"), k=rng.randint(1, 2))),
        kinds=tuple(rng.sample(("predict", "tune", "baseline", "verify"), k=rng.randint(1, 3))),
        time_steps=rng.choice((100, 1000)),
    )


@pytest.mark.parametrize("seed", range(8))
def test_shard_slices_partition_every_campaign(seed):
    """Union of all shard slices == the full job set; slices are disjoint."""
    rng = random.Random(seed)
    spec = _random_spec(rng)
    expanded = [job.key() for job in spec.expand()]
    store = ResultStore(":memory:")
    for shards in (2, 3, 5):
        slices = [
            CampaignScheduler(spec, store, plan=ShardPlan(shards, (index,))).job_keys()
            for index in range(shards)
        ]
        merged = [key for piece in slices for key in piece]
        assert sorted(merged) == sorted(expanded)  # union covers everything
        assert len(merged) == len(set(merged))  # pairwise disjoint
    # A multi-index plan is exactly the union of its single-index slices.
    plan = ShardPlan(3, (0, 2))
    combined = CampaignScheduler(spec, store, plan=plan).job_keys()
    singles = [
        key
        for index in (0, 2)
        for key in CampaignScheduler(spec, store, plan=ShardPlan(3, (index,))).job_keys()
    ]
    assert sorted(combined) == sorted(singles)
    store.close()


# -- registry -------------------------------------------------------------------------


def test_registry_liveness_is_heartbeat_age(tmp_path):
    now = [1000.0]
    store = ResultStore(tmp_path / "registry.sqlite")
    registry = InstanceRegistry(store, liveness_timeout=5.0, clock=lambda: now[0])
    registry.register("w1", "127.0.0.1", 8001, role="worker", capabilities={"workers": 2})
    registry.register("c0", "127.0.0.1", 8000, role="coordinator")
    assert [i.instance_id for i in registry.live_workers()] == ["w1"]  # role filter
    now[0] += 4.0
    registry.heartbeat("w1")
    now[0] += 4.0  # w1 beat 4s ago (live); c0 is 8s stale (lapsed)
    assert [i.instance_id for i in registry.live()] == ["w1"]
    summaries = {s["instance_id"]: s for s in registry.summaries()}
    assert summaries["w1"]["live"] and not summaries["c0"]["live"]
    assert summaries["w1"]["capabilities"]["workers"] == 2
    assert summaries["w1"]["capabilities"]["version"] == repro.__version__
    assert registry.deregister("c0") and registry.get("c0") is None
    assert not registry.heartbeat("c0")  # unknown after deregistration
    store.close()


def test_store_submission_queue_round_trip(tmp_path):
    store = ResultStore(tmp_path / "queue.sqlite")
    store.enqueue_submission("c123", PREDICT_SPEC.canonical(), shards=3, now=10.0)
    row = store.get_submission("c123")
    assert row["state"] == "queued" and row["shards"] == 3
    assert CampaignSpec.from_json(json.loads(row["spec"])) == PREDICT_SPEC
    store.set_assignment("c123", 0, "w1")
    store.set_assignment("c123", 1, "w2")
    store.set_assignment("c123", 0, "w2")  # re-assignment overwrites
    assert [(r["shard_index"], r["instance_id"]) for r in store.assignment_rows("c123")] == [
        (0, "w2"),
        (1, "w2"),
    ]
    assert store.update_submission("c123", "done")
    # Re-opening keeps the original created_at (queue order is stable).
    store.enqueue_submission("c123", PREDICT_SPEC.canonical(), shards=2, now=99.0)
    row = store.get_submission("c123")
    assert row["state"] == "queued" and row["shards"] == 2 and row["created_at"] == 10.0
    assert store.clear_assignments("c123") == 2
    store.close()


# -- coordinator (stub client: no sockets) --------------------------------------------


class StubClient:
    """Records forwards; refuses instances listed in ``unreachable``."""

    def __init__(self):
        self.assignments = []  # (url, spec, plan)
        self.unreachable = set()
        self.rejecting = {}  # url -> HTTP status

    def assign(self, url, spec, plan, trace=None):
        if url in self.unreachable:
            raise ClusterError(f"unreachable peer {url}")
        if url in self.rejecting:
            raise ClusterHTTPError(self.rejecting[url], {"error": "no thanks"})
        self.assignments.append((url, spec, plan))
        return {"state": "queued"}


@pytest.fixture()
def coordinated(tmp_path):
    now = [0.0]
    store = ResultStore(tmp_path / "coord.sqlite")
    registry = InstanceRegistry(store, liveness_timeout=5.0, clock=lambda: now[0])
    client = StubClient()
    coordinator = ClusterCoordinator(store, registry, client=client)
    yield store, registry, client, coordinator, now
    store.close()


def test_coordinator_partitions_over_live_workers(coordinated):
    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    registry.register("w2", "h", 2, "worker")
    submitted = coordinator.submit(PREDICT_SPEC)
    assert submitted["state"] == "dispatched" and submitted["shards"] == 2
    owners = {r["shard_index"]: r["instance_id"] for r in store.assignment_rows(submitted["id"])}
    assert set(owners) == {0, 1} and set(owners.values()) == {"w1", "w2"}
    # Each worker was forwarded exactly its own single-shard plan.
    plans = {url: plan for url, _, plan in client.assignments}
    assert plans["http://h:1"].shards == 2 and plans["http://h:2"].shards == 2
    forwarded = {index for plan in plans.values() for index in plan.indices}
    assert forwarded == {0, 1}


def test_coordinator_rehomes_shards_of_unreachable_instance(coordinated):
    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    registry.register("w2", "h", 2, "worker")
    client.unreachable.add("http://h:2")  # w2 is registered but refuses
    submitted = coordinator.submit(PREDICT_SPEC)
    assert submitted["state"] == "dispatched"
    owners = {r["instance_id"] for r in store.assignment_rows(submitted["id"])}
    assert owners == {"w1"}  # both shards re-homed to the reachable worker
    # w1 ends up owning a widened multi-index plan over the same partition.
    final_plan = client.assignments[-1][2]
    assert final_plan.shards == 2 and final_plan.indices == (0, 1)


def test_coordinator_tick_reassigns_lapsed_and_settles(coordinated):
    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    registry.register("w2", "h", 2, "worker")
    submitted = coordinator.submit(PREDICT_SPEC)
    sid = submitted["id"]
    # w2's heartbeat lapses mid-campaign; w1 stays fresh.
    now[0] += 4.0
    registry.heartbeat("w1")
    now[0] += 2.0  # w2 is now 6s stale (> 5s timeout), w1 only 2s
    report = coordinator.tick()
    assert sid in report["redispatched"]
    owners = {r["instance_id"] for r in store.assignment_rows(sid)}
    assert owners == {"w1"}
    # Completing every job settles the submission on the next tick.
    scheduler = CampaignScheduler(PREDICT_SPEC, store)
    scheduler.run()
    report = coordinator.tick()
    assert sid in report["settled"]
    assert store.get_submission(sid)["state"] == "done"
    status = coordinator.submission_status(sid)
    assert status["jobs"]["pending"] == 0 and status["jobs"]["failed"] == 0


def test_coordinator_reforwards_stalled_submission(coordinated):
    """A live owner that lost the run (crash, restart under the same id)
    never lapses; no progress for STALL_TICKS ticks re-forwards its shards."""
    from repro.cluster.coordinator import STALL_TICKS

    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    submitted = coordinator.submit(PREDICT_SPEC)
    sid = submitted["id"]
    assert submitted["state"] == "dispatched"
    forwards_after_submit = len(client.assignments)
    for _ in range(STALL_TICKS):
        registry.heartbeat("w1")  # the owner stays live the whole time
        report = coordinator.tick()
        assert sid not in report["redispatched"]  # not stalled yet
    report = coordinator.tick()
    assert sid in report["redispatched"]  # no progress for STALL_TICKS ticks
    assert len(client.assignments) > forwards_after_submit
    # Progress resets the stall counter: settle one job, then tick again.
    scheduler = CampaignScheduler(PREDICT_SPEC, store)
    store.put(scheduler.jobs()[0], {"x": 1})
    report = coordinator.tick()
    assert sid not in report["redispatched"]


def test_coordinator_fails_submission_on_deterministic_rejection(coordinated):
    """A structured 4xx from a worker is not unreachability: retrying the
    same doomed assignment forever would hide the error from the submitter."""
    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    client.rejecting["http://h:1"] = 400
    submitted = coordinator.submit(PREDICT_SPEC)
    assert submitted["state"] == "failed"
    # The next tick leaves it failed instead of re-dispatching it.
    report = coordinator.tick()
    assert submitted["id"] not in report["redispatched"]
    # A transient 5xx, by contrast, is retried like unreachability.
    client.rejecting["http://h:1"] = 503
    store.update_submission(submitted["id"], "queued")
    report = coordinator.tick()
    assert store.get_submission(submitted["id"])["state"] == "queued"
    # Instance-specific rejections (404 old binary, 409 wrong role) exclude
    # that instance only: a healthy peer still receives the whole campaign.
    client.rejecting["http://h:1"] = 409
    registry.register("w2", "h", 2, "worker")
    report = coordinator.tick()
    assert store.get_submission(submitted["id"])["state"] == "dispatched"
    owners = {r["instance_id"] for r in store.assignment_rows(submitted["id"])}
    assert owners == {"w2"}


def test_coordinator_with_no_workers_keeps_submission_queued(coordinated):
    store, registry, client, coordinator, now = coordinated
    submitted = coordinator.submit(PREDICT_SPEC)
    assert submitted["state"] == "queued" and submitted["shards"] == 1
    # Workers appear; the next tick re-partitions the never-dispatched
    # submission for the current membership and fans it out.
    registry.register("w1", "h", 1, "worker")
    registry.register("w2", "h", 2, "worker")
    report = coordinator.tick()
    assert submitted["id"] in report["redispatched"]
    row = store.get_submission(submitted["id"])
    assert row["state"] == "dispatched" and row["shards"] == 2
    owners = {r["instance_id"] for r in store.assignment_rows(submitted["id"])}
    assert owners == {"w1", "w2"}


# -- wire-level shard validation (HTTP 400, not 500) ----------------------------------


def test_decode_assignment_maps_shard_errors_to_400():
    spec_json = PREDICT_SPEC.to_json()
    good = json.dumps({"spec": spec_json, "shards": 3, "shard_indices": [1, 2]})
    spec, plan, trace = decode_assignment(good.encode())
    assert spec == PREDICT_SPEC and plan == ShardPlan(3, (1, 2))
    assert trace is None
    for envelope, fragment in (
        ({"spec": spec_json, "shards": 0}, "at least 1"),
        ({"spec": spec_json, "shards": 2, "shard_indices": [2]}, "lie in"),
        ({"spec": spec_json, "shards": 2, "shard_indices": []}, "at least one"),
        ({"spec": spec_json, "shard": 0}, "unknown assignment field"),
        ({"shards": 2}, "missing its campaign"),
        ({"spec": {"benchmark": ["x"]}, "shards": 2}, "invalid campaign spec"),
    ):
        with pytest.raises(WireError, match=fragment) as excinfo:
            decode_assignment(json.dumps(envelope).encode())
        assert excinfo.value.status == 400


def test_assigned_campaign_http_contract(tmp_path):
    app = CampaignApp(tmp_path / "app.sqlite", WorkerSettings())
    app.start()
    try:
        bad = Request(
            "POST",
            "/campaigns/assigned",
            body=json.dumps(
                {"spec": PREDICT_SPEC.to_json(), "shards": 2, "shard_indices": [5]}
            ).encode(),
        )
        response = app.handle(bad)
        assert response.status == 400
        assert "shard plan" in json.loads(response.body)["error"]
        good = Request(
            "POST",
            "/campaigns/assigned",
            body=json.dumps(
                {"spec": PREDICT_SPEC.to_json(), "shards": 2, "shard_indices": [0]}
            ).encode(),
        )
        response = app.handle(good)
        assert response.status == 202
        payload = json.loads(response.body)
        assert payload["shard_plan"] == {"shards": 2, "shard_indices": [0]}
        assert 0 < payload["jobs"] < PREDICT_SPEC.size()
        # Cluster endpoints on a non-member are a structured 409.
        response = app.handle(Request("GET", "/cluster/status"))
        assert response.status == 409
        assert "not a cluster member" in json.loads(response.body)["error"]
    finally:
        app.close()


# -- end-to-end: cooperating instances over real HTTP ---------------------------------


def _wait_submission(client, url, sid, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.submission_status(url, sid)
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"submission {sid} did not settle within {timeout}s")


def _single_instance_export(tmp_path, spec=PREDICT_SPEC):
    """The reference artifact: one `an5d campaign run` + export."""
    store_path = tmp_path / "solo.sqlite"
    with ResultStore(store_path) as store:
        outcome = CampaignScheduler(spec, store).run()
        assert outcome.ok
        export_path = store.export_jsonl(tmp_path / "solo.jsonl")
    return export_path.read_bytes()


def test_three_instance_cluster_export_is_byte_identical(tmp_path):
    client = ClusterClient()
    with LocalCluster(store=tmp_path / "cluster.sqlite", instances=3) as cluster:
        submitted = client.submit(cluster.url, PREDICT_SPEC)
        sid = submitted["id"]
        assert submitted["shards"] == 3
        status = _wait_submission(client, cluster.url, sid)
        assert status["state"] == "done"
        assert status["jobs"] == {
            "total": PREDICT_SPEC.size(),
            "done": PREDICT_SPEC.size(),
            "failed": 0,
            "pending": 0,
        }
        # /cluster/status merges per-instance progress over the whole matrix.
        merged = client.cluster_status(cluster.url)
        live = [i for i in merged["instances"] if i["live"]]
        assert len(live) == 4  # 3 workers + the coordinator
        per_instance = {
            iid: slice_["progress"]
            for submission in merged["submissions"]
            for iid, slice_ in submission["instances"].items()
        }
        assert sum(p["total"] for p in per_instance.values()) == PREDICT_SPEC.size()
        assert all(p["pending"] == 0 for p in per_instance.values())
        exported = client.export(cluster.url, sid)
    assert exported == _single_instance_export(tmp_path)


def test_cluster_survives_killed_worker(tmp_path):
    """A dead instance's shards re-home and the campaign still completes."""
    client = ClusterClient()
    with LocalCluster(store=tmp_path / "kill.sqlite", instances=2) as cluster:
        victim = cluster.workers[1]
        victim_id = victim.app.cluster.instance_id
        survivor_id = cluster.workers[0].app.cluster.instance_id
        # Kill between registration and dispatch: the registry still lists the
        # victim as live (fresh heartbeat), so the coordinator plans work onto
        # it, the forward fails, and the shards re-home deterministically.
        victim.kill()
        submitted = client.submit(cluster.url, PREDICT_SPEC)
        sid = submitted["id"]
        assert submitted["shards"] == 2  # partitioned for both instances
        status = _wait_submission(client, cluster.url, sid)
        assert status["state"] == "done"
        assert status["jobs"]["done"] == PREDICT_SPEC.size()
        assert set(status["instances"]) == {survivor_id}
        assert status["instances"][survivor_id]["shard_indices"] == [0, 1]
        exported = client.export(cluster.url, sid)
    assert exported == _single_instance_export(tmp_path)
    assert victim_id != survivor_id


def _wait_worker_run(client, worker_url, cid, runs, timeout=60.0):
    """Poll one worker until its latest (>= ``runs``-th) run has settled.

    The coordinator settles a warm re-submission from store state alone, so
    the worker's own record may still be re-running; its outcome is only
    meaningful once ``state == done`` *for the re-submitted run*.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = client.request(f"{worker_url}/campaigns/{cid}")
        payload = json.loads(body)
        if payload["state"] in ("done", "failed") and payload["runs"] >= runs:
            return payload
        time.sleep(0.05)
    raise AssertionError(f"worker {worker_url} run {runs} of {cid} did not settle")


def test_resubmission_is_served_warm_across_the_cluster(tmp_path):
    client = ClusterClient()
    with LocalCluster(store=tmp_path / "warm.sqlite", instances=2) as cluster:
        first = client.submit(cluster.url, PREDICT_SPEC)
        _wait_submission(client, cluster.url, first["id"])
        results_after_cold = cluster.store.count()
        second = client.submit(cluster.url, PREDICT_SPEC)
        assert second["id"] == first["id"]  # same content address
        status = _wait_submission(client, cluster.url, second["id"])
        assert status["state"] == "done"
        assert cluster.store.count() == results_after_cold  # nothing recomputed
        # Every worker's warm run was a 100% cache hit.
        for worker in cluster.workers:
            payload = _wait_worker_run(client, worker.url, first["id"], runs=2)
            assert payload["state"] == "done"
            assert payload["outcome"]["cache_hit_rate"] == 1.0


def test_worker_role_rejects_cluster_submission(tmp_path):
    with LocalCluster(store=tmp_path / "roles.sqlite", instances=1) as cluster:
        worker_url = cluster.workers[0].url
        request = urllib.request.Request(
            worker_url + "/cluster/campaigns",
            method="POST",
            data=json.dumps(PREDICT_SPEC.to_json()).encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 409
        assert "not a coordinator" in json.loads(excinfo.value.read())["error"]


# -- campaign prune (code-version maintenance) ----------------------------------------


def test_store_code_version_maintenance(tmp_path, monkeypatch):
    spec = PREDICT_SPEC
    store = ResultStore(tmp_path / "versions.sqlite")
    jobs = spec.expand()
    with monkeypatch.context() as old_release:
        old_release.setattr(repro, "__version__", "0.0.0-old")
        for job in jobs[:2]:
            store.put(job, {"x": 1})
    for job in jobs:
        store.put(job, {"x": 2})
    versions = store.code_versions()
    assert versions == {"0.0.0-old": 2, repro.__version__: len(jobs)}
    assert store.purge_code_version("0.0.0-old") == 2
    assert store.code_versions() == {repro.__version__: len(jobs)}
    store.close()


def test_cli_campaign_prune(tmp_path, capsys, monkeypatch):
    store_path = tmp_path / "prune.sqlite"
    jobs = PREDICT_SPEC.expand()
    with ResultStore(store_path) as store:
        with monkeypatch.context() as old_release:
            old_release.setattr(repro, "__version__", "0.0.0-old")
            for job in jobs[:3]:
                store.put(job, {"x": 1})
        for job in jobs:
            store.put(job, {"x": 2})
    # Listing only.
    assert main(["campaign", "prune", "--store", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "0.0.0-old" in out and "stale" in out and "current" in out
    # Dry run drops nothing.
    assert main(
        ["campaign", "prune", "--store", str(store_path), "--stale", "--dry-run"]
    ) == 0
    assert "would drop 3" in capsys.readouterr().out
    with ResultStore(store_path) as store:
        assert store.count() == len(jobs) + 3
    # Pruning the current version requires --force.
    assert main(
        ["campaign", "prune", "--store", str(store_path),
         "--code-version", repro.__version__]
    ) == 2
    assert "--force" in capsys.readouterr().err
    # Dropping the stale version keeps the current results intact.
    assert main(["campaign", "prune", "--store", str(store_path), "--stale"]) == 0
    assert "dropped 3" in capsys.readouterr().out
    with ResultStore(store_path) as store:
        assert store.code_versions() == {repro.__version__: len(jobs)}
    # Unknown store path is a usage error.
    assert main(["campaign", "prune", "--store", str(tmp_path / "nope.sqlite")]) == 2
    capsys.readouterr()
