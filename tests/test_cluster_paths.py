"""Cluster paths ordinary runs do not take.

A coordinator that loses its lease, a fan-out with more live workers than
shards, a submission settled between a tick's listing and its lock, the
bounded cache of settled statuses, a journal with blank lines, a wire
member whose heartbeat is refused or forgotten, and the chaos tally row.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.campaign import ResultStore
from repro.campaign.jobs import CampaignSpec
from repro.campaign.scheduler import CampaignScheduler
from repro.cluster import ClusterCoordinator, InstanceRegistry
from repro.cluster import coordinator as coordinator_module
from repro.cluster.client import ClusterHTTPError
from repro.cluster.faults import ChaosTally
from repro.cluster.remote import RemoteRegistry, RemoteStore
from repro.obs import EVENTS
from test_cluster import PREDICT_SPEC, StubClient
from test_wire_rejections import RECORD


@pytest.fixture()
def coordinated(tmp_path):
    now = [0.0]
    store = ResultStore(tmp_path / "paths.sqlite")
    registry = InstanceRegistry(store, liveness_timeout=5.0, clock=lambda: now[0])
    client = StubClient()
    coordinator = ClusterCoordinator(store, registry, client=client, instance_id="c0")
    yield store, registry, client, coordinator, now
    store.close()


def _settle(store, coordinator, spec) -> str:
    sid = coordinator.submit(spec)["id"]
    CampaignScheduler(spec, store).run()
    assert sid in coordinator.tick()["settled"]
    return sid


def test_a_coordinator_whose_lease_was_seized_reports_it_lost(coordinated):
    store, registry, client, primary, now = coordinated
    standby = ClusterCoordinator(store, registry, client=client, instance_id="c1", lease_ttl=5.0)
    assert primary.holds_lease()
    now[0] += primary.lease_ttl + 1.0
    assert standby.holds_lease()
    with EVENTS.subscribe(events="lease_lost") as lost:
        assert not primary.holds_lease()
        assert lost.get(timeout=5.0)["instance"] == "c0"


def test_a_worker_with_no_shard_gets_no_forward(coordinated):
    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    sid = coordinator.submit(PREDICT_SPEC)["id"]  # one live worker: one shard
    registry.register("w2", "h", 2, "worker")
    client.assignments.clear()
    for _ in range(coordinator_module.STALL_TICKS + 1):  # no progress: re-forward
        coordinator.tick()
    assert {url for url, _, _ in client.assignments} == {"http://h:1"}
    assert {row["instance_id"] for row in store.assignment_rows(sid)} == {"w1"}


def test_a_tick_skips_a_submission_settled_under_its_lock(coordinated, monkeypatch):
    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    sid = coordinator.submit(PREDICT_SPEC)["id"]
    real_lock = coordinator._submission_lock

    @contextlib.contextmanager
    def settled_meanwhile(key):
        store.update_submission(key, "done")  # another coordinator got there first
        with real_lock(key):
            yield

    monkeypatch.setattr(coordinator, "_submission_lock", settled_meanwhile)
    client.assignments.clear()
    report = coordinator.tick()
    assert report["settled"] == [] and report["redispatched"] == []
    assert client.assignments == [] and store.get_submission(sid)["state"] == "done"


def test_an_unsettled_submission_is_read_fresh_every_time(coordinated):
    store, registry, client, coordinator, now = coordinated
    registry.register("w1", "h", 1, "worker")
    sid = coordinator.submit(PREDICT_SPEC)["id"]
    (status,) = coordinator.status()["submissions"]
    assert status["id"] == sid and status["state"] == "dispatched"
    assert sid not in coordinator._settled_cache


def test_settled_statuses_are_cached_within_a_bound(coordinated, monkeypatch):
    store, registry, client, coordinator, now = coordinated
    monkeypatch.setattr(coordinator_module, "SETTLED_CACHE_LIMIT", 1)
    registry.register("w1", "h", 1, "worker")
    first = _settle(store, coordinator, PREDICT_SPEC)
    second_spec = CampaignSpec.from_json({**PREDICT_SPEC.to_json(), "time_steps": 7})
    second = _settle(store, coordinator, second_spec)
    submissions = {row["id"]: row for row in coordinator.status()["submissions"]}
    assert {first, second} <= set(submissions)
    assert all(submissions[sid]["state"] == "done" for sid in (first, second))
    assert len(coordinator._settled_cache) == 1


def test_a_journal_with_blank_lines_replays_its_records(tmp_path):
    journal = tmp_path / "w1.journal.jsonl"
    journal.write_text("\n" + json.dumps(RECORD) + "\n\n")
    remote = RemoteStore("http://127.0.0.1:9", journal=journal, flush_interval=60.0)
    try:
        assert remote.pending_count() == 1
    finally:
        remote.close()


class _Peer:
    """A coordinator that refuses or forgets heartbeats on demand."""

    def __init__(self, heartbeat_answer):
        self.heartbeat_answer = heartbeat_answer
        self.registrations = []

    def register(self, url, **registration):
        self.registrations.append(registration)
        return {"ok": True}

    def heartbeat(self, url, instance_id):
        if isinstance(self.heartbeat_answer, Exception):
            raise self.heartbeat_answer
        return self.heartbeat_answer


def _wire_registry(tmp_path, peer) -> RemoteRegistry:
    remote = RemoteStore(
        "http://coordinator:1", journal=tmp_path / "w.journal.jsonl", client=peer,
        flush_interval=60.0,
    )
    return RemoteRegistry(remote)


def test_a_forgotten_wire_member_registers_again_on_its_next_heartbeat(tmp_path):
    peer = _Peer({"ok": False})
    registry = _wire_registry(tmp_path, peer)
    try:
        registry.register("w1", "h", 1)
        assert registry.heartbeat("w1")
        assert peer.registrations == [peer.registrations[0]] * 2
    finally:
        registry.remote.close()


def test_a_refused_heartbeat_is_raised_not_retried(tmp_path):
    registry = _wire_registry(tmp_path, _Peer(ClusterHTTPError(400, {"error": "bad envelope"})))
    try:
        with pytest.raises(ClusterHTTPError):
            registry.heartbeat("w1")
    finally:
        registry.remote.close()


def test_the_chaos_tally_reports_only_the_timings_it_saw():
    tally = ChaosTally()
    tally.injected["drop"] = 3
    assert tally.as_row() == {"injected": {"drop": 3}}
    tally.kill_at, tally.lease_seized_at, tally.completed_at = 10.0, 12.25, 15.5
    assert tally.as_row() == {
        "injected": {"drop": 3}, "lease_seizure_s": 2.25, "recovery_to_done_s": 5.5,
    }
