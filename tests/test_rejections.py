"""Invalid arguments are refused with a message that names the fault.

One case per check that guards a constructor or an entry point against a
value it cannot serve: the exception type and its message are the behaviour
each check exists for.
"""

from __future__ import annotations

import pytest

from repro.campaign import ResultStore
from repro.campaign.jobs import JobSpec, run_job
from repro.campaign.scheduler import ShardPlan
from repro.cluster import ClusterConfig, ClusterError, InstanceRegistry, LocalCluster
from repro.cluster.client import ClusterClient, post_any
from repro.cluster.faults import kill_instance
from repro.cluster.remote import RemoteStore
from repro.ir.expr import GridRead
from repro.ir.stencil import StencilPattern
from repro.obs.cache import SingleFlightCache
from repro.obs.metrics import MetricsRegistry
from repro.service import CampaignApp
from repro.service.hotcache import HotModelCache
from repro.service.worker import CampaignWorker
from repro.stencils.generators import anisotropic_star_stencil, expr_for_terms, fdtd_stencil
from repro.stencils.library import get_benchmark

SMALL = (64, 64)


def _cluster(role="worker", heartbeat=1.0, liveness=5.0):
    return ClusterConfig(
        instance_id="w1", role=role, heartbeat_interval=heartbeat, liveness_timeout=liveness
    )


CASES = [
    (lambda: JobSpec.from_json(["predict"]), ValueError, "job spec must be a JSON object"),
    (lambda: ShardPlan.from_json([2]), ValueError, "shard plan must be a JSON object"),
    (
        lambda: run_job(JobSpec(
            "baseline", "j2d5pt", "V100", "float", SMALL, 4, params=(("framework", "halide"),)
        )),
        ValueError, "unknown baseline framework 'halide'",
    ),
    (lambda: StencilPattern("line4d", 4, GridRead("A", (0,) * 4)), ValueError,
     "unsupported stencil dimensionality 4"),
    (lambda: expr_for_terms([]), ValueError, "a stencil needs at least one term"),
    (lambda: anisotropic_star_stencil((2,)), ValueError, "synthetic stencils are 2D or 3D"),
    (lambda: anisotropic_star_stencil((1, 9)), ValueError, r"every radius must lie in \[1, 8\]"),
    (lambda: fdtd_stencil(4), ValueError, "synthetic stencils are 2D or 3D"),
    (lambda: fdtd_stencil(2, weights=(0.1,)), ValueError, "expected 2 Laplacian weights, got 1"),
    (
        lambda: fdtd_stencil(2, weights=(0.3, 0.3)),
        ValueError, "Laplacian weights must be positive and sum below 0.5",
    ),
    (lambda: get_benchmark("astar2d1x9r"), KeyError, "unknown benchmark 'astar2d1x9r'"),
    (lambda: SingleFlightCache("reports", capacity=0), ValueError, "cache capacity must be >= 1, got 0"),
    (
        lambda: MetricsRegistry().histogram("empty_seconds", buckets=()),
        ValueError, "a histogram needs at least one bucket edge",
    ),
    (lambda: _cluster(role="leader"), ValueError, "unknown cluster role 'leader'"),
    (lambda: _cluster(heartbeat=0.0), ValueError, "heartbeat_interval must be positive"),
    (lambda: _cluster(liveness=0.5), ValueError, "liveness_timeout must exceed the heartbeat interval"),
    (lambda: LocalCluster(store=":memory:", instances=0), ValueError,
     "a cluster needs at least one worker instance"),
    (lambda: LocalCluster(store=":memory:", standbys=-1), ValueError, "standbys must be non-negative"),
    (lambda: LocalCluster(store=":memory:", wire_workers=True), ValueError,
     "wire workers need a workdir for their journals"),
    (lambda: LocalCluster(store=":memory:").url, RuntimeError, "cluster is not running"),
    (lambda: kill_instance(object()), TypeError, "object has no kill\\(\\); cannot crash-stop it"),
    (lambda: post_any(ClusterClient(), [], lambda url: {}), ClusterError, "no candidate peers to send to"),
    (
        lambda: HotModelCache().predict(JobSpec("tune", "j2d5pt", "V100", "float", SMALL, 4)),
        ValueError, "expected a predict spec, got kind 'tune'",
    ),
    (
        lambda: HotModelCache().tune(JobSpec("predict", "j2d5pt", "V100", "float", SMALL, 4)),
        ValueError, "expected a tune spec, got kind 'predict'",
    ),
]


@pytest.mark.parametrize("call,error,message", CASES, ids=[str(i) for i in range(len(CASES))])
def test_an_invalid_argument_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_registry_refuses_an_unknown_role():
    with ResultStore(":memory:") as store:
        with pytest.raises(ValueError, match="unknown cluster role 'leader'"):
            InstanceRegistry(store).register("w1", "127.0.0.1", 8000, role="leader")


def test_a_store_refuses_records_missing_fields():
    with ResultStore(":memory:") as store:
        with pytest.raises(ValueError, match=r"result record is missing field\(s\): kind, pattern"):
            store.commit_records([{"key": "k", "gpu": "V100", "dtype": "float", "grid": "8x8",
                                   "time_steps": 1, "code_version": "0", "status": "ok",
                                   "payload": {}, "elapsed_s": 0.0}])


def test_a_worker_takes_no_campaign_before_it_starts():
    from repro.campaign.jobs import CampaignSpec

    with ResultStore(":memory:") as store:
        with pytest.raises(RuntimeError, match="campaign worker is not running"):
            CampaignWorker(store).submit(CampaignSpec(benchmarks=("j2d5pt",)))


def test_a_wire_native_app_must_be_a_worker_member(tmp_path):
    remote = RemoteStore("http://127.0.0.1:9", journal=tmp_path / "w.journal.jsonl")
    try:
        with pytest.raises(ValueError, match="a wire-native store needs a ClusterConfig"):
            CampaignApp(remote)
        with pytest.raises(ValueError, match="a wire-native member cannot coordinate"):
            CampaignApp(remote, cluster=_cluster(role="coordinator"))
    finally:
        remote.close()


def test_a_cluster_member_needs_its_endpoint_before_it_starts(tmp_path):
    app = CampaignApp(tmp_path / "member.sqlite", cluster=_cluster())
    try:
        with pytest.raises(RuntimeError, match="cluster mode needs set_endpoint\\(\\) before start\\(\\)"):
            app.start()
    finally:
        app.close()
