"""Boot a whole cluster — N worker instances plus a coordinator — in-process.

This is the one-command local topology behind ``an5d cluster up``: every
instance is a full :class:`~repro.service.app.CampaignServer` on its own
ephemeral port, all sharing one :class:`~repro.campaign.store.ResultStore`
object, with the coordinator running the supervision loop.  Tests and
``benchmarks/bench_cluster.py`` drive the same class.

In-process instances share the GIL, so CPU-bound scaling is better observed
with separate ``an5d serve --cluster`` processes (the CI cluster-smoke job's
topology); LocalCluster trades that for a single-command bring-up with real
HTTP between the members.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.campaign.store import ResultStore
from repro.cluster.registry import ClusterConfig

#: Test/local-friendly heartbeat cadence (instances share a process anyway).
LOCAL_HEARTBEAT_INTERVAL = 0.2
LOCAL_LIVENESS_TIMEOUT = 2.0


class LocalCluster:
    """N cooperating ``an5d serve`` instances on one store, one process.

    Two topologies:

    * **store-native** (default): every instance opens the shared
      :class:`~repro.campaign.store.ResultStore` directly — the PR-5 shape.
    * **wire workers** (``wire_workers=True``): only the coordinator (and
      its standbys) touch the store; workers run on
      :class:`~repro.cluster.remote.RemoteStore` and commit results over
      ``POST /results/commit`` with a local journal underneath — the
      topology the chaos suite and the CI chaos-smoke job exercise.

    ``standbys`` adds lease-contending coordinator instances: they accept
    submissions and serve status/exports, and the first one whose monitor
    tick finds the primary's lease expired seizes it and resumes fan-out.
    ``faults`` (a :class:`~repro.cluster.faults.FaultPlan`) injects drops
    and duplicates into every wire worker's client.
    """

    def __init__(
        self,
        store: Union[str, Path, ResultStore] = "campaign.sqlite",
        instances: int = 2,
        host: str = "127.0.0.1",
        settings: Optional[object] = None,  # service.WorkerSettings
        standbys: int = 0,
        wire_workers: bool = False,
        faults: Optional[object] = None,  # cluster.faults.FaultPlan
        workdir: Optional[Union[str, Path]] = None,
    ) -> None:
        if instances < 1:
            raise ValueError("a cluster needs at least one worker instance")
        if standbys < 0:
            raise ValueError("standbys must be non-negative")
        if wire_workers and workdir is None:
            raise ValueError("wire workers need a workdir for their journals")
        self._owns_store = not isinstance(store, ResultStore)
        self.store = ResultStore(store) if self._owns_store else store
        self.instances = int(instances)
        self.host = host
        self.settings = settings
        self.standby_count = int(standbys)
        self.wire_workers = bool(wire_workers)
        self.faults = faults
        self.workdir = Path(workdir) if workdir is not None else None
        self.coordinator = None  # type: Optional[object]  # CampaignServer
        self.standbys: List[object] = []  # CampaignServer
        self.workers: List[object] = []  # CampaignServer

    # -- lifecycle -------------------------------------------------------------
    def _worker_client(self):
        """The HTTP client wire workers use — fault-injecting when planned."""
        if self.faults is None:
            return None
        from repro.cluster.faults import FaultyClusterClient

        return FaultyClusterClient(self.faults)

    def start(self) -> "LocalCluster":
        # Imported lazily: repro.service.app imports repro.cluster, so a
        # top-level import here would be circular.
        from repro.cluster.remote import RemoteStore
        from repro.service.app import CampaignServer

        def server(instance_id: str, role: str, store: object = None) -> CampaignServer:
            return CampaignServer(
                host=self.host,
                port=0,
                store=self.store if store is None else store,
                settings=self.settings,
                cluster=ClusterConfig(
                    instance_id=instance_id,
                    role=role,
                    heartbeat_interval=LOCAL_HEARTBEAT_INTERVAL,
                    liveness_timeout=LOCAL_LIVENESS_TIMEOUT,
                ),
            )

        try:
            self.coordinator = server("w-coordinator", "coordinator")
            self.standbys = [
                server(f"w-standby{index}", "coordinator")
                for index in range(1, self.standby_count + 1)
            ]
            if self.wire_workers:
                # The coordinator comes up first: wire workers dial it to
                # register.  A submission accepted before workers appear
                # stays queued until a tick finds live workers.
                self.coordinator.start()
                for standby in self.standbys:
                    standby.start()
                for index in range(1, self.instances + 1):
                    remote = RemoteStore(
                        self.coordinator.url,
                        journal=self.workdir / f"w{index}.journal.jsonl",
                        client=self._worker_client(),
                    )
                    worker = server(f"w{index}", "worker", store=remote)
                    self.workers.append(worker)
                    worker.start()
            else:
                self.workers = [
                    server(f"w{index}", "worker")
                    for index in range(1, self.instances + 1)
                ]
                # Workers first: by the time the coordinator's monitor thread
                # runs its first tick, every worker has registered.
                for worker in self.workers:
                    worker.start()
                for standby in self.standbys:
                    standby.start()
                self.coordinator.start()
        except Exception:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        for server_ in [*self.workers, *self.standbys, self.coordinator]:
            if server_ is not None:
                server_.stop()
        self.workers = []
        self.standbys = []
        self.coordinator = None
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- addresses -------------------------------------------------------------
    @property
    def url(self) -> str:
        """The coordinator's base URL (submissions and aggregated views)."""
        if self.coordinator is None:
            raise RuntimeError("cluster is not running")
        return self.coordinator.url
