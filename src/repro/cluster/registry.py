"""Instance registry: who is part of the cluster, and who is still alive.

The registry is a thin policy layer over the store's ``instances`` table
(:meth:`repro.campaign.store.ResultStore.register_instance` and friends).
Instances register themselves with their HTTP endpoint and capabilities,
then refresh a heartbeat timestamp on a fixed interval; *liveness is derived
from heartbeat age*, never stored — an instance whose latest heartbeat is
older than the liveness timeout is lapsed, and the coordinator re-assigns
its shards.  Because the table lives in the shared store, every cluster
member (and any offline CLI invocation pointed at the store) sees the same
membership without talking to anyone.

Clock policy: **sender timestamps are never trusted.**  A heartbeat is an
event, not a claim — :meth:`InstanceRegistry.record_heartbeat` stamps the
arrival with the *receiver's* clock (the registry's injected ``clock=``),
and the wire decoders reject any envelope that tries to carry its own
timestamp.  A wire-native worker whose wall clock is minutes wrong is
therefore indistinguishable from one whose clock is right; liveness skew
reduces to the receiver's own clock monotonicity.  Members that write the
store *directly* (store-native instances heartbeating through their own
registry object) still stamp with their local clock, so multi-box
deployments of store-native members need NTP within the liveness timeout —
wire members do not.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import repro
from repro.campaign.store import ResultStore

#: Roles an instance may register under.
ROLES = ("worker", "coordinator", "both")

#: Default seconds between heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default heartbeat age beyond which an instance counts as dead.
DEFAULT_LIVENESS_TIMEOUT = 10.0


def generate_instance_id(prefix: str = "i") -> str:
    """A short, unique instance id (host + pid keep it human-debuggable)."""
    suffix = uuid.uuid4().hex[:6]
    return f"{prefix}-{socket.gethostname()}-{os.getpid()}-{suffix}"


@dataclass(frozen=True)
class ClusterConfig:
    """How one service instance participates in a cluster."""

    instance_id: str
    role: str = "worker"
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    liveness_timeout: float = DEFAULT_LIVENESS_TIMEOUT

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown cluster role {self.role!r}; expected one of {ROLES}")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.liveness_timeout <= self.heartbeat_interval:
            raise ValueError("liveness_timeout must exceed the heartbeat interval")

    @property
    def coordinates(self) -> bool:
        """Whether this instance accepts cluster submissions and fans out."""
        return self.role in ("coordinator", "both")


@dataclass(frozen=True)
class Instance:
    """One registered service instance (a row of the ``instances`` table)."""

    instance_id: str
    host: str
    port: int
    role: str
    capabilities: Dict[str, object]
    started_at: float
    heartbeat_at: float

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def executes(self) -> bool:
        return self.role in ("worker", "both")

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        """Age of the last heartbeat against the *reader's* clock.

        ``heartbeat_at`` was stamped by whichever registry received the
        beat, never by the sender — see the module docstring's clock policy.
        """
        return (time.time() if now is None else now) - self.heartbeat_at

    def live(self, timeout: float, now: Optional[float] = None) -> bool:
        """Liveness is purely heartbeat age — no stored alive/dead flag."""
        return self.heartbeat_age(now) <= timeout

    def summary(self, timeout: float, now: Optional[float] = None) -> Dict[str, object]:
        return {
            "instance_id": self.instance_id,
            "url": self.url,
            "role": self.role,
            "capabilities": self.capabilities,
            "heartbeat_age_s": round(self.heartbeat_age(now), 3),
            "live": self.live(timeout, now),
        }


class InstanceRegistry:
    """Store-backed membership view with heartbeat-derived liveness."""

    def __init__(
        self,
        store: ResultStore,
        liveness_timeout: float = DEFAULT_LIVENESS_TIMEOUT,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = store
        self.liveness_timeout = float(liveness_timeout)
        self._clock = clock

    # -- membership ------------------------------------------------------------
    def register(
        self,
        instance_id: str,
        host: str,
        port: int,
        role: str = "worker",
        capabilities: Optional[Dict[str, object]] = None,
    ) -> Instance:
        if role not in ROLES:
            raise ValueError(f"unknown cluster role {role!r}; expected one of {ROLES}")
        merged = {"version": repro.__version__}
        merged.update(capabilities or {})
        now = self._clock()
        self.store.register_instance(instance_id, host, port, role, merged, now=now)
        return Instance(instance_id, host, int(port), role, merged, now, now)

    def clock(self) -> float:
        """The receiver-side clock every registry write is stamped with."""
        return self._clock()

    def record_heartbeat(self, instance_id: str) -> bool:
        """Record a heartbeat *arrival*, stamped with this registry's clock.

        This is the receiving end of ``POST /cluster/heartbeat`` — whatever
        clock the sender believes in, the stored timestamp is ours, which is
        what makes wire-member liveness immune to sender clock skew.
        Returns False for an unknown instance (the sender must re-register).
        """
        return self.store.heartbeat_instance(instance_id, now=self._clock())

    # ``heartbeat`` is the self-stamping spelling store-native members use on
    # their own registry object; it is the same receiver-clock write, because
    # for a store-native member the sender *is* the receiver.
    heartbeat = record_heartbeat

    def deregister(self, instance_id: str) -> bool:
        return self.store.remove_instance(instance_id)

    # -- views -----------------------------------------------------------------
    def instances(self) -> List[Instance]:
        return [
            Instance(
                instance_id=row["instance_id"],
                host=row["host"],
                port=row["port"],
                role=row["role"],
                capabilities=row["capabilities"],
                started_at=row["started_at"],
                heartbeat_at=row["heartbeat_at"],
            )
            for row in self.store.instance_rows()
        ]


    def live(self) -> List[Instance]:
        now = self._clock()
        return [i for i in self.instances() if i.live(self.liveness_timeout, now)]

    def live_workers(self) -> List[Instance]:
        """Live instances that accept shard assignments, registration order."""
        return [i for i in self.live() if i.executes]

    def summaries(self) -> List[Dict[str, object]]:
        now = self._clock()
        return [i.summary(self.liveness_timeout, now) for i in self.instances()]
