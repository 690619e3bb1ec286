"""Deterministic fault injection for the cluster wire.

The chaos suite's one lever: :class:`FaultyClusterClient` wraps the stock
:class:`~repro.cluster.client.ClusterClient` and, per request, may

* **drop** it (raise :class:`~repro.cluster.client.ClusterError` without
  sending — the caller sees an unreachable peer), or
* **duplicate** it (send the identical request twice and return the second
  answer — exercises commit idempotency end-to-end).

Decisions come from a seeded RNG, so a chaos run is reproducible from its
:class:`FaultPlan`; injected counts are tallied for assertions ("the run
really did drop commits") and for ``BENCH_cluster.json``.

Process-death helpers (:func:`kill_instance`) complete the harness: a
killed :class:`~repro.service.app.CampaignServer` leaves exactly the
footprint of a SIGKILL — a stale registry row, an expired lease, an
abandoned queue — which is what coordinator failover must recover from.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cluster.client import ClusterClient, ClusterError


@dataclass(frozen=True)
class FaultPlan:
    """Per-request fault probabilities (each in [0, 1]) and the RNG seed."""

    drop: float = 0.0
    duplicate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"fault probability {name}={value} must lie in [0, 1]")


class FaultyClusterClient(ClusterClient):
    """A :class:`ClusterClient` that injects faults per the plan.

    Faults apply at the transport seam — :meth:`request` — so every verb
    (assignments, commits, heartbeats, status polls) is exposed to them,
    exactly like a flaky network would.  An injected fault surfaces to the
    *caller* (a drop is not quietly re-sent by the inner retry loop), which
    forces the journal/backoff/peer-rotation machinery above the client to
    actually recover from it.
    """

    def __init__(self, plan: FaultPlan, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.plan = plan
        self._fault_rng = random.Random(plan.seed)
        self._fault_lock = threading.Lock()
        self.injected: Counter = Counter()

    def _decide(self) -> Dict[str, bool]:
        """One seeded draw per request (locked: request threads interleave)."""
        with self._fault_lock:
            return {
                "drop": self._fault_rng.random() < self.plan.drop,
                "duplicate": self._fault_rng.random() < self.plan.duplicate,
            }

    def request(
        self,
        url: str,
        method: str = "GET",
        payload: Optional[object] = None,
        data: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        send = lambda: super(FaultyClusterClient, self).request(  # noqa: E731
            url, method=method, payload=payload, data=data, content_type=content_type
        )
        faults = self._decide()
        if faults["drop"]:
            with self._fault_lock:
                self.injected["drop"] += 1
            raise ClusterError(f"injected drop: {method} {url}")
        if faults["duplicate"]:
            with self._fault_lock:
                self.injected["duplicate"] += 1
            send()  # first copy lands; its answer is discarded
            return send()
        return send()

    def injected_counts(self) -> Dict[str, int]:
        with self._fault_lock:
            return dict(self.injected)


def kill_instance(server: object) -> None:
    """Crash-stop one :class:`~repro.service.app.CampaignServer`.

    Delegates to its ``kill()`` (socket closed, work abandoned, registry row
    and lease left to rot) — the in-process equivalent of ``kill -9``.
    """
    kill = getattr(server, "kill", None)
    if kill is None:
        raise TypeError(f"{type(server).__name__} has no kill(); cannot crash-stop it")
    kill()


@dataclass
class ChaosTally:
    """Recovery timings and fault counts one chaos run records."""

    injected: Dict[str, int] = field(default_factory=dict, init=False)
    kill_at: Optional[float] = field(default=None, init=False)
    lease_seized_at: Optional[float] = field(default=None, init=False)
    completed_at: Optional[float] = field(default=None, init=False)

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"injected": dict(self.injected)}
        if self.kill_at is not None and self.lease_seized_at is not None:
            row["lease_seizure_s"] = round(self.lease_seized_at - self.kill_at, 3)
        if self.kill_at is not None and self.completed_at is not None:
            row["recovery_to_done_s"] = round(self.completed_at - self.kill_at, 3)
        return row


__all__ = ["ChaosTally", "FaultPlan", "FaultyClusterClient", "kill_instance"]
