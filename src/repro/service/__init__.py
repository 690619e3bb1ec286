"""HTTP campaign service: a long-running front-end over the campaign layer.

The ROADMAP's "serve heavy traffic" direction: submit
:class:`~repro.campaign.jobs.CampaignSpec` matrices over HTTP, poll their
progress, stream reports and deterministic JSONL exports — all backed by
the same content-addressed SQLite store the CLI uses, so the service, the
CLI and future distributed workers are interchangeable views of one result
set.

``wire``
    Strict JSON wire format (spec decoding, table rendering).
``hotcache``
    The interactive tier's hot model-batch cache behind the synchronous
    ``POST /predict`` and ``POST /tune`` fast path.
``worker``
    The asyncio in-process worker that drains submissions through the
    sharded scheduler — batched model jobs in-process, scalar-simulator
    jobs over the multiprocessing pool.
``routes``
    The transport-agnostic routing table (Request -> Response).
``app``
    :class:`CampaignApp` (handlers) and :class:`CampaignServer`
    (ThreadingHTTPServer wrapper with ephemeral-port support).  Pass a
    :class:`~repro.cluster.registry.ClusterConfig` to join a cluster of
    instances sharing one store (see :mod:`repro.cluster`).

Quick use::

    from repro.service import CampaignServer

    with CampaignServer(port=0, store="campaign.sqlite") as server:
        print(server.url)   # http://127.0.0.1:<ephemeral>
"""

from repro.service.app import CampaignApp, CampaignServer
from repro.service.hotcache import HotModelCache
from repro.service.routes import Request, Response
from repro.service.wire import WireError
from repro.service.worker import CampaignRecord, CampaignWorker, QueueFull, WorkerSettings

__all__ = [
    "CampaignApp",
    "CampaignRecord",
    "CampaignServer",
    "CampaignWorker",
    "HotModelCache",
    "QueueFull",
    "Request",
    "Response",
    "WireError",
    "WorkerSettings",
]
