"""Stdlib HTTP client for instance-to-instance cluster traffic.

Everything the coordinator sends a worker — and everything a wire-native
worker or the CLI sends a coordinator — goes through :class:`ClusterClient`:
urllib with a bounded retry loop driven by one shared **error taxonomy**:

*retryable*
    The request may succeed if repeated: the peer was unreachable
    (connection refused/reset, DNS, timeout) or answered with a transient
    HTTP status (5xx, 408 request timeout, 425 too early, 429 too many
    requests).  These back off (capped exponential + jitter) and retry.
*terminal*
    Repeating the identical request cannot help: the peer answered with a
    definitive rejection (400 bad spec, 404 no such route, 409 wrong role).
    These surface immediately as :class:`ClusterHTTPError`.

The same taxonomy (via :func:`is_retryable`) drives the wire-native worker's
journal flush loop and the coordinator's fan-out, so every layer agrees on
what is worth retrying.  Retrying is safe everywhere it is used because
every mutating cluster verb is idempotent by construction — result commits
and shard assignments are keyed by content address.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Sequence, Tuple

from repro.campaign.jobs import CampaignSpec
from repro.campaign.scheduler import ShardPlan
from repro.obs.trace import TraceContext, context_to_wire

#: HTTP statuses worth retrying: the server-side fault classes (5xx) plus
#: the three 4xx statuses that describe transient conditions, not requests.
RETRYABLE_STATUSES = frozenset({408, 425, 429, 500, 502, 503, 504})

#: Default backoff shape for retry loops (seconds).
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


class ClusterError(Exception):
    """A peer could not be reached (after retries). Always retryable."""


class ClusterHTTPError(ClusterError):
    """A peer answered with an HTTP error; carries its wire payload.

    ``retry_after`` is the server's ``Retry-After`` hint in seconds (when it
    sent one — admission-control 429s do), which the retry loop prefers
    over its own computed backoff: the server knows its queue depth, the
    client is guessing.
    """

    def __init__(
        self,
        status: int,
        payload: Dict[str, object],
        retry_after: Optional[float] = None,
    ) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = status
        self.payload = payload
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        """Whether repeating the identical request could succeed."""
        return self.status in RETRYABLE_STATUSES


def is_retryable(error: BaseException) -> bool:
    """The shared retry decision: transient fault vs. definitive rejection."""
    if isinstance(error, ClusterHTTPError):
        return error.retryable
    if isinstance(error, ClusterError):
        return True  # unreachable peer: connection-level, always transient
    return False


def backoff_delay(attempt: int, rng: Optional[random.Random] = None) -> float:
    """Capped exponential backoff with full jitter for retry ``attempt``.

    Attempt 0 waits up to ``BACKOFF_BASE_S``, each further attempt doubles
    the ceiling up to ``BACKOFF_CAP_S``; the actual delay is uniform in
    (0, ceiling] so N workers retrying a recovered coordinator do not
    stampede in lockstep.  Pass a seeded ``rng`` for deterministic tests.
    """
    ceiling = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** max(0, int(attempt))))
    fraction = (rng or random).random()
    return ceiling * max(fraction, 0.1)


def _parse_retry_after(headers) -> Optional[float]:
    """The numeric ``Retry-After`` of an error response, if one was sent.

    Only the delta-seconds form is honoured (what this repo's services
    send); the HTTP-date form and garbage values are ignored rather than
    guessed at — the computed backoff takes over.
    """
    if headers is None:
        return None
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        seconds = float(str(value).strip())
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


class ClusterClient:
    """Small JSON-over-HTTP client retrying the retryable error class."""

    def __init__(self, timeout: float = 10.0, retries: int = 2) -> None:
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))

    # -- plumbing --------------------------------------------------------------
    #: Ceiling on a server-sent Retry-After (seconds) — a confused peer must
    #: not park a worker for an hour.
    MAX_RETRY_AFTER_S = 30.0

    def _sleep(self, attempt: int, retry_after: Optional[float] = None) -> None:
        if retry_after is not None and retry_after > 0:
            time.sleep(min(float(retry_after), self.MAX_RETRY_AFTER_S))
            return
        time.sleep(backoff_delay(attempt))

    def request(
        self,
        url: str,
        method: str = "GET",
        payload: Optional[object] = None,
        data: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        """One request, retrying the retryable error class; (status, body).

        ``payload`` is JSON-encoded; ``data`` sends a raw body (the JSONL
        result-commit path).  Retrying mutating requests is safe because
        every cluster verb is idempotent (content-addressed keys).
        """
        if data is None and payload is not None:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
        headers = {"Content-Type": content_type} if content_type else {}
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                url, method=method, data=data, headers=headers
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return response.status, response.read()
            except urllib.error.HTTPError as error:
                try:
                    body = json.loads(error.read().decode("utf-8"))
                except (ValueError, OSError):  # non-JSON/UTF-8 body, or reset mid-read
                    body = {"error": str(error)}
                http_error = ClusterHTTPError(
                    error.code, body, retry_after=_parse_retry_after(error.headers)
                )
                if not http_error.retryable:
                    # A terminal rejection is the peer's *answer*, not a
                    # fault — surface it without retrying.
                    raise http_error from None
                last_error = http_error
            except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as error:
                last_error = error
            if attempt < self.retries:
                retry_after = (
                    last_error.retry_after
                    if isinstance(last_error, ClusterHTTPError)
                    else None
                )
                self._sleep(attempt, retry_after=retry_after)
        if isinstance(last_error, ClusterHTTPError):
            raise last_error from None
        raise ClusterError(f"unreachable peer {url}: {last_error}") from None

    def get_json(self, url: str) -> Dict[str, object]:
        _, body = self.request(url)
        return json.loads(body)

    def post_json(self, url: str, payload: object) -> Dict[str, object]:
        _, body = self.request(url, method="POST", payload=payload)
        return json.loads(body)

    # -- cluster verbs ---------------------------------------------------------
    def assign(
        self,
        base_url: str,
        spec: CampaignSpec,
        plan: ShardPlan,
        trace: Optional[TraceContext] = None,
    ) -> Dict[str, object]:
        """Forward one shard assignment to a worker instance.

        ``trace`` rides the envelope (ids only, never timestamps) so the
        worker's spans join the coordinator's fan-out trace.
        """
        envelope = {"spec": spec.to_json(), **plan.to_json()}
        if trace is not None:
            envelope["trace"] = context_to_wire(trace)
        return self.post_json(base_url + "/campaigns/assigned", envelope)

    def submit(
        self,
        base_url: str,
        spec: CampaignSpec,
        trace: Optional[TraceContext] = None,
    ) -> Dict[str, object]:
        """Submit a whole campaign to a coordinator."""
        envelope = dict(spec.to_json())
        if trace is not None:
            envelope["trace"] = context_to_wire(trace)
        return self.post_json(base_url + "/cluster/campaigns", envelope)

    def cluster_status(self, base_url: str) -> Dict[str, object]:
        return self.get_json(base_url + "/cluster/status")

    def submission_status(self, base_url: str, sid: str) -> Dict[str, object]:
        return self.get_json(f"{base_url}/cluster/campaigns/{sid}")

    def export(self, base_url: str, sid: str) -> bytes:
        _, body = self.request(f"{base_url}/cluster/campaigns/{sid}/export")
        return body

    # -- wire-native result path ----------------------------------------------
    def commit_results(
        self, base_url: str, records: Sequence[Dict[str, object]]
    ) -> Dict[str, object]:
        """Commit a batch of result records (JSONL body); idempotent."""
        body = "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in records
        ).encode("utf-8")
        _, answer = self.request(
            base_url + "/results/commit",
            method="POST",
            data=body,
            content_type="application/jsonl",
        )
        return json.loads(answer)

    def result_statuses(
        self, base_url: str, keys: Sequence[str]
    ) -> Dict[str, str]:
        """Status by key for the subset of ``keys`` the peer's store holds."""
        answer = self.post_json(base_url + "/results/statuses", {"keys": list(keys)})
        return dict(answer.get("statuses", {}))  # type: ignore[arg-type]

    # -- wire-native membership ------------------------------------------------
    def register(
        self,
        base_url: str,
        instance_id: str,
        host: str,
        port: int,
        role: str = "worker",
        capabilities: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Register a (wire) member with a store-native peer.

        The envelope carries **no timestamps**: the receiver stamps the
        heartbeat with its own clock, so a worker with a wrong wall clock
        is indistinguishable from one with a right one.
        """
        return self.post_json(
            base_url + "/cluster/register",
            {
                "instance_id": instance_id,
                "host": host,
                "port": int(port),
                "role": role,
                "capabilities": capabilities or {},
            },
        )

    def heartbeat(self, base_url: str, instance_id: str) -> Dict[str, object]:
        return self.post_json(
            base_url + "/cluster/heartbeat", {"instance_id": instance_id}
        )

    def deregister(self, base_url: str, instance_id: str) -> Dict[str, object]:
        return self.post_json(
            base_url + "/cluster/deregister", {"instance_id": instance_id}
        )


def post_any(
    client: ClusterClient,
    urls: Sequence[str],
    send,  # Callable[[str], Dict[str, object]]
) -> Tuple[str, Dict[str, object]]:
    """Try ``send(url)`` against each candidate URL until one answers.

    This is how a wire-native worker re-resolves the coordinator: commit to
    the last known URL first, and on a retryable failure rotate through the
    other live store-native peers learned from heartbeat responses.  Returns
    ``(url, response)`` for the first success; raises the last error when
    every candidate fails (terminal errors propagate immediately — a 400
    would be a 400 everywhere).
    """
    last_error: Optional[Exception] = None
    for url in urls:
        try:
            return url, send(url)
        except ClusterError as error:
            if not is_retryable(error):
                raise
            last_error = error
    if last_error is None:
        raise ClusterError("no candidate peers to send to")
    raise last_error


__all__ = [
    "BACKOFF_BASE_S",
    "BACKOFF_CAP_S",
    "ClusterClient",
    "ClusterError",
    "ClusterHTTPError",
    "RETRYABLE_STATUSES",
    "backoff_delay",
    "is_retryable",
    "post_any",
]
