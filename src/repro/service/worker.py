"""Async in-process campaign worker.

One daemon thread runs an asyncio event loop that drains submitted
:class:`~repro.campaign.jobs.CampaignSpec` records through the existing
:class:`~repro.campaign.scheduler.CampaignScheduler`:

* batched model ``predict``/``tune`` work is NumPy-bound and fast (PR 3),
  so those campaigns effectively run "inline" on an executor thread;
* scalar-simulator job kinds fan out to the scheduler's multiprocessing
  pool exactly as they do under ``an5d campaign run``;
* a semaphore overlaps several light campaigns so one long sweep does not
  head-of-line-block a model-only campaign submitted after it.

Every result commits to the shared store the moment it finishes, which is
the whole resume story: killing the server process loses at most in-flight
jobs, and the next submission of the same spec is served from the store.

In cluster mode a submission carries an externally supplied
:class:`~repro.campaign.scheduler.ShardPlan` — the coordinator's shard
assignment for this instance — which overrides the worker's default
whole-campaign plan for that campaign.  Re-forwarding the same campaign
with a *different* plan (how the coordinator re-assigns the shards of a dead
instance) re-enqueues it under the new plan; the scheduler's store dedupe
makes the overlap free.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.jobs import CampaignSpec
from repro.campaign.scheduler import CampaignOutcome, CampaignScheduler, ShardPlan
from repro.campaign.store import ResultStore
from repro.obs import MetricsRegistry, emit_event, get_registry, record_suppressed, span
from repro.obs.trace import TraceContext

#: Campaign lifecycle states reported by the status endpoint.
STATES = ("queued", "running", "done", "failed")

#: Campaigns of more jobs than this are *heavy*: with
#: ``WorkerSettings.reserve_interactive`` set they cannot take every slot.
HEAVY_JOBS = 64


class QueueFull(RuntimeError):
    """Submission rejected by admission control (HTTP 429 at the boundary).

    ``retry_after`` is a drain estimate in whole seconds: current depth over
    the worker's campaign concurrency — honest enough for a client backoff
    hint, cheap enough to compute under the submission lock.
    """

    def __init__(self, depth: int, limit: int, retry_after: int) -> None:
        super().__init__(
            f"campaign queue is full ({depth} queued or running, limit {limit}); "
            f"retry in ~{retry_after}s"
        )
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


@dataclass
class CampaignRecord:
    """One submitted campaign and the outcome of its most recent run."""

    id: str
    spec: CampaignSpec
    submitted_seq: int = 0
    plan: Optional[ShardPlan] = None  # None = the worker's default slice
    # Run state, never set by the constructor.
    state: str = field(default="queued", init=False)
    runs: int = field(default=0, init=False)
    outcome: Optional[CampaignOutcome] = field(default=None, init=False)
    error: Optional[str] = field(default=None, init=False)
    # Trace context of the submitting request.  Carried explicitly because
    # run_in_executor does not propagate contextvars — the run span below
    # re-establishes it on the executor thread.
    trace: Optional[TraceContext] = field(default=None, init=False)
    # perf_counter at (re-)submit, for queue-wait
    enqueued_at: float = field(default=0.0, init=False)
    # Memoised job content addresses for (spec, plan) — both frozen while
    # the plan stands, so reports/exports stop re-expanding the campaign on
    # every request.  Reset whenever a re-submission swaps the plan.
    job_keys_cache: Optional[List[str]] = field(default=None, init=False, repr=False)
    # Re-submitting an in-flight campaign under a widened plan enqueues the
    # record again; this lock serialises the two scheduler runs so they never
    # execute the overlapping slice concurrently.
    run_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "runs": self.runs,
            "describe": self.spec.describe(),
        }
        if self.plan is not None:
            summary["shard_plan"] = self.plan.to_json()
        if self.outcome is not None:
            summary["outcome"] = self.outcome.as_row()
        if self.error is not None:
            summary["error"] = self.error
        return summary


@dataclass
class WorkerSettings:
    """Scheduler knobs applied to every campaign the worker runs."""

    workers: int = 1  # multiprocessing fan-out for scalar-simulator jobs
    concurrency: int = 2  # campaigns overlapped by the async loop
    timeout: Optional[float] = None
    retries: int = 1
    # Admission control.  ``max_queued`` bounds campaigns in the queued or
    # running states (None = unbounded, the historical behaviour); an
    # over-limit submission raises :class:`QueueFull`, which the service
    # surfaces as 429 + Retry-After.  ``reserve_interactive`` holds that many
    # concurrency slots back from *heavy* campaigns (> ``HEAVY_JOBS`` jobs),
    # so an exhaustive sweep can never occupy every slot and a small
    # interactive campaign always finds one free.
    max_queued: Optional[int] = None
    reserve_interactive: int = 0


class CampaignWorker:
    """Drains submitted campaigns through the scheduler on an asyncio loop."""

    def __init__(
        self,
        store: ResultStore,
        settings: Optional[WorkerSettings] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.settings = settings or WorkerSettings()
        self.metrics = metrics if metrics is not None else get_registry()
        self._records: Dict[str, CampaignRecord] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._queue: Optional[asyncio.Queue] = None
        self._ready = threading.Event()
        self._killed = False

    # -- lifecycle -------------------------------------------------------------
    #: Seconds :meth:`start` waits for the event loop thread to come up.
    STARTUP_TIMEOUT_S = 10.0

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run_loop, name="campaign-worker", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=self.STARTUP_TIMEOUT_S):
            raise RuntimeError("campaign worker event loop failed to start")

    #: Seconds :meth:`stop` waits for in-flight campaigns to drain.
    STOP_TIMEOUT_S = 10.0

    def stop(self) -> bool:
        """Finish in-flight campaigns, then stop the loop thread.

        Returns True when the drain completed; False means a campaign is
        still running past ``STOP_TIMEOUT_S`` (callers must then leave shared
        resources — the store — alive for it).
        """
        if self._loop is None or self._thread is None:
            return True
        try:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, None)
        except RuntimeError as error:
            # Loop already closed (e.g. after kill()) — fine, but accounted.
            record_suppressed("worker.stop", error, metrics=self.metrics)
        self._thread.join(self.STOP_TIMEOUT_S)
        if self._thread.is_alive():
            return False
        self._thread = None
        self._loop = None
        self._ready.clear()
        return True

    def kill(self) -> None:
        """Simulate a crash: stop picking up work, abandon the loop thread.

        Unlike :meth:`stop` this does not drain — queued campaigns are never
        started, which is what lets tests kill a cluster instance
        "mid-campaign" and watch the coordinator re-assign its shards.
        """
        self._killed = True
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._queue.put_nowait, None)
            except RuntimeError:  # the loop already closed (killed twice)
                pass

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._queue = asyncio.Queue()
        loop.call_soon(self._ready.set)
        try:
            loop.run_until_complete(self._drain())
        finally:
            loop.close()

    async def _drain(self) -> None:
        concurrency = max(1, self.settings.concurrency)
        reserve = max(0, min(self.settings.reserve_interactive, concurrency - 1))
        semaphore = asyncio.Semaphore(concurrency)
        # The interactive lane: heavy campaigns must additionally pass this
        # narrower semaphore, leaving ``reserve`` total-slots only light
        # campaigns can fill.  Acquisition order is fixed (heavy, then
        # total), so the two semaphores cannot deadlock.
        heavy_semaphore = (
            asyncio.Semaphore(concurrency - reserve) if reserve else None
        )
        tasks: set = set()
        while True:
            record = await self._queue.get()
            if record is None or self._killed:
                break
            task = asyncio.create_task(
                self._run_one(record, semaphore, heavy_semaphore)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks and not self._killed:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _run_one(
        self,
        record: CampaignRecord,
        semaphore: asyncio.Semaphore,
        heavy_semaphore: Optional[asyncio.Semaphore] = None,
    ) -> None:
        heavy = (
            heavy_semaphore is not None
            and record.spec.size() > HEAVY_JOBS
        )
        if heavy:
            async with heavy_semaphore:
                async with semaphore:
                    await self._run_admitted(record)
        else:
            async with semaphore:
                await self._run_admitted(record)
        self._update_depth_gauge()

    async def _run_admitted(self, record: CampaignRecord) -> None:
        with self._lock:
            if self._killed:
                return
            record.state = "running"
            spec, plan, seq = record.spec, record.plan, record.runs
            enqueued_at = record.enqueued_at
        if enqueued_at:
            self.metrics.histogram(
                "campaign_queue_wait_seconds",
                "Time campaigns wait between submit and execution start",
            ).observe(time.perf_counter() - enqueued_at)
        loop = asyncio.get_running_loop()
        try:
            # The scheduler blocks (NumPy, SQLite, mp pool), so it runs on
            # an executor thread; the loop stays free to start overlapping
            # campaigns and to answer nothing — HTTP threads never enter it.
            outcome = await loop.run_in_executor(None, self._execute, record, spec, plan)
        except Exception as error:  # noqa: BLE001 — surfaced via status
            self.metrics.counter(
                "campaign_failures_total",
                "Campaign runs that raised out of the scheduler",
                labels=("error_class",),
            ).inc(error_class=type(error).__name__)
            emit_event(
                "campaign_failed",
                campaign=record.id,
                error_class=type(error).__name__,
                detail=str(error)[:500],
            )
            with self._lock:
                if record.runs == seq:
                    record.state = "failed"
                    record.error = f"{type(error).__name__}: {error}"
            return
        with self._lock:
            # A re-submission may have superseded this run (record.runs
            # moved on) — its own task will write the terminal state.
            if record.runs == seq:
                record.outcome = outcome
                record.error = None
                record.state = "done" if outcome.ok else "failed"
        emit_event(
            "campaign_run_finished",
            campaign=record.id,
            ok=outcome.ok,
            executed=outcome.executed,
            cached=outcome.cached,
            failed=outcome.failed,
            duration_s=round(outcome.duration_s, 3),
        )

    def _scheduler(
        self,
        spec: CampaignSpec,
        plan: Optional[ShardPlan] = None,
        campaign_id: Optional[str] = None,
    ) -> CampaignScheduler:
        """One scheduler per use, always under one shard plan — execution,
        progress counts and export key sets must agree on which slice of the
        campaign this instance owns."""
        return CampaignScheduler(
            spec,
            self.store,
            workers=self.settings.workers,
            timeout=self.settings.timeout,
            retries=self.settings.retries,
            plan=plan if plan is not None else ShardPlan(),
            metrics=self.metrics,
            campaign_id=campaign_id,
        )

    def _execute(
        self, record: CampaignRecord, spec: CampaignSpec, plan: Optional[ShardPlan]
    ) -> CampaignOutcome:
        # Runs on an executor thread: the shared store hands this thread its
        # own SQLite connection (one writer per connection).  The record lock
        # serialises overlapping runs of one campaign (plan re-assignment).
        # The span re-establishes the submitting request's trace context on
        # this thread (run_in_executor drops contextvars), so wire commits
        # issued inside the scheduler inherit it.
        with record.run_lock:
            with span("campaign.run", parent=record.trace, campaign=record.id):
                return self._scheduler(spec, plan, campaign_id=record.id).run()

    # -- submission / inspection ----------------------------------------------
    def submit(
        self,
        spec: CampaignSpec,
        plan: Optional[ShardPlan] = None,
        trace: Optional[TraceContext] = None,
    ) -> CampaignRecord:
        """Enqueue a campaign; idempotent while an equal (spec, plan) is in flight.

        A finished (done/failed) campaign re-enqueues: the scheduler dedupes
        against the store, so a warm re-submission costs one plan pass and
        reports ``cache_hit_rate == 1.0``.  Re-submitting an in-flight
        campaign under a *different* shard plan re-enqueues it too — that is
        how the coordinator hands this instance the shards of a dead peer.

        With :attr:`WorkerSettings.max_queued` set, a submission that would
        push the queued-or-running count past the limit raises
        :class:`QueueFull` — but only *after* the dedupe check, so re-posting
        an in-flight campaign never 429s.
        """
        if self._loop is None:
            raise RuntimeError("campaign worker is not running")
        cid = spec.short_id()
        with self._lock:
            record = self._records.get(cid)
            if (
                record is not None
                and record.state in ("queued", "running")
                and record.plan == plan
            ):
                return record
            limit = self.settings.max_queued
            if limit is not None:
                depth = sum(
                    1
                    for r in self._records.values()
                    if r.state in ("queued", "running")
                )
                if depth >= limit:
                    self.metrics.counter(
                        "campaign_rejections_total",
                        "Campaign submissions rejected by admission control",
                    ).inc()
                    retry_after = max(
                        1, round(depth / max(1, self.settings.concurrency))
                    )
                    raise QueueFull(depth=depth, limit=limit, retry_after=retry_after)
            if record is None:
                record = CampaignRecord(
                    id=cid, spec=spec, plan=plan, submitted_seq=next(self._seq)
                )
                self._records[cid] = record
            else:
                record.plan = plan
                record.job_keys_cache = None  # plan changed: keys may differ
                record.state = "queued"
            if trace is not None:
                record.trace = trace
            record.enqueued_at = time.perf_counter()
            record.runs += 1
            run = record.runs
        self._update_depth_gauge()
        emit_event(
            "campaign_submitted",
            campaign=cid,
            run=run,
            sharded=plan is not None,
            traced=trace is not None,
        )
        self._loop.call_soon_threadsafe(self._queue.put_nowait, record)
        return record

    def _update_depth_gauge(self) -> None:
        with self._lock:
            depth = sum(
                1 for r in self._records.values() if r.state in ("queued", "running")
            )
        self.metrics.gauge(
            "campaign_queue_depth", "Campaigns queued or running right now"
        ).set(depth)

    def get(self, cid: str) -> Optional[CampaignRecord]:
        with self._lock:
            return self._records.get(cid)

    def records(self) -> List[CampaignRecord]:
        """All known campaigns in submission order."""
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.submitted_seq)

    def status(self, cid: str) -> Optional[Dict[str, object]]:
        """Lifecycle state plus live per-job counts read from the store."""
        record = self.get(cid)
        if record is None:
            return None
        with self._lock:
            payload = record.summary()
            spec, plan = record.spec, record.plan
        payload["jobs"] = self._scheduler(spec, plan).progress_counts()
        payload["spec"] = spec.to_json()
        return payload

    def job_keys(self, cid: str) -> Optional[List[str]]:
        """This instance's slice of the campaign's job content addresses
        (scopes exports and reports)."""
        record = self.get(cid)
        if record is None:
            return None
        with self._lock:
            if record.job_keys_cache is None:
                record.job_keys_cache = self._scheduler(
                    record.spec, record.plan
                ).job_keys()
            return list(record.job_keys_cache)
