"""Sharded campaign scheduler.

Expands a :class:`~repro.campaign.jobs.CampaignSpec` into jobs, drops the
ones the store already answers (content-addressed dedupe), and runs the rest
— inline, or fanned out over a ``multiprocessing`` pool.  Every result is
committed to the store the moment it arrives, so killing a campaign loses at
most the in-flight jobs; the next run picks up exactly where it stopped.

Sharding splits one campaign across independent scheduler instances (e.g.
separate machines sharing nothing but the final store merge): each job has a
stable shard assignment derived from its content address, and a scheduler
given a :class:`ShardPlan` only ever touches the shard indices that plan
owns.  A plan may own *several* indices — that is how the cluster layer
re-assigns the shards of a dead instance to a surviving one — and the
classic ``shards``/``shard_index`` pair remains as a convenience spelling
for the single-index plan.

Model-only ``predict`` jobs never reach the pool: jobs sharing one
(pattern, grid, GPU) are grouped and served by the batched model engine in a
single in-process array pass — the same engine :func:`run_job` answers a
lone predict job with, so a job stores one payload whichever route ran it.
A job with invalid parameters fails on its own record; the rest of its
group is still evaluated.  Forking a worker just to evaluate a closed-form
model is slower than the evaluation itself; the pool is reserved for
simulator- and executor-backed job kinds.
"""

from __future__ import annotations

import itertools
import multiprocessing
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.campaign.jobs import (
    CampaignSpec,
    JobSpec,
    predict_batch_key,
    run_job,
    run_predict_jobs,
)
from repro.campaign.store import ResultStore
from repro.obs import MetricsRegistry, PROFILER, emit_event, get_registry


@dataclass(frozen=True)
class ShardPlan:
    """Which slice of a campaign one scheduler instance owns.

    ``shards`` is the total partition count; ``indices`` are the shard
    indices this instance is responsible for.  A job belongs to shard
    ``job.shard(shards)``, so the union of all plans with distinct indices
    over the same ``shards`` covers the campaign exactly once.  The default
    plan (``1`` shard, index ``0``) owns everything.
    """

    shards: int = 1
    indices: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        try:
            shards = int(self.shards)
            indices = tuple(sorted({int(index) for index in self.indices}))
        except (TypeError, ValueError):
            raise ValueError("shard plan fields must be integers") from None
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if not indices:
            raise ValueError("shard plan must own at least one shard index")
        for index in indices:
            if not 0 <= index < shards:
                raise ValueError(f"shard_index {index} must lie in [0, {shards})")
        object.__setattr__(self, "shards", shards)
        object.__setattr__(self, "indices", indices)

    @property
    def is_full(self) -> bool:
        """True when this plan owns the entire campaign."""
        return self.shards == 1

    def owns(self, job: JobSpec) -> bool:
        return self.is_full or job.shard(self.shards) in self.indices

    def describe(self) -> str:
        return "+".join(str(index) for index in self.indices) + f"/{self.shards}"

    # -- wire format ---------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {"shards": self.shards, "shard_indices": list(self.indices)}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ShardPlan":
        if not isinstance(data, Mapping):
            raise ValueError("shard plan must be a JSON object")
        unknown = sorted(set(data) - {"shards", "shard_indices"})
        if unknown:
            raise ValueError(f"unknown shard plan field(s): {', '.join(unknown)}")
        indices = data.get("shard_indices", (0,))
        if isinstance(indices, (str, Mapping)):
            raise ValueError("shard plan field 'shard_indices' must be a JSON array")
        return cls(shards=data.get("shards", 1), indices=tuple(indices))  # type: ignore[arg-type]


class JobTimeout(Exception):
    """A job exceeded the scheduler's per-job time budget."""


def _alarm_supported() -> bool:
    return hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()


def _execute_with_timeout(spec: JobSpec, timeout: Optional[float]) -> Dict[str, object]:
    """Run one job, enforcing the timeout with SIGALRM where available.

    Worker processes run jobs on their main thread, so the alarm-based
    timeout works both inline and inside the pool; on platforms without
    SIGALRM the job simply runs to completion.
    """
    if not timeout or not _alarm_supported():
        return run_job(spec)

    def _on_alarm(signum: int, frame: object) -> None:
        raise JobTimeout(f"job exceeded {timeout:.1f}s: {spec.describe()}")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return run_job(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _attempt(run: Callable[..., object], *args: object) -> object:
    """``run(*args)``, or the exception it raised."""
    try:
        return run(*args)
    except Exception as error:  # noqa: BLE001 — every failure becomes a record
        return error


def _as_record(result: object) -> Tuple[str, Dict[str, object]]:
    """``(status, payload)`` to store for a job's payload or its error."""
    if isinstance(result, Exception):
        return "failed", {
            "error": f"{type(result).__name__}: {result}",
            "traceback": "".join(traceback.format_exception(result, limit=8)),
        }
    return "ok", result  # type: ignore[return-value]


#: (job, status, payload-or-error, elapsed seconds)
_JobResult = Tuple[JobSpec, str, Dict[str, object], float]


def _pool_worker(args: Tuple[JobSpec, Optional[float]]) -> _JobResult:
    spec, timeout = args
    start = time.perf_counter()
    status, payload = _as_record(_attempt(_execute_with_timeout, spec, timeout))
    return spec, status, payload, time.perf_counter() - start


def _predict_results(jobs: List[JobSpec]) -> Iterator[_JobResult]:
    """Serve predict jobs in-process, one batched model pass per group.

    Jobs are grouped by (pattern, grid, GPU).  A job whose own parameters
    are invalid gets its own failed record while the rest of its group is
    still evaluated; an error that concerns the whole group (an unknown
    stencil) becomes every job's failed record.
    """
    groups: Dict[Tuple[object, ...], List[JobSpec]] = {}
    for job in jobs:
        groups.setdefault(predict_batch_key(job), []).append(job)
    for group in groups.values():
        start = time.perf_counter()
        results = _attempt(run_predict_jobs, group)
        if isinstance(results, Exception):
            results = [results] * len(group)
        elapsed = (time.perf_counter() - start) / len(group)
        for job, result in zip(group, results):
            yield (job, *_as_record(result), elapsed)


@dataclass
class CampaignOutcome:
    """Summary of one scheduler run."""

    total: int
    cached: int
    executed: int
    failed: int
    retried: int
    duration_s: float
    shards: int = 1
    shard_index: int = 0
    shard_indices: Tuple[int, ...] = (0,)
    configs_evaluated: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.total if self.total else 1.0

    @property
    def configs_per_s(self) -> float:
        """Model/simulator configurations evaluated per second of campaign."""
        if self.duration_s <= 0:
            return 0.0
        return self.configs_evaluated / self.duration_s

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_row(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "cached": self.cached,
            "executed": self.executed,
            "failed": self.failed,
            "retried": self.retried,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "duration_s": round(self.duration_s, 3),
            "configs_per_s": round(self.configs_per_s, 1),
            "shard": "+".join(str(i) for i in self.shard_indices) + f"/{self.shards}",
        }


ProgressCallback = Callable[[JobSpec, str], None]


class CampaignScheduler:
    """Plan and run one campaign (or one slice of it) against a store.

    The slice is a :class:`ShardPlan` — supplied directly (the cluster
    coordinator's route, where a plan may own several shard indices after a
    re-assignment) or spelled as the classic ``shards``/``shard_index`` pair.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        shards: int = 1,
        shard_index: int = 0,
        plan: Optional[ShardPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        campaign_id: Optional[str] = None,
    ) -> None:
        if plan is None:
            plan = ShardPlan(shards, (shard_index,))
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.spec = spec
        self.store = store
        self.workers = max(1, workers)
        self.timeout = timeout
        self.retries = retries
        self.shard_plan = plan
        self.metrics = metrics if metrics is not None else get_registry()
        #: Campaign content address carried on every per-job lifecycle event,
        #: so ``GET /campaigns/{id}/stream`` can filter one campaign's jobs.
        self.campaign_id = campaign_id

    @property
    def shards(self) -> int:
        return self.shard_plan.shards

    @property
    def shard_index(self) -> int:
        """Lowest owned shard index (see ``shard_plan`` for the full set)."""
        return self.shard_plan.indices[0]

    # -- planning --------------------------------------------------------------
    def jobs(self) -> List[JobSpec]:
        """This plan's slice of the campaign, in deterministic order."""
        expanded = self.spec.expand()
        if self.shard_plan.is_full:
            return expanded
        return [job for job in expanded if self.shard_plan.owns(job)]

    def plan(self) -> Tuple[List[JobSpec], List[JobSpec]]:
        """Split this shard's jobs into (already answered, still pending).

        One bulk ``statuses`` lookup, not a ``has_ok`` per job: against a
        wire-native store every lookup is an HTTP round-trip, so planning a
        thousand-job campaign must not cost a thousand requests.
        """
        jobs = self.jobs()
        statuses = self.store.statuses([job.key() for job in jobs])
        cached: List[JobSpec] = []
        pending: List[JobSpec] = []
        for job in jobs:
            (cached if statuses.get(job.key()) == "ok" else pending).append(job)
        return cached, pending

    def job_keys(self) -> List[str]:
        """Content addresses of this shard's jobs (current code version)."""
        return [job.key() for job in self.jobs()]

    def progress_counts(self) -> Dict[str, int]:
        """Live per-campaign progress, read straight from the store.

        Because every result commits the moment it finishes, counting this
        campaign's job keys in the store is an exact progress measure even
        while another process (or the service worker) is running the jobs.
        """
        keys = self.job_keys()
        statuses = self.store.statuses(keys)
        done = sum(1 for status in statuses.values() if status == "ok")
        failed = len(statuses) - done
        return {
            "total": len(keys),
            "done": done,
            "failed": failed,
            "pending": len(keys) - len(statuses),
        }

    # -- execution -------------------------------------------------------------
    def _observe_job(self, job: JobSpec, status: str, elapsed_s: float) -> None:
        """Per-job accounting: one observe per *job*, never per config, so
        the instrumentation cost is invisible next to the job itself.

        Besides the metrics, every completion emits a ``job_finished``
        lifecycle event — the push-stream surface behind
        ``GET /events/stream`` and ``GET /campaigns/{id}/stream``.
        """
        self.metrics.counter(
            "jobs_completed_total", "Jobs finished, by kind and status",
            labels=("kind", "status"),
        ).inc(kind=job.kind, status=status)
        self.metrics.histogram(
            "job_execution_seconds", "Job execution time by kind", labels=("kind",)
        ).observe(elapsed_s, kind=job.kind)
        fields: Dict[str, object] = {
            "key": job.key(),
            "job": job.describe(),
            "kind": job.kind,
            "status": status,
            "elapsed_s": round(elapsed_s, 4),
            "shard": self.shard_plan.describe(),
        }
        if self.campaign_id is not None:
            fields["campaign"] = self.campaign_id
        emit_event("job_finished", **fields)

    @staticmethod
    def _payload_configs(kind: str, payload: Dict[str, object]) -> int:
        """Model/simulator configurations one ok payload accounts for."""
        if kind == "predict":
            return 1
        if kind == "exhaustive":
            return int(payload.get("evaluated", 0) or 0)
        if kind == "tune":
            # Stage 1 model-evaluates only the pruned survivors; the rest of
            # the space was dismissed by a boolean mask, not evaluated.
            return int(payload.get("pruned_to", 0) or 0)
        return 0

    def _run_batch(
        self, jobs: List[JobSpec], progress: Optional[ProgressCallback]
    ) -> Tuple[List[JobSpec], int]:
        """Run one batch, committing incrementally.

        Returns the failed jobs and how many model/simulator configurations
        the successful ones evaluated.
        """
        others = [job for job in jobs if job.kind != "predict"]
        if self.workers > 1 and len(others) > 1:
            pooled = self._map_parallel(others)
        else:
            pooled = map(_pool_worker, ((job, self.timeout) for job in others))
        results = itertools.chain(
            _predict_results([job for job in jobs if job.kind == "predict"]), pooled
        )
        failed: List[JobSpec] = []
        evaluated = 0
        for job, status, payload, elapsed in results:
            self.store.put(job, payload, status=status, elapsed_s=elapsed)
            self._observe_job(job, status, elapsed)
            if status != "ok":
                if "JobTimeout" in str(payload.get("error", "")):
                    self.metrics.counter(
                        "job_timeouts_total", "Jobs killed by the per-job time budget"
                    ).inc()
                failed.append(job)
            else:
                evaluated += self._payload_configs(job.kind, payload)
            if progress is not None:
                progress(job, status)
        return failed, evaluated

    def _map_parallel(self, jobs: List[JobSpec]):
        tasks = [(job, self.timeout) for job in jobs]
        try:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if "fork" in methods else None)
            pool = context.Pool(processes=min(self.workers, len(jobs)))
        except OSError:
            # No usable pool (sandboxed fork) — run everything inline.
            yield from map(_pool_worker, tasks)
            return
        delivered: set = set()
        try:
            with pool:
                # imap_unordered streams results back as they finish, so the
                # parent commits each one immediately (resumability).
                for result in pool.imap_unordered(_pool_worker, tasks, chunksize=1):
                    delivered.add(result[0])
                    yield result
        except Exception:
            # The pool died mid-sweep (worker OOM-killed, unpicklable result):
            # finish only the jobs whose results never arrived, inline.
            yield from map(
                _pool_worker, (task for task in tasks if task[0] not in delivered)
            )

    def run(self, progress: Optional[ProgressCallback] = None) -> CampaignOutcome:
        """Run everything the store cannot already answer."""
        start = time.perf_counter()
        cached, pending = self.plan()
        total = len(cached) + len(pending)
        executed = len(pending)
        retried = 0

        started: Dict[str, object] = {
            "total": total,
            "cached": len(cached),
            "pending": len(pending),
            "shard": self.shard_plan.describe(),
        }
        if self.campaign_id is not None:
            started["campaign"] = self.campaign_id
        emit_event("campaign_run_started", **started)

        # The scheduler loop is a profiled hot path: a no-op unless the
        # process-wide profiler has been armed (an5d serve --profile).
        with PROFILER.window("scheduler.run"):
            failed, configs_evaluated = self._run_batch(pending, progress)
            for _ in range(self.retries):
                if not failed:
                    break
                retried += len(failed)
                self.metrics.counter(
                    "jobs_retried_total", "Failed jobs re-run by the retry loop"
                ).inc(len(failed))
                failed, retry_configs = self._run_batch(failed, progress)
                configs_evaluated += retry_configs

        return CampaignOutcome(
            total=total,
            cached=len(cached),
            executed=executed,
            failed=len(failed),
            retried=retried,
            duration_s=time.perf_counter() - start,
            shards=self.shards,
            shard_index=self.shard_index,
            shard_indices=self.shard_plan.indices,
            configs_evaluated=configs_evaluated,
            failures=[job.describe() for job in failed],
        )
