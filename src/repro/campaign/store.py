"""SQLite-backed, content-addressed result store.

Every campaign job commits its result under the job's deterministic key
(:meth:`repro.campaign.jobs.JobSpec.key`) the moment it finishes, so a
killed campaign loses at most the jobs that were mid-flight.  Exports are
produced in a fixed sort order with timestamps excluded, which makes the
final artifacts byte-identical whether a campaign ran straight through or
was interrupted and resumed.

Concurrency
-----------
File-backed stores are safe to share between threads and processes: the
database runs in WAL mode (readers never block the writer and vice versa)
with a generous busy timeout, and every thread gets its **own** SQLite
connection — one writer per connection, handed out lazily, never shared.
That is what lets the HTTP campaign service point request-handler threads,
the async worker and external CLI invocations at one store file.  Because
commits are single ``INSERT OR REPLACE`` statements keyed by content
address, concurrent writers can interleave in any order (including writing
the same key) without lost updates or torn rows.

``":memory:"`` stores keep a single shared connection (a private in-memory
database exists per connection, so per-thread connections would see nothing
of each other); a lock serialises its writers.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.campaign.jobs import JobSpec
from repro.obs import MetricsRegistry, get_registry
from repro.obs.metrics import SIZE_BUCKETS
from repro.reporting import ResultTable

#: Bump when the stored payload layout changes incompatibly.  Version 2 adds
#: the cluster tables (instances / submissions / assignments); version 3 adds
#: the ``leases`` table (coordinator failover); version 4 adds the
#: ``telemetry`` table (periodic metrics snapshots — explicitly timestamped,
#: deliberately *outside* the content-addressed result namespace so exports
#: stay byte-identical) and the ``coverage`` table (per-family/per-check fuzz
#: coverage).  All side tables are created with ``IF NOT EXISTS``, so an
#: older store upgrades in place the first time a newer process opens it.
SCHEMA_VERSION = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    pattern      TEXT NOT NULL,
    gpu          TEXT NOT NULL,
    dtype        TEXT NOT NULL,
    grid         TEXT NOT NULL,
    time_steps   INTEGER NOT NULL,
    code_version TEXT NOT NULL,
    status       TEXT NOT NULL,
    payload      TEXT NOT NULL,
    elapsed_s    REAL NOT NULL DEFAULT 0.0,
    created_at   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_lookup ON results (kind, pattern, gpu, dtype);
CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS instances (
    instance_id  TEXT PRIMARY KEY,
    host         TEXT NOT NULL,
    port         INTEGER NOT NULL,
    role         TEXT NOT NULL,
    capabilities TEXT NOT NULL,
    started_at   REAL NOT NULL,
    heartbeat_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS submissions (
    id         TEXT PRIMARY KEY,
    spec       TEXT NOT NULL,
    shards     INTEGER NOT NULL,
    state      TEXT NOT NULL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS assignments (
    submission_id TEXT NOT NULL,
    shard_index   INTEGER NOT NULL,
    instance_id   TEXT NOT NULL,
    updated_at    REAL NOT NULL,
    PRIMARY KEY (submission_id, shard_index)
);
CREATE TABLE IF NOT EXISTS leases (
    name        TEXT PRIMARY KEY,
    holder      TEXT NOT NULL,
    acquired_at REAL NOT NULL,
    expires_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS telemetry (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    instance_id  TEXT NOT NULL,
    code_version TEXT NOT NULL,
    created_at   REAL NOT NULL,
    snapshot     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_telemetry_instance
    ON telemetry (instance_id, created_at);
CREATE TABLE IF NOT EXISTS coverage (
    family     TEXT NOT NULL,
    check_name TEXT NOT NULL,
    runs       INTEGER NOT NULL DEFAULT 0,
    passed     INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (family, check_name)
);
"""

#: Fields every wire-committed result record must carry (the row, minus the
#: receiver-stamped ``created_at``).
RECORD_FIELDS = (
    "key",
    "kind",
    "pattern",
    "gpu",
    "dtype",
    "grid",
    "time_steps",
    "code_version",
    "status",
    "payload",
    "elapsed_s",
)

#: Stable export column order shared by every store export.
EXPORT_COLUMNS = (
    "key",
    "kind",
    "pattern",
    "gpu",
    "dtype",
    "grid",
    "time_steps",
    "status",
    "payload",
)


@dataclass(frozen=True)
class StoredResult:
    """One committed job result."""

    key: str
    kind: str
    pattern: str
    gpu: str
    dtype: str
    grid: str
    time_steps: int
    code_version: str
    status: str
    payload: Dict[str, object]
    elapsed_s: float
    created_at: float

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def export_record(self) -> Dict[str, object]:
        """Deterministic record (no timestamps) for diff-able exports."""
        return {
            "key": self.key,
            "kind": self.kind,
            "pattern": self.pattern,
            "gpu": self.gpu,
            "dtype": self.dtype,
            "grid": self.grid,
            "time_steps": self.time_steps,
            "status": self.status,
            "payload": self.payload,
        }


def make_record(
    spec: JobSpec,
    payload: Dict[str, object],
    status: str = "ok",
    elapsed_s: float = 0.0,
) -> Dict[str, object]:
    """One wire-committable result record for a finished job.

    This is the *only* way a result row is derived from a job — the local
    :meth:`ResultStore.put` path and the wire-native commit path
    (:class:`repro.cluster.remote.RemoteStore`) both go through it, so a
    result committed over HTTP is field-for-field what a local commit would
    have written.  The record carries no timestamps: ``created_at`` is
    stamped by whichever store receives it.
    """
    version = repro.__version__
    return {
        "key": spec.key(version),
        "kind": spec.kind,
        "pattern": spec.pattern,
        "gpu": spec.gpu,
        "dtype": spec.dtype,
        "grid": "x".join(str(v) for v in spec.interior),
        "time_steps": spec.time_steps,
        "code_version": version,
        "status": status,
        "payload": payload,
        "elapsed_s": float(elapsed_s),
    }


class ResultStore:
    """Content-addressed store of campaign results on one SQLite file.

    Pass ``":memory:"`` for an ephemeral in-process store (handy in tests).
    File stores may be shared freely: each thread lazily opens its own WAL
    connection (one writer per connection), and SQLite's busy timeout covers
    writer contention across threads *and* processes — multiple submitters,
    the service worker, and CLI runs can all point at one file.
    """

    #: How long a writer waits on a locked database before giving up.
    BUSY_TIMEOUT_S = 30.0

    def __init__(
        self,
        path: Union[str, Path] = "campaign.sqlite",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = str(path)
        self.metrics = metrics if metrics is not None else get_registry()
        self._lock = threading.Lock()
        # Serialises writers on the shared in-memory connection; file stores
        # rely on WAL + busy timeout instead (their writers never share one
        # connection).
        self._write_lock = threading.Lock()
        # In-process write generations, split by scope so read-through caches
        # over *results* (reports, exports) survive the cluster tables' churn
        # (heartbeats land every couple of seconds and must not evict them).
        self._gen_lock = threading.Lock()
        self._generations: Dict[str, int] = {
            "results": 0,
            "cluster": 0,
            "telemetry": 0,
        }
        self._local = threading.local()
        self._all_connections: List[sqlite3.Connection] = []
        self._shared: Optional[sqlite3.Connection] = None
        self._closed = False
        if self.path == ":memory:":
            self._shared = self._open_connection()
        else:
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            self._conn  # eagerly create the schema on the opening thread

    def _open_connection(self) -> sqlite3.Connection:
        # check_same_thread=False lets close() shut down connections that
        # were opened by (possibly finished) worker threads; each connection
        # is still *used* by exactly one thread.
        conn = sqlite3.connect(
            self.path, timeout=self.BUSY_TIMEOUT_S, check_same_thread=False
        )
        if self.path != ":memory:":
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_S * 1000)}")
        conn.executescript(_SCHEMA)
        # Stamp the schema version, upgrading only: an older binary opening a
        # newer store must not silently downgrade the recorded version.
        conn.execute(
            "INSERT OR IGNORE INTO meta (k, v) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        conn.execute(
            "UPDATE meta SET v = ? WHERE k = 'schema_version' "
            "AND CAST(v AS INTEGER) < ?",
            (str(SCHEMA_VERSION), SCHEMA_VERSION),
        )
        conn.commit()
        with self._lock:
            if self._closed:
                conn.close()
                raise sqlite3.ProgrammingError("store is closed")
            self._all_connections.append(conn)
        return conn

    @property
    def _conn(self) -> sqlite3.Connection:
        """This thread's connection (the shared one for ``":memory:"``)."""
        if self._shared is not None:
            return self._shared
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._open_connection()
            self._local.conn = conn
        return conn

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            connections, self._all_connections = self._all_connections, []
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- write generations -------------------------------------------------------
    def _bump_generation(self, scope: str) -> None:
        with self._gen_lock:
            self._generations[scope] += 1

    def generation(self, scope: str = "results") -> int:
        """Monotonic in-process write counter for one table scope.

        ``"results"`` moves on every result-table write (put/commit/delete/
        purge); ``"cluster"`` moves on instance/submission/assignment/lease
        writes; ``"telemetry"`` moves on telemetry-snapshot and coverage
        writes (its own scope, so periodic snapshots never evict the
        materialised report/export caches).  Read-through caches key on the relevant generation, so a
        ``commit_records`` upsert invalidates every materialised report and
        export immediately while heartbeat churn leaves them warm.  The
        counter is per process: an external writer on the same store file is
        not observed (callers that need cross-process freshness bypass the
        caches with ``cache=off``).
        """
        with self._gen_lock:
            return self._generations[scope]

    # -- writes ----------------------------------------------------------------
    def _commit(self, sql: str, args: Sequence[object]) -> sqlite3.Cursor:
        """Execute one write statement and commit it immediately (timed)."""
        start = time.perf_counter()
        try:
            if self._shared is not None:
                with self._write_lock:
                    cursor = self._conn.execute(sql, args)
                    self._conn.commit()
                    return cursor
            cursor = self._conn.execute(sql, args)
            self._conn.commit()
            return cursor
        finally:
            self.metrics.histogram(
                "store_commit_seconds", "SQLite write-and-commit latency per call"
            ).observe(time.perf_counter() - start)

    def put(
        self,
        spec: JobSpec,
        payload: Dict[str, object],
        status: str = "ok",
        elapsed_s: float = 0.0,
    ) -> str:
        """Commit one result immediately (incremental commit = resumability)."""
        record = make_record(spec, payload, status, elapsed_s)
        timestamp = time.time()
        self._commit(
            "INSERT OR REPLACE INTO results "
            "(key, kind, pattern, gpu, dtype, grid, time_steps, code_version, "
            " status, payload, elapsed_s, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record["key"],
                record["kind"],
                record["pattern"],
                record["gpu"],
                record["dtype"],
                record["grid"],
                record["time_steps"],
                record["code_version"],
                record["status"],
                json.dumps(record["payload"], sort_keys=True, separators=(",", ":")),
                record["elapsed_s"],
                timestamp,
            ),
        )
        self._bump_generation("results")
        return str(record["key"])

    def commit_records(
        self, records: Sequence[Dict[str, object]], now: Optional[float] = None
    ) -> int:
        """Commit wire-native result records; idempotent by construction.

        This is the receiving half of ``POST /results/commit``: keys are
        content addresses, so replaying a batch (worker retries, duplicated
        requests, two workers racing on a re-assigned shard) can never create
        a second row or change an existing ``ok`` row — an existing row is
        only overwritten while it is *not* ``ok`` (a failed attempt upgraded
        by a successful retry).  Returns how many rows were actually written.
        """
        timestamp = time.time() if now is None else float(now)
        committed = 0
        for record in records:
            missing = [field for field in RECORD_FIELDS if field not in record]
            if missing:
                raise ValueError(
                    f"result record is missing field(s): {', '.join(missing)}"
                )
            cursor = self._commit(
                "INSERT INTO results "
                "(key, kind, pattern, gpu, dtype, grid, time_steps, code_version, "
                " status, payload, elapsed_s, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "status = excluded.status, payload = excluded.payload, "
                "elapsed_s = excluded.elapsed_s, code_version = excluded.code_version, "
                "created_at = excluded.created_at "
                "WHERE results.status != 'ok'",
                (
                    str(record["key"]),
                    str(record["kind"]),
                    str(record["pattern"]),
                    str(record["gpu"]),
                    str(record["dtype"]),
                    str(record["grid"]),
                    int(record["time_steps"]),  # type: ignore[arg-type]
                    str(record["code_version"]),
                    str(record["status"]),
                    json.dumps(record["payload"], sort_keys=True, separators=(",", ":")),
                    float(record["elapsed_s"]),  # type: ignore[arg-type]
                    timestamp,
                ),
            )
            committed += cursor.rowcount
        if committed:
            # Replayed batches that changed no row leave every cache valid.
            self._bump_generation("results")
        self.metrics.histogram(
            "store_commit_batch_size",
            "Records per wire-commit batch",
            buckets=SIZE_BUCKETS,
        ).observe(float(len(records)))
        if committed < len(records):
            # A record that changed no row lost the upsert conflict: its key
            # already holds an ``ok`` result (replay, racing workers).
            self.metrics.counter(
                "store_upsert_conflicts_total",
                "Wire-committed records dropped because an ok row already existed",
            ).inc(len(records) - committed)
        return committed

    # -- reads -----------------------------------------------------------------
    def _row_to_result(self, row: Sequence[object]) -> StoredResult:
        return StoredResult(
            key=row[0],
            kind=row[1],
            pattern=row[2],
            gpu=row[3],
            dtype=row[4],
            grid=row[5],
            time_steps=row[6],
            code_version=row[7],
            status=row[8],
            payload=json.loads(row[9]),
            elapsed_s=row[10],
            created_at=row[11],
        )

    _SELECT = (
        "SELECT key, kind, pattern, gpu, dtype, grid, time_steps, code_version, "
        "status, payload, elapsed_s, created_at FROM results"
    )

    def get(self, key: str) -> Optional[StoredResult]:
        row = self._conn.execute(self._SELECT + " WHERE key = ?", (key,)).fetchone()
        return self._row_to_result(row) if row else None

    def lookup(self, spec: JobSpec) -> Optional[StoredResult]:
        return self.get(spec.key())

    def __contains__(self, key: str) -> bool:
        row = self._conn.execute("SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
        return row is not None

    def has_ok(self, spec: JobSpec) -> bool:
        """True when a successful result for this job is already stored."""
        result = self.lookup(spec)
        return result is not None and result.ok

    def count(self, status: Optional[str] = None) -> int:
        if status is None:
            return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        return self._conn.execute(
            "SELECT COUNT(*) FROM results WHERE status = ?", (status,)
        ).fetchone()[0]

    def keys(self) -> List[str]:
        return [row[0] for row in self._conn.execute("SELECT key FROM results ORDER BY key")]

    def statuses(self, keys: Sequence[str]) -> Dict[str, str]:
        """Status by key for the subset of ``keys`` present in the store.

        Absent keys are simply missing from the result — that is how the
        service derives queued/running/done counts for one campaign without
        scanning the whole store.
        """
        out: Dict[str, str] = {}
        chunk_size = 400  # comfortably below SQLite's bound-parameter limit
        keys = list(keys)
        for start in range(0, len(keys), chunk_size):
            chunk = keys[start : start + chunk_size]
            marks = ",".join("?" * len(chunk))
            for key, status in self._conn.execute(
                f"SELECT key, status FROM results WHERE key IN ({marks})", chunk
            ):
                out[key] = status
        return out

    def query(
        self,
        kind: Optional[str] = None,
        pattern: Optional[str] = None,
        gpu: Optional[str] = None,
        dtype: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[StoredResult]:
        """Filtered results in deterministic (kind, pattern, gpu, dtype, key) order."""
        clauses: List[str] = []
        args: List[object] = []
        for column, value in (
            ("kind", kind),
            ("pattern", pattern),
            ("gpu", gpu),
            ("dtype", dtype),
            ("status", status),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                args.append(value)
        sql = self._SELECT
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY kind, pattern, gpu, dtype, key"
        return [self._row_to_result(row) for row in self._conn.execute(sql, args)]

    # -- exports ---------------------------------------------------------------
    def export_records(
        self,
        ok_only: bool = True,
        kind: Optional[str] = None,
        pattern: Optional[str] = None,
        gpu: Optional[str] = None,
        dtype: Optional[str] = None,
    ) -> List[dict]:
        """Deterministically ordered export records (timestamps excluded)."""
        results = self.query(
            kind=kind, pattern=pattern, gpu=gpu, dtype=dtype,
            status="ok" if ok_only else None,
        )
        return [r.export_record() for r in results]

    def to_table(
        self, title: str = "Campaign results", **filters: object
    ) -> ResultTable:
        records = [
            {**{k: v for k, v in record.items() if k != "payload"},
             "payload": json.dumps(record["payload"], sort_keys=True, separators=(",", ":"))}
            for record in self.export_records(**filters)
        ]
        return ResultTable.from_records(title, records, headers=EXPORT_COLUMNS)

    @staticmethod
    def record_line(record: dict) -> str:
        """The canonical one-line JSONL encoding of one export record.

        File exports and the service's streamed ``/export`` endpoint share
        this encoder, which is what makes them byte-identical.
        """
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    def export_jsonl(
        self,
        path: Union[str, Path],
        records: Optional[List[dict]] = None,
        **filters: object,
    ) -> Path:
        """Write one JSON object per result; sorted, timestamp-free, diff-able.

        Pass ``records`` (from :meth:`export_records`) to reuse an already
        materialised result set instead of querying again.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if records is None:
            records = self.export_records(**filters)
        lines = [self.record_line(record) for record in records]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def export_json(
        self,
        path: Union[str, Path],
        records: Optional[List[dict]] = None,
        **filters: object,
    ) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if records is None:
            records = self.export_records(**filters)
        path.write_text(json.dumps({"results": records}, sort_keys=True, indent=2) + "\n")
        return path

    # -- cluster: instance registry --------------------------------------------
    # Raw row-level accessors for the tables the cluster layer shares through
    # the store.  Liveness policy (heartbeat age), shard planning and HTTP
    # forwarding live in :mod:`repro.cluster`; the store only persists facts.

    def register_instance(
        self,
        instance_id: str,
        host: str,
        port: int,
        role: str,
        capabilities: Dict[str, object],
        now: Optional[float] = None,
    ) -> None:
        """Insert (or refresh) one service instance; heartbeat starts now."""
        timestamp = time.time() if now is None else float(now)
        self._commit(
            "INSERT OR REPLACE INTO instances "
            "(instance_id, host, port, role, capabilities, started_at, heartbeat_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                instance_id,
                host,
                int(port),
                role,
                json.dumps(capabilities, sort_keys=True, separators=(",", ":")),
                timestamp,
                timestamp,
            ),
        )
        self._bump_generation("cluster")

    def heartbeat_instance(self, instance_id: str, now: Optional[float] = None) -> bool:
        """Refresh one instance's heartbeat; False if it is not registered."""
        timestamp = time.time() if now is None else float(now)
        cursor = self._commit(
            "UPDATE instances SET heartbeat_at = ? WHERE instance_id = ?",
            (timestamp, instance_id),
        )
        self._bump_generation("cluster")
        return cursor.rowcount > 0

    def remove_instance(self, instance_id: str) -> bool:
        self._bump_generation("cluster")
        return (
            self._commit(
                "DELETE FROM instances WHERE instance_id = ?", (instance_id,)
            ).rowcount
            > 0
        )

    def instance_rows(self) -> List[Dict[str, object]]:
        """All registered instances, oldest registration first."""
        rows = self._conn.execute(
            "SELECT instance_id, host, port, role, capabilities, started_at, heartbeat_at "
            "FROM instances ORDER BY started_at, instance_id"
        )
        return [
            {
                "instance_id": row[0],
                "host": row[1],
                "port": row[2],
                "role": row[3],
                "capabilities": json.loads(row[4]),
                "started_at": row[5],
                "heartbeat_at": row[6],
            }
            for row in rows
        ]

    # -- cluster: submission queue ----------------------------------------------
    def enqueue_submission(
        self, sid: str, spec_json: str, shards: int, now: Optional[float] = None
    ) -> None:
        """Insert (or re-open) one campaign submission in state ``queued``.

        Re-submitting an id that already finished resets its state and shard
        count but keeps the original ``created_at`` so queue order is stable.
        """
        timestamp = time.time() if now is None else float(now)
        self._commit(
            "INSERT INTO submissions (id, spec, shards, state, created_at, updated_at) "
            "VALUES (?, ?, ?, 'queued', ?, ?) "
            "ON CONFLICT(id) DO UPDATE SET "
            "spec = excluded.spec, shards = excluded.shards, state = 'queued', "
            "updated_at = excluded.updated_at",
            (sid, spec_json, int(shards), timestamp, timestamp),
        )
        self._bump_generation("cluster")

    def update_submission(self, sid: str, state: str) -> bool:
        cursor = self._commit(
            "UPDATE submissions SET state = ?, updated_at = ? WHERE id = ?",
            (state, time.time(), sid),
        )
        self._bump_generation("cluster")
        return cursor.rowcount > 0

    def _submission_row(self, row: Sequence[object]) -> Dict[str, object]:
        return {
            "id": row[0],
            "spec": row[1],
            "shards": row[2],
            "state": row[3],
            "created_at": row[4],
            "updated_at": row[5],
        }

    def get_submission(self, sid: str) -> Optional[Dict[str, object]]:
        row = self._conn.execute(
            "SELECT id, spec, shards, state, created_at, updated_at "
            "FROM submissions WHERE id = ?",
            (sid,),
        ).fetchone()
        return self._submission_row(row) if row else None

    def submission_rows(self) -> List[Dict[str, object]]:
        """Submissions in queue order."""
        sql = (
            "SELECT id, spec, shards, state, created_at, updated_at FROM submissions"
            " ORDER BY created_at, id"
        )
        return [self._submission_row(row) for row in self._conn.execute(sql)]

    def set_assignment(self, sid: str, shard_index: int, instance_id: str) -> None:
        self._commit(
            "INSERT OR REPLACE INTO assignments "
            "(submission_id, shard_index, instance_id, updated_at) VALUES (?, ?, ?, ?)",
            (sid, int(shard_index), instance_id, time.time()),
        )
        self._bump_generation("cluster")

    def clear_assignments(self, sid: str) -> int:
        self._bump_generation("cluster")
        return self._commit(
            "DELETE FROM assignments WHERE submission_id = ?", (sid,)
        ).rowcount

    def assignment_rows(self, sid: str) -> List[Dict[str, object]]:
        """One submission's shard -> instance assignments, by shard index."""
        rows = self._conn.execute(
            "SELECT shard_index, instance_id, updated_at FROM assignments "
            "WHERE submission_id = ? ORDER BY shard_index",
            (sid,),
        )
        return [
            {"shard_index": row[0], "instance_id": row[1], "updated_at": row[2]}
            for row in rows
        ]

    # -- cluster: leases ---------------------------------------------------------
    # A lease is a named, time-bounded claim ("coordinator" is the only name
    # used today).  Acquire/renew/seize is one atomic statement, so any
    # store-native instance may race for an expired lease and exactly one
    # wins; the loser simply stays in standby until the next attempt.

    def acquire_lease(
        self, name: str, holder: str, ttl: float, now: Optional[float] = None
    ) -> bool:
        """Acquire, renew or seize one named lease; True when ``holder`` holds it.

        The current holder always renews; anyone else only succeeds once the
        lease has expired (``expires_at <= now``) — which is exactly what a
        crashed holder leaves behind once it stops renewing.
        """
        timestamp = time.time() if now is None else float(now)
        expires = timestamp + float(ttl)
        inserted = self._commit(
            "INSERT OR IGNORE INTO leases (name, holder, acquired_at, expires_at) "
            "VALUES (?, ?, ?, ?)",
            (name, holder, timestamp, expires),
        )
        if inserted.rowcount > 0:
            self._bump_generation("cluster")
            return True
        updated = self._commit(
            "UPDATE leases SET "
            "acquired_at = CASE WHEN holder = ? THEN acquired_at ELSE ? END, "
            "holder = ?, expires_at = ? "
            "WHERE name = ? AND (holder = ? OR expires_at <= ?)",
            (holder, timestamp, holder, expires, name, holder, timestamp),
        )
        self._bump_generation("cluster")
        return updated.rowcount > 0

    def get_lease(self, name: str) -> Optional[Dict[str, object]]:
        row = self._conn.execute(
            "SELECT name, holder, acquired_at, expires_at FROM leases WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            return None
        return {
            "name": row[0],
            "holder": row[1],
            "acquired_at": row[2],
            "expires_at": row[3],
        }

    def release_lease(self, name: str, holder: str) -> bool:
        """Drop one lease, but only if ``holder`` still holds it."""
        cursor = self._commit(
            "DELETE FROM leases WHERE name = ? AND holder = ?", (name, holder)
        )
        self._bump_generation("cluster")
        return cursor.rowcount > 0

    # -- telemetry history --------------------------------------------------------
    # Periodic metrics snapshots, one JSON blob per (instance, tick).  The
    # table is *explicitly* timestamped — it records when this process saw
    # these rates — and lives entirely outside the content-addressed result
    # namespace: nothing here is ever exported, so every export stays
    # byte-identical no matter how many snapshots accumulate.

    def record_telemetry(
        self,
        instance_id: str,
        snapshot: Dict[str, object],
        code_version: Optional[str] = None,
        now: Optional[float] = None,
    ) -> int:
        """Persist one metrics snapshot; returns its row id."""
        timestamp = time.time() if now is None else float(now)
        version = code_version if code_version is not None else repro.__version__
        cursor = self._commit(
            "INSERT INTO telemetry (instance_id, code_version, created_at, snapshot) "
            "VALUES (?, ?, ?, ?)",
            (
                instance_id,
                version,
                timestamp,
                json.dumps(snapshot, sort_keys=True, separators=(",", ":"), default=str),
            ),
        )
        self._bump_generation("telemetry")
        return int(cursor.lastrowid or 0)

    def telemetry_rows(
        self,
        instance_id: Optional[str] = None,
        code_version: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Snapshots, newest first (optionally filtered, optionally capped)."""
        sql = (
            "SELECT id, instance_id, code_version, created_at, snapshot "
            "FROM telemetry"
        )
        clauses: List[str] = []
        args: List[object] = []
        if instance_id is not None:
            clauses.append("instance_id = ?")
            args.append(instance_id)
        if code_version is not None:
            clauses.append("code_version = ?")
            args.append(code_version)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        return [
            {
                "id": row[0],
                "instance_id": row[1],
                "code_version": row[2],
                "created_at": row[3],
                "snapshot": json.loads(row[4]),
            }
            for row in self._conn.execute(sql, args)
        ]

    def prune_telemetry(self, keep_last: int) -> int:
        """Drop all but the newest ``keep_last`` snapshots (bounded history)."""
        self._bump_generation("telemetry")
        return self._commit(
            "DELETE FROM telemetry WHERE id NOT IN "
            "(SELECT id FROM telemetry ORDER BY created_at DESC, id DESC LIMIT ?)",
            (max(0, int(keep_last)),),
        ).rowcount

    # -- fuzz coverage ------------------------------------------------------------
    def replace_coverage(
        self, entries: Dict[Tuple[str, str], Tuple[int, int]]
    ) -> None:
        """Replace the per-(family, check) coverage counters wholesale.

        The counters are an idempotent *derived* aggregate — recomputed from
        the fuzz rows in the results table after each fuzz campaign — so a
        warm re-run rewrites identical numbers instead of double-counting.
        """
        start = time.perf_counter()
        conn = self._conn
        lock = (
            self._write_lock if self._shared is not None else contextlib.nullcontext()
        )
        with lock:
            conn.execute("DELETE FROM coverage")
            conn.executemany(
                "INSERT INTO coverage (family, check_name, runs, passed) "
                "VALUES (?, ?, ?, ?)",
                [
                    (family, check, int(runs), int(passed))
                    for (family, check), (runs, passed) in sorted(entries.items())
                ],
            )
            conn.commit()
        self._bump_generation("telemetry")
        self.metrics.histogram(
            "store_commit_seconds", "SQLite write-and-commit latency per call"
        ).observe(time.perf_counter() - start)

    def coverage_rows(self) -> List[Dict[str, object]]:
        """Coverage counters in (family, check) order."""
        return [
            {"family": row[0], "check": row[1], "runs": row[2], "passed": row[3]}
            for row in self._conn.execute(
                "SELECT family, check_name, runs, passed FROM coverage "
                "ORDER BY family, check_name"
            )
        ]

    # -- code-version maintenance ------------------------------------------------
    def code_versions(self) -> Dict[str, int]:
        """Result counts per code version (stale versions never expire alone)."""
        return {
            version: count
            for version, count in self._conn.execute(
                "SELECT code_version, COUNT(*) FROM results "
                "GROUP BY code_version ORDER BY code_version"
            )
        }

    def purge_code_version(self, version: str) -> int:
        """Drop every result recorded under one code version."""
        self._bump_generation("results")
        return self._commit(
            "DELETE FROM results WHERE code_version = ?", (version,)
        ).rowcount
