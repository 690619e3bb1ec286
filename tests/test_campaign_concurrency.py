"""Concurrent-writer tests for the shared SQLite result store.

The HTTP service points request-handler threads, its async worker and
external CLI runs at one store file, so the store must take concurrent
writers without losing commits — and, because results are content-addressed
and exports deterministically ordered, a store written by N racing writers
must export *byte-identical* to one written serially.
"""

import multiprocessing
import multiprocessing.context
import threading

import pytest

from repro.campaign.jobs import CampaignSpec, JobSpec
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import ResultStore


def _job(index: int) -> JobSpec:
    """Cheap, key-distinct jobs (the params differ, so the keys differ)."""
    return JobSpec(
        "predict", "j2d5pt", "V100", "float", (512, 512), 100, (("seq", index),)
    )


def _payload(index: int) -> dict:
    return {"value": index, "simulated_gflops": float(index)}


def _serial_export(tmp_path, indices, name="serial.jsonl"):
    """The byte-exact reference: the same commits, one writer, one thread."""
    with ResultStore(tmp_path / "serial.sqlite") as store:
        for index in indices:
            store.put(_job(index), _payload(index))
        path = store.export_jsonl(tmp_path / name)
    return path.read_bytes()


# -- connection discipline ------------------------------------------------------------


def test_file_store_runs_wal_with_busy_timeout(tmp_path):
    with ResultStore(tmp_path / "wal.sqlite") as store:
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store._conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30_000


def test_each_thread_gets_its_own_connection(tmp_path):
    """One writer per connection: threads never share a SQLite handle."""
    with ResultStore(tmp_path / "conns.sqlite") as store:
        main_conn = store._conn
        seen = []

        def grab():
            seen.append(store._conn)

        thread = threading.Thread(target=grab)
        thread.start()
        thread.join()
        assert seen and seen[0] is not main_conn
    # The in-memory store is the exception: per-thread connections would
    # each see a private empty database, so everyone shares one handle.
    with ResultStore(":memory:") as memory_store:
        shared = memory_store._conn
        seen = []
        worker = threading.Thread(target=lambda: seen.append(memory_store._conn))
        worker.start()
        worker.join()
        assert seen[0] is shared


def test_close_shuts_down_connections_opened_by_other_threads(tmp_path):
    store = ResultStore(tmp_path / "close.sqlite")
    done = threading.Event()

    def write():
        store.put(_job(0), _payload(0))
        done.set()

    thread = threading.Thread(target=write)
    thread.start()
    thread.join()
    assert done.is_set()
    store.close()  # must not raise despite the worker thread's connection
    with pytest.raises(Exception):
        store.count()  # the store is really closed


# -- threaded writers -----------------------------------------------------------------


def test_disjoint_threaded_writers_lose_no_commits(tmp_path):
    writers, per_writer = 8, 25
    store = ResultStore(tmp_path / "disjoint.sqlite")
    errors = []

    def write(base: int) -> None:
        try:
            for offset in range(per_writer):
                index = base * per_writer + offset
                store.put(_job(index), _payload(index))
        except Exception as error:  # noqa: BLE001 — surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=write, args=(base,)) for base in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert store.count() == writers * per_writer  # no lost commits
    concurrent = store.export_jsonl(tmp_path / "concurrent.jsonl").read_bytes()
    store.close()
    assert concurrent == _serial_export(tmp_path, range(writers * per_writer))


def test_overlapping_threaded_writers_converge(tmp_path):
    """All writers racing on the SAME keys must still converge byte-exactly."""
    writers, jobs = 8, 20
    store = ResultStore(tmp_path / "overlap.sqlite")
    start_together = threading.Barrier(writers)
    errors = []

    def write() -> None:
        try:
            start_together.wait()
            for index in range(jobs):
                store.put(_job(index), _payload(index))
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=write) for _ in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert store.count() == jobs  # content-addressed: replacement, not duplication
    concurrent = store.export_jsonl(tmp_path / "overlap.jsonl").read_bytes()
    store.close()
    assert concurrent == _serial_export(tmp_path, range(jobs))


def test_readers_run_alongside_writers(tmp_path):
    """WAL: status reads from other threads never block or crash a writer."""
    store = ResultStore(tmp_path / "readers.sqlite")
    stop = threading.Event()
    errors = []

    def read() -> None:
        keys = [_job(i).key() for i in range(50)]
        try:
            while not stop.is_set():
                store.statuses(keys)
                store.count("ok")
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    readers = [threading.Thread(target=read) for _ in range(3)]
    for thread in readers:
        thread.start()
    for index in range(50):
        store.put(_job(index), _payload(index))
    stop.set()
    for thread in readers:
        thread.join()
    assert errors == []
    assert store.statuses([_job(7).key()]) == {_job(7).key(): "ok"}
    store.close()


# -- cross-process writers ------------------------------------------------------------


def _process_writer(path: str, base: int, per_writer: int) -> None:
    store = ResultStore(path)
    try:
        for offset in range(per_writer):
            index = base * per_writer + offset
            store.put(_job(index), _payload(index))
    finally:
        store.close()


def test_processes_share_one_store_file(tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    context = multiprocessing.get_context("fork")
    path = str(tmp_path / "processes.sqlite")
    writers, per_writer = 4, 15
    processes = [
        context.Process(target=_process_writer, args=(path, base, per_writer))
        for base in range(writers)
    ]
    try:
        for process in processes:
            process.start()
    except OSError:
        pytest.skip("process spawn unavailable in this sandbox")
    for process in processes:
        process.join(60)
    assert all(process.exitcode == 0 for process in processes)
    with ResultStore(path) as store:
        assert store.count() == writers * per_writer
        merged = store.export_jsonl(tmp_path / "processes.jsonl").read_bytes()
    assert merged == _serial_export(tmp_path, range(writers * per_writer))


# -- scheduler pool start ---------------------------------------------------------------


# Baseline jobs skip the in-process predict batching, so they reach the pool.
POOL_SPEC = CampaignSpec(
    benchmarks=("j2d5pt", "star3d1r"),
    kinds=("baseline",),
    time_steps=100,
    interior_2d=(512, 512),
    interior_3d=(48, 48, 48),
)


def _campaign_export(tmp_path, name, workers):
    with ResultStore(tmp_path / f"{name}.sqlite") as store:
        outcome = CampaignScheduler(POOL_SPEC, store, workers=workers).run()
        assert outcome.ok and outcome.executed == len(POOL_SPEC.expand())
        return store.export_jsonl(tmp_path / f"{name}.jsonl").read_bytes()


def _pool_raising(error):
    def pool(self, *args, **kwargs):
        raise error

    return pool


def test_pool_that_cannot_start_runs_the_campaign_inline(tmp_path, monkeypatch):
    serial = _campaign_export(tmp_path, "serial", workers=1)
    monkeypatch.setattr(
        multiprocessing.context.BaseContext, "Pool", _pool_raising(OSError("no fork"))
    )
    assert _campaign_export(tmp_path, "inline", workers=2) == serial


def test_pool_start_errors_other_than_os_errors_propagate(tmp_path, monkeypatch):
    monkeypatch.setattr(
        multiprocessing.context.BaseContext, "Pool", _pool_raising(ValueError("bad pool"))
    )
    with ResultStore(tmp_path / "fails.sqlite") as store:
        with pytest.raises(ValueError, match="bad pool"):
            CampaignScheduler(POOL_SPEC, store, workers=2).run()
