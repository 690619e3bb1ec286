"""Tests for the campaign service: store, jobs, scheduler, reports, CLI."""

import json

import pytest

from repro import api
from repro.campaign import (
    CampaignScheduler,
    CampaignSpec,
    JobSpec,
    ResultStore,
    run_job,
)
from repro.campaign.jobs import JOB_KINDS
from repro.campaign.report import (
    accuracy_summary,
    campaign_summary,
    leaderboard,
    table5_matrix,
)
from repro.campaign.scheduler import JobTimeout, ShardPlan, _execute_with_timeout
from repro.cli import main

SMALL_2D = (512, 512)
SMALL_3D = (48, 48, 48)


def small_spec(**overrides):
    defaults = dict(
        benchmarks=("j2d5pt", "star3d1r"),
        gpus=("V100",),
        dtypes=("float",),
        kinds=("tune",),
        time_steps=100,
        interior_2d=SMALL_2D,
        interior_3d=SMALL_3D,
        top_k=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


# -- JobSpec ------------------------------------------------------------------------


def test_job_key_is_deterministic_and_content_addressed():
    a = JobSpec("tune", "j2d5pt", "V100", "float", (512, 512), 100, (("top_k", 2),))
    b = JobSpec("tune", "j2d5pt", "V100", "float", (512, 512), 100, (("top_k", 2),))
    assert a.key() == b.key()
    assert a.key() != b.key(code_version="0.0.0")
    assert a.key() != JobSpec("tune", "j2d5pt", "P100", "float", (512, 512), 100).key()
    assert a.key() != JobSpec("tune", "j2d5pt", "V100", "double", (512, 512), 100).key()


def test_job_params_order_is_irrelevant():
    a = JobSpec("verify", "j2d5pt", "V100", "float", (96, 96), 8, (("bT", 4), ("bS", (32,))))
    b = JobSpec("verify", "j2d5pt", "V100", "float", (96, 96), 8, (("bS", [32]), ("bT", 4)))
    assert a.key() == b.key()


def test_job_rejects_unknown_kind():
    with pytest.raises(ValueError):
        JobSpec("frobnicate", "j2d5pt", "V100", "float", (96, 96), 8)


def test_run_job_covers_every_kind():
    jobs = {
        "tune": JobSpec("tune", "j2d5pt", "V100", "float", SMALL_2D, 50, (("top_k", 1),)),
        "exhaustive": JobSpec("exhaustive", "j2d5pt", "V100", "float", SMALL_2D, 50),
        "verify": JobSpec(
            "verify", "j2d5pt", "V100", "float", (96, 96), 8, (("bT", 3), ("bS", (32,)))
        ),
        "baseline": JobSpec(
            "baseline", "j2d5pt", "V100", "float", SMALL_2D, 50, (("framework", "loop"),)
        ),
        "predict": JobSpec(
            "predict", "j2d5pt", "V100", "float", SMALL_2D, 50, (("bT", 4), ("bS", (256,)))
        ),
        "fuzz": JobSpec("fuzz", "fuzz-1-0", "V100", "float", (96, 96), 8),
    }
    assert set(jobs) == set(JOB_KINDS)
    for kind, spec in jobs.items():
        payload = run_job(spec)
        assert json.loads(json.dumps(payload)) == payload, kind
    assert run_job(jobs["verify"])["matches"] is True
    assert run_job(jobs["tune"])["tuned_gflops"] > 0
    assert run_job(jobs["fuzz"])["passed"] is True


# -- CampaignSpec expansion -----------------------------------------------------------


def test_campaign_expansion_matrix():
    spec = small_spec(gpus=("V100", "P100"), dtypes=("float", "double"))
    jobs = spec.expand()
    assert len(jobs) == 2 * 2 * 2  # benchmarks x gpus x dtypes
    assert len({job.key() for job in jobs}) == len(jobs)
    # Expansion order is deterministic.
    assert [j.key() for j in spec.expand()] == [j.key() for j in jobs]


def test_campaign_defaults_to_all_benchmarks():
    from repro.stencils.library import BENCHMARKS

    spec = CampaignSpec()
    assert spec.benchmarks == tuple(BENCHMARKS)


def test_campaign_expansion_verify_uses_small_grids():
    spec = small_spec(kinds=("verify",))
    for job in spec.expand():
        assert job.time_steps == 8
        assert max(job.interior) <= 96


def test_campaign_baseline_expands_frameworks():
    spec = small_spec(kinds=("baseline",), benchmarks=("j2d5pt",))
    frameworks = {job.params_dict()["framework"] for job in spec.expand()}
    assert frameworks == {"loop", "hybrid", "stencilgen"}


def test_campaign_spec_validates_inputs():
    with pytest.raises(KeyError):
        small_spec(benchmarks=("nope",))
    with pytest.raises(KeyError):
        small_spec(gpus=("H100",))
    with pytest.raises(ValueError):
        small_spec(dtypes=("half",))
    with pytest.raises(ValueError):
        small_spec(kinds=("train",))


# -- ResultStore ----------------------------------------------------------------------


def test_store_round_trip(tmp_path):
    job = JobSpec("tune", "j2d5pt", "V100", "float", SMALL_2D, 100)
    with ResultStore(tmp_path / "store.sqlite") as store:
        key = store.put(job, {"tuned_gflops": 123.4}, elapsed_s=0.5)
        assert key == job.key()
        assert key in store
        stored = store.get(key)
        assert stored.ok and stored.payload["tuned_gflops"] == 123.4
        assert store.lookup(job).key == key
        assert store.count() == 1
    # Persistence across connections.
    with ResultStore(tmp_path / "store.sqlite") as store:
        assert store.has_ok(job)


def test_store_failed_results_are_not_cache_hits(tmp_path):
    job = JobSpec("tune", "j2d5pt", "V100", "float", SMALL_2D, 100)
    with ResultStore(":memory:") as store:
        store.put(job, {"error": "boom"}, status="failed")
        assert job.key() in store
        assert not store.has_ok(job)
        assert store.count() == store.count("failed") == 1
        # A later success overwrites the failure under the same key.
        store.put(job, {"tuned_gflops": 1.0}, status="ok")
        assert store.has_ok(job)
        assert store.count() == 1


def test_store_export_is_sorted_and_timestamp_free(tmp_path):
    with ResultStore(":memory:") as store:
        for name in ("j2d9pt", "j2d5pt"):
            store.put(
                JobSpec("tune", name, "V100", "float", SMALL_2D, 100), {"tuned_gflops": 1.0}
            )
        records = store.export_records()
        assert [r["pattern"] for r in records] == ["j2d5pt", "j2d9pt"]
        assert all("created_at" not in r and "elapsed_s" not in r for r in records)
        path = store.export_jsonl(tmp_path / "out.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["pattern"] == "j2d5pt"


# -- Scheduler ------------------------------------------------------------------------


def test_campaign_run_then_full_cache_hit():
    spec = small_spec()
    with ResultStore(":memory:") as store:
        first = CampaignScheduler(spec, store).run()
        assert first.ok and first.executed == 2 and first.cached == 0
        second = CampaignScheduler(spec, store).run()
        assert second.executed == 0 and second.cached == second.total
        assert second.cache_hit_rate >= 0.95  # acceptance criterion (it is 1.0)


def test_interrupted_campaign_resumes_and_exports_identically(tmp_path):
    spec = small_spec(kinds=("tune", "baseline"))
    # Uninterrupted reference run.
    with ResultStore(tmp_path / "full.sqlite") as store:
        CampaignScheduler(spec, store).run()
        reference = (tmp_path / "full.jsonl")
        store.export_jsonl(reference)
    # "Killed" run: half the jobs committed, then the process is gone.
    with ResultStore(tmp_path / "resumed.sqlite") as store:
        jobs = spec.expand()
        for job in jobs[: len(jobs) // 2]:
            store.put(job, run_job(job))
    # Resume in a fresh connection ("new process").
    with ResultStore(tmp_path / "resumed.sqlite") as store:
        outcome = CampaignScheduler(spec, store).run()
        assert outcome.cached == len(spec.expand()) // 2
        resumed = tmp_path / "resumed.jsonl"
        store.export_jsonl(resumed)
    assert resumed.read_bytes() == reference.read_bytes()


def test_scheduler_shards_partition_the_campaign():
    spec = small_spec(gpus=("V100", "P100"), kinds=("verify",))
    with ResultStore(":memory:") as store:
        shards = 3
        seen = []
        for index in range(shards):
            scheduler = CampaignScheduler(spec, store, plan=ShardPlan(shards, (index,)))
            seen.extend(job.key() for job in scheduler.jobs())
        all_jobs = [job.key() for job in spec.expand()]
        assert sorted(seen) == sorted(all_jobs)  # disjoint and complete


def test_scheduler_retries_and_records_failures(monkeypatch):
    import repro.campaign.scheduler as scheduler_module

    attempts = {"n": 0}

    def flaky(spec, timeout):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("transient failure")
        return {"tuned_gflops": 1.0}

    monkeypatch.setattr(scheduler_module, "_execute_with_timeout", flaky)
    spec = small_spec(benchmarks=("j2d5pt",))
    with ResultStore(":memory:") as store:
        outcome = CampaignScheduler(spec, store, retries=2).run()
        assert outcome.ok and outcome.retried == 1
        assert store.count() == store.count("ok") == 1


def test_scheduler_exhausted_retries_surface_failure(monkeypatch):
    import repro.campaign.scheduler as scheduler_module

    def always_broken(spec, timeout):
        raise RuntimeError("permanent failure")

    monkeypatch.setattr(scheduler_module, "_execute_with_timeout", always_broken)
    spec = small_spec(benchmarks=("j2d5pt",))
    with ResultStore(":memory:") as store:
        outcome = CampaignScheduler(spec, store, retries=1).run()
        assert not outcome.ok and outcome.failed == 1 and outcome.retried == 1
        stored = store.query(status="failed")
        assert len(stored) == 1
        assert "permanent failure" in stored[0].payload["error"]


def test_scheduler_parallel_matches_serial(tmp_path):
    spec = small_spec(gpus=("V100", "P100"))
    with ResultStore(tmp_path / "serial.sqlite") as store:
        CampaignScheduler(spec, store, workers=1).run()
        serial = store.export_records()
    with ResultStore(tmp_path / "parallel.sqlite") as store:
        outcome = CampaignScheduler(spec, store, workers=4).run()
        assert outcome.ok
        parallel = store.export_records()
    assert serial == parallel


def test_scheduler_pool_death_runs_undelivered_jobs_inline(monkeypatch):
    import repro.campaign.scheduler as scheduler_module

    class DyingPool:
        """Delivers one result, then dies the way a killed worker pool does."""

        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def imap_unordered(self, func, tasks, chunksize=1):
            yield func(tasks[0])
            raise RuntimeError("pool worker was killed")

    class Context:
        Pool = DyingPool

    monkeypatch.setattr(scheduler_module.multiprocessing, "get_context", lambda method: Context)
    monkeypatch.setattr(
        scheduler_module, "_execute_with_timeout", lambda spec, timeout: {"tuned_gflops": 1.0}
    )
    spec = small_spec(gpus=("V100", "P100"))
    with ResultStore(":memory:") as store:
        commits = []
        real_put = store.put

        def counting_put(job, *args, **kwargs):
            commits.append(job.key())
            return real_put(job, *args, **kwargs)

        monkeypatch.setattr(store, "put", counting_put)
        outcome = CampaignScheduler(spec, store, workers=2).run()
        assert outcome.ok and outcome.executed == 4
        assert sorted(commits) == sorted(job.key() for job in spec.expand())  # each once


def test_job_timeout_enforced():
    import time

    slow = JobSpec("tune", "j2d5pt", "V100", "float", SMALL_2D, 100)
    original_sleep = time.sleep
    with pytest.raises(JobTimeout):
        import repro.campaign.scheduler as scheduler_module

        def sleepy(spec):
            original_sleep(1.0)
            return {}

        previous = scheduler_module.run_job
        scheduler_module.run_job = sleepy
        try:
            _execute_with_timeout(slow, timeout=0.05)
        finally:
            scheduler_module.run_job = previous


def test_scheduler_validates_shard_arguments():
    spec = small_spec()
    with ResultStore(":memory:") as store:
        with pytest.raises(ValueError):
            CampaignScheduler(spec, store, plan=ShardPlan(0, (0,)))
        with pytest.raises(ValueError):
            CampaignScheduler(spec, store, plan=ShardPlan(2, (2,)))
        with pytest.raises(ValueError):
            CampaignScheduler(spec, store, retries=-1)


# -- Reports --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tuned_store():
    spec = small_spec(gpus=("V100", "P100"))
    store = ResultStore(":memory:")
    CampaignScheduler(spec, store).run()
    yield store
    store.close()


def test_leaderboard_ranks_by_gflops(tuned_store):
    table = leaderboard(tuned_store, top=3)
    values = [row[4] for row in table.rows]
    assert values == sorted(values, reverse=True)
    assert len(table.rows) == 3


def test_table5_matrix_shape(tuned_store):
    table = table5_matrix(tuned_store)
    assert table.headers == ["pattern", "P100/float", "V100/float"]
    assert [row[0] for row in table.rows] == ["j2d5pt", "star3d1r"]
    config_table = table5_matrix(tuned_store, value="config")
    assert "bT=" in config_table.rows[0][1]


def test_accuracy_summary_bounds(tuned_store):
    table = accuracy_summary(tuned_store)
    assert len(table.rows) == 2  # one per GPU
    for row in table.rows:
        assert 0.0 < row[3] <= 1.0  # mean accuracy


def test_reports_skip_records_they_cannot_read(tuned_store):
    # Stores keep rows from older code versions and wire commits check only
    # the record fields, so a report must leave out what it cannot read.
    from repro.stencils.generators import fuzz_stencil

    tuned = [
        dict(record, code_version="v0", elapsed_s=0.0)
        for record in tuned_store.export_records(ok_only=True, kind="tune")
    ]
    base = tuned[0]
    no_accuracy = dict(base, key="no-accuracy", gpu="K40", payload={"gflops": 1.0})
    checks = {"checks": [{"check": "frontend_roundtrip", "passed": True}]}
    fuzz = dict(base, kind="fuzz", payload=checks)
    store = ResultStore(":memory:")
    assert store.commit_records(
        [
            *tuned,
            no_accuracy,
            dict(fuzz, key="fuzz-named", pattern="fuzz-3-1"),
            dict(fuzz, key="not-fuzz-named", pattern="j2d5pt"),
        ]
    ) == len(tuned) + 3
    table = accuracy_summary(store)
    assert sorted(row[0] for row in table.rows) == ["P100", "V100"]
    assert api.fuzz_coverage(store) == [
        {
            "family": fuzz_stencil(3, 1).family,
            "check": "frontend_roundtrip",
            "runs": 1,
            "passed": 1,
        }
    ]
    store.close()


def test_campaign_summary_counts(tuned_store):
    table = campaign_summary(tuned_store)
    assert table.rows == [("tune", "ok", 4)]


def test_api_campaign_report_unknown_report(tmp_path):
    with pytest.raises(ValueError):
        api.campaign_report(tmp_path / "x.sqlite", report="nope")


# -- api.campaign ---------------------------------------------------------------------


def test_api_campaign_runs_and_resumes(tmp_path):
    store_path = tmp_path / "api.sqlite"
    kwargs = dict(
        benchmarks=("j2d5pt",),
        gpus=("V100",),
        dtypes=("float", "double"),
        store=store_path,
        time_steps=100,
    )
    first = api.campaign(**kwargs)
    assert first.ok and first.executed == 2
    second = api.campaign(**kwargs)
    assert second.cached == 2 and second.cache_hit_rate == 1.0
    table = api.campaign_report(store_path, report="table5")
    assert table.headers == ["pattern", "V100/double", "V100/float"]


# -- CLI ------------------------------------------------------------------------------


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "an5d" in capsys.readouterr().out


def test_cli_errors_go_to_stderr(capsys):
    assert main(["tune", "not-a-benchmark"]) == 2  # bad invocation
    captured = capsys.readouterr()
    assert "unknown benchmark" in captured.err
    assert captured.out == ""


def test_cli_campaign_gpu_aliases_hit_the_same_cache(tmp_path, capsys):
    store = str(tmp_path / "alias.sqlite")
    base = ["campaign", "run", "--benchmarks", "j2d5pt", "--dtypes", "float",
            "--store", store, "--time-steps", "100"]
    assert main(base + ["--gpus", "V100"]) == 0
    capsys.readouterr()
    assert main(base + ["--gpus", "v100,volta"]) == 0  # aliases + duplicates
    assert "cache_hit_rate: 1.0" in capsys.readouterr().out


def test_cli_campaign_run_status_report_export(tmp_path, capsys):
    store = str(tmp_path / "cli.sqlite")
    argv = [
        "campaign", "run",
        "--benchmarks", "j2d5pt",
        "--gpus", "V100",
        "--dtypes", "float",
        "--store", store,
        "--time-steps", "100",
    ]
    assert main(argv) == 0
    assert "cache_hit_rate: 0.0" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache_hit_rate: 1.0" in capsys.readouterr().out

    assert main(["campaign", "status", "--store", store]) == 0
    assert "tune" in capsys.readouterr().out

    assert main(["campaign", "report", "--store", store, "--report", "leaderboard"]) == 0
    assert "j2d5pt" in capsys.readouterr().out

    out_jsonl = str(tmp_path / "out.jsonl")
    assert main(["campaign", "export", "--store", store, "-o", out_jsonl]) == 0
    record = json.loads((tmp_path / "out.jsonl").read_text().splitlines()[0])
    assert record["pattern"] == "j2d5pt" and record["status"] == "ok"

    out_csv = str(tmp_path / "out.csv")
    assert main(["campaign", "export", "--store", store, "-o", out_csv]) == 0
    assert (tmp_path / "out.csv").read_text().startswith("key,kind,pattern")


def test_cli_campaign_missing_store(tmp_path, capsys):
    missing = str(tmp_path / "nope.sqlite")
    assert main(["campaign", "status", "--store", missing]) == 2
    assert "no campaign store" in capsys.readouterr().err
