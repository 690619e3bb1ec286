"""In-process runs of the ``an5d`` commands CI otherwise only smoke-runs.

Each test calls ``main([...])`` and asserts what the command prints and
returns: ``campaign watch``, ``fuzz``, ``top`` (one-shot, ``--watch``,
``--follow``, ``--history``), ``profile``, ``serve``'s option paths, and
``cluster up``/``status``/``submit``.  Commands that block until ctrl-c get a
``time`` whose ``sleep`` raises ``KeyboardInterrupt``; commands that tail an
endless stream get a finite one.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro import cli
from repro.campaign import CampaignSpec, ResultStore
from repro.campaign.scheduler import CampaignOutcome
from repro.cli import main
from repro.cluster import ClusterError
from repro.obs import EVENTS, PROFILER
from repro.service import CampaignServer, WorkerSettings
from test_service import SPEC_JSON, _submit

TINY = ["--benchmarks", "j2d5pt", "--gpus", "V100", "--dtypes", "float", "--kinds", "predict"]


@pytest.fixture()
def server(tmp_path):
    with CampaignServer(
        host="127.0.0.1", port=0, store=tmp_path / "cli.sqlite",
        settings=WorkerSettings(workers=1, concurrency=1),
    ) as running:
        yield running


def _interrupting_time(monkeypatch, sleeps_before_interrupt: int = 0) -> list:
    """Give ``cli`` a ``time`` whose sleep raises ctrl-c after some sleeps."""
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        if len(slept) > sleeps_before_interrupt:
            raise KeyboardInterrupt

    fake = types.SimpleNamespace(sleep=sleep, monotonic=time.monotonic)
    monkeypatch.setattr(cli, "time", fake)
    return slept


def _fake_stream(monkeypatch, records, interrupt=False):
    """Make ``repro.obs.top.stream_records`` yield ``records`` and end."""
    seen = []

    def stream_records(url, timeout=30.0):
        seen.append(url)
        yield from records
        if interrupt:
            raise KeyboardInterrupt

    monkeypatch.setattr("repro.obs.top.stream_records", stream_records)
    return seen


# -- verify, campaign run ---------------------------------------------------------------


def test_verify_mismatch_goes_to_stderr_and_exits_1(monkeypatch, capsys):
    result = types.SimpleNamespace(matches=False, max_relative_error=0.5)
    monkeypatch.setattr(cli.api, "verify", lambda *args, **kwargs: result)
    assert main(["verify", "j2d5pt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "MISMATCH: blocked execution vs reference, max relative error 5.000e-01\n"


def test_campaign_run_verbose_reports_each_job_and_each_failure(tmp_path, capsys):
    # star3d4r's default 32x32 block leaves no compute region at bT=4.
    argv = [
        "campaign", "run", "--benchmarks", "j2d5pt,star3d4r", "--kinds", "predict",
        "--store", str(tmp_path / "run.sqlite"), "--verbose", "--shards", "1",
        "--shard-indices", " 0 ,",
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "  [ok] predict j2d5pt" in captured.out
    assert "  [failed] predict star3d4r" in captured.err
    assert "      failed: 1" in captured.out
    assert captured.err.count("error: job failed: ") == 1


def test_broken_stdout_exits_1_quietly(monkeypatch):
    def piped(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_cmd_list", piped)
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["list"]) == 1
    assert stderr.closed


# -- fuzz -----------------------------------------------------------------------------


def test_fuzz_prints_each_stencil_its_checks_and_the_store_coverage(tmp_path, capsys):
    store = str(tmp_path / "fuzz.sqlite")
    assert main(["fuzz", "--seed", "7", "--count", "2", "--store", store, "--verbose"]) == 0
    out = capsys.readouterr().out.splitlines()
    verdicts = [line.split() for line in out if line.startswith("  fuzz-7-")]
    assert [(row[0], row[-3], row[-1]) for row in verdicts] == [
        ("fuzz-7-0", "4", "pass"), ("fuzz-7-1", "4", "pass"),
    ]
    assert out.count("      [ok] frontend_roundtrip") == 2
    assert "  coverage (family x check, from the store's fuzz rows):" in out
    tallies = [line.split()[-2] for line in out if line.startswith("    ") and line.endswith("passed")]
    assert tallies and all(tally.split("/")[0] == tally.split("/")[1] for tally in tallies)
    assert "        executed: 2" in out


def _fuzz_returns(monkeypatch, records, ok=True):
    outcome = CampaignOutcome(
        total=len(records), cached=0, executed=len(records), failed=0 if ok else 1, retried=0,
        duration_s=0.0, failures=[] if ok else ["fuzz-7-1 (V100, float): boom"],
    )
    monkeypatch.setattr(cli.api, "fuzz", lambda **kwargs: (outcome, records))
    monkeypatch.setattr(cli.api, "fuzz_coverage", lambda store: [])


def test_fuzz_names_diverged_and_errored_stencils(monkeypatch, capsys):
    diverged = {
        "pattern": "fuzz-7-0", "dtype": "float", "grid": "64x64", "status": "ok",
        "payload": {"passed": False, "checks": [
            {"check": "frontend_roundtrip", "passed": True, "detail": ""},
            {"check": "blocked_vs_reference", "passed": False, "detail": "max_relative_error=1e-01"},
        ]},
    }
    errored = {
        "pattern": "fuzz-7-1", "dtype": "float", "grid": "64x64", "status": "failed",
        "payload": {"error": "JobTimeout: 1s"},
    }
    _fuzz_returns(monkeypatch, [diverged, errored])
    assert main(["fuzz", "--seed", "7", "--count", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:6] == [
        "  fuzz-7-0       float  64x64      2 checks  DIVERGED",
        "      [ok] frontend_roundtrip",
        "      [FAIL] blocked_vs_reference  (max_relative_error=1e-01)",
        "  fuzz-7-1       float  64x64      0 checks  ERROR",
        "      error: JobTimeout: 1s",
        "           total: 2",
    ]
    assert "   configs_per_s: 0.0" in captured.out.splitlines()  # no time, no rate
    assert captured.err == (
        "error: 2 stencil(s) diverged; reproduce any of them with 'an5d fuzz --show fuzz-7-INDEX'\n"
    )


def test_fuzz_exits_1_when_its_campaign_failed(monkeypatch, capsys):
    _fuzz_returns(monkeypatch, [], ok=False)
    assert main(["fuzz", "--seed", "7", "--count", "2"]) == 1
    assert capsys.readouterr().err == "error: job failed: fuzz-7-1 (V100, float): boom\n"


# -- campaign watch ---------------------------------------------------------------------


def test_campaign_watch_follows_a_live_campaign_to_its_end(server, capsys):
    # Campaign ids are content addresses: subscribe first, then submit, so
    # the stream sees every job.
    cid = CampaignSpec.from_json(SPEC_JSON).short_id()
    argv = ["campaign", "watch", cid, "--url", server.url + "/"]
    subscribers = len(EVENTS._subscribers)
    codes = []
    watcher = threading.Thread(
        target=lambda: codes.append(main([*argv, "--wait", "--timeout", "120"])), daemon=True
    )
    watcher.start()
    deadline = time.monotonic() + 30
    while len(EVENTS._subscribers) == subscribers and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _submit(server, SPEC_JSON)["id"] == cid
    watcher.join(timeout=120)
    assert codes == [0]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"streaming campaign {cid} (state: unknown)"
    assert lines[1] == "  run started: 2 pending of 2 (0 cached)"
    assert sum(line.startswith("  [ok] tune ") for line in lines) == 2
    assert lines[-1].startswith("run finished: ok=True executed=2 cached=0 failed=0 in ")
    # A settled campaign: the stream opens on its final state and ends.
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"streaming campaign {cid} (state: done)")


def test_campaign_watch_reports_failures_and_a_truncated_stream(monkeypatch, capsys):
    records = [
        {"event": "stream_open", "campaign": "c1", "state": "running"},
        {"event": "campaign_run_started", "pending": 2, "total": 3, "cached": 1},
        {"event": "job_finished", "job": "tune j2d5pt", "status": "failed", "elapsed_s": 0.5},
        {"event": "campaign_failed", "error_class": "RuntimeError"},
    ]
    seen = _fake_stream(monkeypatch, records)
    assert main(["campaign", "watch", "c1", "--url", "http://host:1", "--timeout", "5"]) == 1
    captured = capsys.readouterr()
    assert seen == ["http://host:1/campaigns/c1/stream?timeout=5.0"]
    assert captured.out == (
        "streaming campaign c1 (state: running)\n  run started: 2 pending of 3 (1 cached)\n"
    )
    assert captured.err == (
        "  [failed] tune j2d5pt (0.5s)\nerror: campaign failed: RuntimeError\n"
    )
    _fake_stream(monkeypatch, records[:2])
    assert main(["campaign", "watch", "c1", "--url", "http://host:1"]) == 1
    assert capsys.readouterr().err == "error: stream ended before the campaign finished\n"
    _fake_stream(monkeypatch, [{"event": "stream_open", "campaign": "c1", "state": "failed"}])
    assert main(["campaign", "watch", "c1", "--url", "http://host:1"]) == 1


# -- campaign prune, report -------------------------------------------------------------


def test_prune_has_nothing_to_do_for_a_current_store_or_an_absent_version(tmp_path, capsys):
    store = str(tmp_path / "prune.sqlite")
    assert main(["campaign", "run", *TINY, "--store", store]) == 0
    capsys.readouterr()
    assert main(["campaign", "prune", "--store", store, "--stale"]) == 0
    assert capsys.readouterr().out == (
        "nothing to prune: every result is from the current code version\n"
    )
    assert main(["campaign", "prune", "--store", store, "--code-version", "0.0.0-gone"]) == 0
    assert capsys.readouterr().out == "  0.0.0-gone: no results\n"


def test_campaign_report_writes_to_a_file(tmp_path, capsys):
    store = str(tmp_path / "report.sqlite")
    assert main(["campaign", "run", *TINY, "--store", store]) == 0
    capsys.readouterr()
    target = tmp_path / "table5.csv"
    argv = ["campaign", "report", "--store", store, "--report", "summary", "-o", str(target)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 1 rows to {target}\n"
    assert target.read_text().split() == ["kind,status,results", "predict,ok,1"]


def test_campaign_export_to_json_holds_the_jsonl_records(tmp_path, capsys):
    store = str(tmp_path / "export.sqlite")
    assert main(["campaign", "run", *TINY, "--store", store]) == 0
    assert main(["campaign", "export", "--store", store, "-o", str(tmp_path / "out/x.json")]) == 0
    assert main(["campaign", "export", "--store", store, "-o", str(tmp_path / "x.jsonl")]) == 0
    lines = (tmp_path / "x.jsonl").read_text().splitlines()
    assert json.loads((tmp_path / "out/x.json").read_text()) == {
        "results": [json.loads(line) for line in lines]
    }


# -- top --------------------------------------------------------------------------------


def test_top_renders_once_and_then_refreshes_until_interrupted(server, monkeypatch, capsys):
    assert main(["top", "--url", server.url]) == 0
    once = capsys.readouterr().out
    assert once.splitlines()[-1].startswith("cluster: 1 instance(s)  requests=")
    slept = _interrupting_time(monkeypatch, sleeps_before_interrupt=1)
    assert main(["top", "--url", server.url, "--watch", "0.5"]) == 0
    watched = capsys.readouterr().out
    assert slept == [0.5, 0.5]
    assert watched.count("\033[2J\033[H") == 1 and watched.count("cluster: 1 instance(s)") == 2


def test_top_follow_renders_each_pushed_event(server, monkeypatch, capsys):
    records = [
        {"event": "campaign_run_started", "campaign": "c1", "pending": 2, "total": 2, "cached": 0},
        {"event": "job_finished", "job": "tune j2d5pt", "status": "ok", "elapsed_s": 0.25},
        {"event": "campaign_run_finished", "campaign": "c1"},
    ]
    seen = _fake_stream(monkeypatch, records, interrupt=True)
    assert main(["top", "--url", server.url, "--follow"]) == 0
    lines = capsys.readouterr().out.splitlines()
    kinds = "job_finished,campaign_run_started,campaign_run_finished,campaign_failed"
    assert seen == [f"{server.url}/events/stream?event={kinds}"]
    assert f"following {seen[0]} (ctrl-c to stop)" in lines
    assert "  campaign c1: 2 pending of 2 (0 cached)" in lines
    assert "  [ok] tune j2d5pt (0.25s)" in lines
    assert "  campaign_run_finished: c1" in lines
    assert sum(line.startswith("cluster: 1 instance(s)") for line in lines) == 2  # and a refresh


def test_top_history_reads_a_store_or_a_live_server(server, tmp_path, capsys):
    store_path = tmp_path / "history.sqlite"
    with ResultStore(store_path) as store:
        for now, jobs in ((100.0, 1.0), (200.0, 3.0)):
            store.record_telemetry("w1", {"jobs_total": jobs}, now=now)
    assert main(["top", "--history", "--store", str(store_path)]) == 0
    offline = capsys.readouterr().out
    assert offline.startswith("telemetry history: 2 snapshot(s)")
    server.app.record_telemetry_snapshot()
    assert main(["top", "--history", "--url", server.url, "--limit", "5"]) == 0
    assert capsys.readouterr().out.startswith("telemetry history: 1 snapshot(s)")


# -- profile ----------------------------------------------------------------------------


def test_profile_samples_a_server_or_this_process(server, tmp_path, capsys):
    target = tmp_path / "server.folded"
    assert main(["profile", "--url", server.url, "--seconds", "0.2", "-o", str(target)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f" samples over 0.2s -> {target}\n") and out.split()[0].isdigit()
    assert main(["profile", "--url", "", "--seconds", "0.2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("# ") and captured.err.endswith(" samples over 0.2s\n")
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in captured.out.splitlines())


# -- serve ------------------------------------------------------------------------------


@pytest.fixture()
def served(monkeypatch, tmp_path):
    """``CampaignServer.run`` records the server and returns at once."""
    monkeypatch.chdir(tmp_path)
    servers = []
    monkeypatch.setattr(CampaignServer, "run", lambda self: servers.append(self))
    yield servers
    EVENTS.configure(None)
    PROFILER.disarm()


def test_serve_configures_the_event_log_and_profiler_and_joins_a_cluster(served, tmp_path, capsys):
    log = tmp_path / "logs" / "events.jsonl"
    argv = [
        "serve", "--port", "0", "--store", "serve.sqlite", "--event-log", str(log),
        "--profile", "--cluster", "--instance-id", "w9",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert EVENTS.path == log and PROFILER._armed
    assert out[0] == f"an5d campaign service on {served[0].url} (store: serve.sqlite)"
    assert out[1] == "cluster member w9 (role: worker)"
    assert main(["cluster", "coordinator", "--port", "0", "--store", "serve.sqlite"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("cluster member ") and out[1].endswith(" (role: coordinator)")
    assert out[-1] == "cluster:   POST /cluster/campaigns  GET /cluster/status|/cluster/instances"


def test_serve_as_a_wire_worker_journals_locally(served, server, tmp_path, capsys):
    assert main(["serve", "--port", "0", "--coordinator-url", server.url]) == 0
    out = capsys.readouterr().out.splitlines()
    store = served[0].app.store
    assert store.journal == Path(f"an5d-worker-{os.getpid()}.journal.jsonl")
    assert out[0] == f"an5d campaign service on {served[0].url} (store: wire:{server.url})"
    assert out[1].startswith("cluster member ") and out[1].endswith(" (role: worker)")
    argv = ["serve", "--port", "0", "--role", "coordinator", "--coordinator-url", server.url]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --coordinator-url is a worker-only mode (coordinators need direct store access)\n"
    )


# -- cluster ----------------------------------------------------------------------------


def test_cluster_up_prints_its_members_and_stops_on_ctrl_c(tmp_path, monkeypatch, capsys):
    from repro.cluster.remote import RemoteStore

    _interrupting_time(monkeypatch)
    closed = []
    real_close = RemoteStore.close

    def close(self):
        real_close(self)
        closed.append((self.journal, self.pending_count()))

    monkeypatch.setattr(RemoteStore, "close", close)
    argv = [
        "cluster", "up", "--store", str(tmp_path / "up.sqlite"), "--instances", "1",
        "--standbys", "1", "--wire-workers",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("an5d cluster on http://127.0.0.1:")
    assert lines[1].startswith("  standby w-standby1 on http://127.0.0.1:")
    assert lines[2].startswith("  wire worker w1 on http://127.0.0.1:")
    assert lines[3].startswith("submit: an5d cluster submit --url ")
    # The wire worker journals next to the store and stops with nothing pending.
    assert closed == [(tmp_path / "w1.journal.jsonl", 0)]


def test_cluster_submit_and_status_against_a_live_cluster(tmp_path, monkeypatch, capsys):
    from repro.cluster import LocalCluster

    matrix = [
        "--benchmarks", "j2d5pt,star3d1r", "--gpus", "V100", "--kinds", "predict",
    ]
    with LocalCluster(store=tmp_path / "cluster.sqlite", instances=2) as cluster:
        assert main(["cluster", "status", "--url", cluster.url]) == 0
        status = capsys.readouterr().out.splitlines()
        assert status[0].split() == ["instance", "role", "live", "age_s", "url"]
        assert status[-1] == "no submissions"
        assert main(["cluster", "submit", "--url", cluster.url, *matrix, "--wait"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("submitted ")
        assert lines[-1].startswith("  final: done  done: 2/2  failed: 0  pending: 0")
        assert main(["cluster", "status", "--url", cluster.url + "/"]) == 0
        status = capsys.readouterr().out.splitlines()
        assert any(line.startswith("submission ") and ": done (2/2 done" in line for line in status)
        assert sum(" shards " in line for line in status) == 2
        # Without --wait the command returns once the coordinator accepts.
        assert main(["cluster", "submit", "--url", cluster.url, *matrix, "--time-steps", "7"]) == 0
        # A deadline that passes before the campaign settles exits 1.
        argv = [*matrix, "--time-steps", "9", "--wait", "--poll-timeout", "0"]
        assert main(["cluster", "submit", "--url", cluster.url, *argv]) == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("  final: ")
        # Status read straight from the store, no server.
        assert main(["cluster", "status", "--store", str(tmp_path / "cluster.sqlite")]) == 0
        assert "submission " in capsys.readouterr().out

        def unreachable(self, base, sid):
            raise ClusterError("coordinator went away")

        monkeypatch.setattr("repro.cluster.ClusterClient.submission_status", unreachable)
        argv = [*matrix, "--time-steps", "11", "--wait"]
        assert main(["cluster", "submit", "--url", cluster.url, *argv]) == 2
        assert capsys.readouterr().err == "error: coordinator went away\n"


def test_cluster_commands_report_an_unreachable_coordinator(monkeypatch, capsys):
    def refused(self, *args, **kwargs):
        raise ClusterError("connection refused")

    monkeypatch.setattr("repro.cluster.ClusterClient.cluster_status", refused)
    monkeypatch.setattr("repro.cluster.ClusterClient.submit", refused)
    assert main(["cluster", "status", "--url", "http://127.0.0.1:9"]) == 2
    assert capsys.readouterr().err == "error: connection refused\n"
    assert main(["cluster", "submit", "--url", "http://127.0.0.1:9", *TINY]) == 2
    assert capsys.readouterr().err == "error: connection refused\n"
