"""Workload ``service-mixed``: a mixed closed-loop load on ``an5d serve``.

Why: on most requests the time goes to transport, decode, encode and
hot-cache hits, while misses run the batch model; campaigns write to the
store and run in the same server process as the reads, so a gain for reads
that costs writes (or the reverse) shows.

The server runs in its own process.  This process is the one client: at
most ``nproc`` threads, each driving one keep-alive connection in a closed
loop (the next request leaves when the previous answer arrived).  The mix:

* ``POST /predict`` with a configuration drawn from the key's pruned space;
* ``POST /tune`` with a drawn ``top_k``;
* ``GET /campaigns/{id}/report`` of a finished campaign;
* a small ``POST /campaigns`` with a fresh ``time_steps`` (so it writes new
  store records), waited on through ``GET /campaigns/{id}/stream``.

Key popularity is Zipf-skewed over all 84 (stencil, GPU, dtype) keys in a
seeded order; that working set exceeds the hot cache's 32 resident entries,
so hits and rebuilds both occur.  A warm-up phase fills the caches before
the measured window.  A seeded sample of ``/predict`` answers is compared
with the scalar oracle (``api.predict`` + ``api.simulate``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from harness import (
    ROOT,
    WORK,
    Report,
    Tracer,
    add_layer_self_times,
    add_overhead,
    peak_rss_mb,
    python_speed,
)

#: The second operation is ``/tune``; its tail is the p90 because the p95
#: did not repeat within a tenth across seeds.  The third is a campaign,
#: from submit until its stream reports it done (the store writes).
E2E_NAMES = {
    "op_ms_p50": "predict_ms_p50",
    "op_ms_tail": "predict_ms_p90",
    "ops_per_s": "requests_per_s",
    "op2_ms_p50": "tune_req_ms_p50",
    "op2_ms_tail": "tune_req_ms_p90",
    "op3_ms_p50": "campaign_ms_p50",
}

#: Never more client threads (one connection each) than processors.
CLIENTS = max(1, min(2, os.cpu_count() or 1))

# The traffic is an assumption: no recorded request log exists to draw it
# from.  It keeps the shape the workload asks for (mostly ``/predict``, some
# ``/tune``, reports read and campaigns written alongside) and is sized so
# every class gets enough samples per run for its percentiles: at 400
# operations per requested second, 2% campaigns is about 200 store-writing
# campaigns per 25 s, and 8% tunes about 800 requests, enough for a p90.
# Zipf with s = 1.0 over the 84 keys puts about 80% of the draws on the 32
# most popular keys, as many as the hot cache holds, so hits dominate while
# about a quarter of /predict requests (measured hot-cache hit ratio
# 0.72-0.75) still rebuild an entry.

#: Operation mix, as cumulative thresholds on a uniform draw.
MIX = (("predict", 0.84), ("tune", 0.92), ("report", 0.98), ("campaign", 1.0))
ZIPF_S = 1.0
#: Fixed shuffle of the 84 keys that sets their popularity ranks, so that
#: 2-D and 3-D stencils are both among the hot and the cold keys; any fixed
#: value would do.
POPULARITY_ORDER = 5
TUNE_TOP_K = (1, 8)
#: The window is a fixed number of operations per requested second, not a
#: deadline: the hot caches keep filling during the window, so with a
#: deadline a faster host served a warmer cache and every figure moved with
#: host speed.  With a count, the state each request meets depends on the
#: seed alone.
OPS_PER_SECOND = 400
WARMUP_OPS = 2000
#: Operations per slice of the window; the host speed is measured between
#: slices.  It changes within a fraction of a second, so slices are short
#: (about 0.15 s).
SLICE_OPS = 100
SERVER_BOOTS = 5
ORACLE_SAMPLES = 40
#: Traced requests whose server-side spans are fetched (the server keeps
#: only its most recent 256 traces).
SERVER_TRACE_SAMPLES = 200
TIMEOUT_S = 60.0

GPUS = ("V100", "P100")
DTYPES = ("float", "double")

#: Server span name -> the layer its time belongs to: the hot-cache work
#: under ``/predict`` is the batch model's, under ``/tune`` the tuner's.
#: Handler time outside these spans is the service layer's.
SERVER_LAYERS = {"predict.sync": "model", "tune.sync": "tuning"}


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """``an5d serve`` in a child process on an ephemeral port."""

    def __init__(self, store: str, env: Dict[str, str]) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.log = open(WORK / "server.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                "--port", "0", "--store", store, "--workers", "1", "--concurrency", "1",
            ],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace").split()
            url = next((word for word in line if word.startswith("http://")), None)
            if url is None:
                raise RuntimeError("server did not report its address; see .bench_work/server.log")
            host, port = url.removeprefix("http://").split(":")
            self.host, self.port = host, int(port)
            connection = connect(self.host, self.port)
            try:
                status, _ = request(connection, "GET", "/healthz")
            finally:
                connection.close()
            if status != 200:
                raise RuntimeError(f"server health check answered {status}")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()
        self.log.close()


def connect(host: str, port: int) -> http.client.HTTPConnection:
    connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def request(connection, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, bytes]:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    connection.request(method, path, body=data)
    response = connection.getresponse()
    return response.status, response.read()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything the load draws from, generated from the seed alone."""

    keys: List[Tuple[str, str, str]]
    weights: List[float]
    configs: Dict[Tuple[str, str, str], List[dict]]
    time_steps_base: int


def make_inputs(seed: int) -> Inputs:
    """Key popularity, each key's pruned configuration space, and the
    seeded ``time_steps`` base of the campaigns.

    The popularity ranking is fixed (:data:`POPULARITY_ORDER`): when the
    seed picked which keys are hot, the hit ratio, and with it every
    latency, moved with the seed rather than with the code.  The seed draws
    the request streams themselves (:func:`client_rng`).
    """
    from repro.model.batch import ConfigBatch, prune_mask
    from repro.model.gpu_specs import get_gpu
    from repro.stencils.library import BENCHMARKS, load_pattern
    from repro.tuning.search_space import default_search_space

    rng = random.Random(seed)
    keys = [(name, gpu, dtype) for name in BENCHMARKS for gpu in GPUS for dtype in DTYPES]
    random.Random(POPULARITY_ORDER).shuffle(keys)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    configs = {}
    patterns = {}
    for name, gpu, dtype in keys:
        pattern = patterns.get((name, dtype))
        if pattern is None:
            pattern = patterns[(name, dtype)] = load_pattern(name, dtype)
        batch = ConfigBatch.from_space(default_search_space(pattern))
        survivors = batch.select(prune_mask(pattern, batch, get_gpu(gpu)))
        configs[(name, gpu, dtype)] = [
            config_fields(survivors.config(i)) for i in range(survivors.size)
        ]
    return Inputs(keys, weights, configs, 1000 + rng.randrange(10**6) * 100)


def config_fields(config) -> dict:
    fields = {"bT": config.bT, "bS": list(config.bS)}
    if config.hS is not None:
        fields["hS"] = config.hS
    if config.register_limit is not None:
        fields["regs"] = config.register_limit
    return fields


# ---------------------------------------------------------------------------
# Closed-loop clients
# ---------------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    ms: float
    ok: bool
    requests: int = 1
    cached: Optional[bool] = None
    trace_id: Optional[str] = None
    problem: str = ""
    #: Host speed while the operation ran (see harness.python_speed).
    speed: float = 1.0


@dataclass
class Shared:
    """State the client threads share (guarded by ``lock``)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    campaigns: List[str] = field(default_factory=list)
    next_campaign: int = 0
    predictions: List[Tuple[dict, dict]] = field(default_factory=list)
    open_connections: int = 0
    max_open_connections: int = 0


def client_rng(seed: int, index: int) -> random.Random:
    """The draws (operation, key, configuration, ``top_k``) of one client."""
    return random.Random(f"{seed}:{index}")


class Client:
    """One closed-loop client: one thread, one keep-alive connection."""

    def __init__(self, index: int, server: Server, inputs: Inputs, shared: Shared, seed: int, tracer: Tracer) -> None:
        self.rng = client_rng(seed, index)
        self.server, self.inputs, self.shared, self.tracer = server, inputs, shared, tracer
        self.connection: Optional[http.client.HTTPConnection] = None
        self.ops: List[Op] = []

    # -- connection lifecycle ----------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self.connection is None:
            self.connection = connect(self.server.host, self.server.port)
            with self.shared.lock:
                self.shared.open_connections += 1
                self.shared.max_open_connections = max(
                    self.shared.max_open_connections, self.shared.open_connections
                )
        return self.connection

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
            with self.shared.lock:
                self.shared.open_connections -= 1

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, bytes]:
        try:
            return request(self._connection(), method, path, body)
        except (OSError, http.client.HTTPException):
            self.close()  # the operation fails; the next one reconnects
            raise

    # -- the loop ----------------------------------------------------------
    def run_ops(self, count: int) -> None:
        for _ in range(count):
            draw = self.rng.random()
            kind = next(name for name, edge in MIX if draw < edge)
            began = time.perf_counter()
            try:
                with self.tracer.span(f"service.{kind}") as context:
                    op = getattr(self, kind)(context)
            except Exception as error:  # counted as failed, never retried
                op = Op(kind, 0.0, False, problem=f"{type(error).__name__}: {error}")
            op.ms = 1000.0 * (time.perf_counter() - began)
            self.ops.append(op)

    def _key(self) -> Tuple[str, str, str]:
        return self.rng.choices(self.inputs.keys, weights=self.inputs.weights)[0]

    @staticmethod
    def _envelope(body: dict, context) -> dict:
        if context is not None:
            body["trace"] = {"trace_id": context.trace_id, "span_id": context.span_id}
        return body

    def predict(self, context) -> Op:
        name, gpu, dtype = key = self._key()
        fields = dict(self.rng.choice(self.inputs.configs[key]))
        body = {"pattern": name, "gpu": gpu, "dtype": dtype, **fields}
        status, raw = self.call("POST", "/predict", self._envelope(dict(body), context))
        if status != 200:
            return Op("predict", 0.0, False, problem=f"/predict answered {status}")
        answer = json.loads(raw)
        with self.shared.lock:
            self.shared.predictions.append((body, answer["result"]))
        return Op("predict", 0.0, True, cached=bool(answer["cached"]), trace_id=answer["trace_id"])

    def tune(self, context) -> Op:
        name, gpu, dtype = self._key()
        body = {"pattern": name, "gpu": gpu, "dtype": dtype, "top_k": self.rng.randint(*TUNE_TOP_K)}
        status, raw = self.call("POST", "/tune", self._envelope(body, context))
        if status != 200:
            return Op("tune", 0.0, False, problem=f"/tune answered {status}")
        answer = json.loads(raw)
        return Op("tune", 0.0, True, cached=bool(answer["cached"]), trace_id=answer["trace_id"])

    def report(self, context) -> Op:
        with self.shared.lock:
            campaign = self.rng.choice(self.shared.campaigns) if self.shared.campaigns else None
        if campaign is None:
            return self.campaign(context)
        status, _ = self.call("GET", f"/campaigns/{campaign}/report?kind=table5")
        return Op("report", 0.0, status == 200, problem="" if status == 200 else f"report answered {status}")

    def campaign(self, context) -> Op:
        name, gpu, dtype = self._key()
        with self.shared.lock:
            steps = self.inputs.time_steps_base + self.shared.next_campaign
            self.shared.next_campaign += 1
        # Tune jobs only: a predict job runs the default blocking, which
        # leaves no compute region for the radius-4 3-D stencils and fails.
        spec = {
            "benchmarks": [name], "gpus": [gpu], "dtypes": [dtype],
            "kinds": ["tune"], "time_steps": steps,
            "interior_2d": [256, 256], "interior_3d": [32, 32, 32], "top_k": 2,
        }
        status, raw = self.call("POST", "/campaigns", self._envelope(spec, context))
        if status != 202:
            return Op("campaign", 0.0, False, problem=f"/campaigns answered {status}")
        cid = json.loads(raw)["id"]
        status, raw = self.call("GET", f"/campaigns/{cid}/stream?timeout={TIMEOUT_S:g}")
        state = _stream_outcome(raw) if status == 200 else f"stream answered {status}"
        if state != "done":
            return Op("campaign", 0.0, False, requests=2, problem=f"campaign {cid}: {state}")
        with self.shared.lock:
            self.shared.campaigns.append(cid)
        return Op("campaign", 0.0, True, requests=2)


def _stream_outcome(raw: bytes) -> str:
    """``done``/``failed`` from a campaign stream, else what went wrong."""
    for line in raw.decode("utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        event = record.get("event")
        if event == "campaign_run_finished":
            return "done" if record.get("ok") else f"finished with {record.get('failed')} failed job(s)"
        if event == "campaign_failed":
            return "failed"
        if event == "stream_open" and record.get("state") in ("done", "failed"):
            return str(record["state"])
    return "stream ended before the campaign finished"


def run_clients(clients: Sequence[Client], ops: int) -> Tuple[float, float]:
    """Share ``ops`` operations among the clients and run them concurrently;
    returns when the window opened and how long it lasted."""
    start = time.perf_counter()
    threads = [
        threading.Thread(target=client.run_ops, args=(ops // len(clients),)) for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=2 * TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    return start, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Server-side metrics
# ---------------------------------------------------------------------------


def scrape(client: Client):
    from repro.obs.metrics import parse_prometheus

    status, raw = client.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_prometheus(raw.decode("utf-8"))


def delta(before, after):
    """Per-series difference of two scrapes (counters and histogram parts)."""
    out = {}
    for name, series in after.items():
        previous = {tuple(sorted(labels.items())): value for labels, value in before.get(name, [])}
        out[name] = [
            (labels, value - previous.get(tuple(sorted(labels.items())), 0.0))
            for labels, value in series
        ]
    return out


def total(samples, name: str, **match: str) -> float:
    return sum(
        value for labels, value in samples.get(name, [])
        if all(labels.get(k) == v for k, v in match.items())
    )


def mean_ms(samples, name: str) -> float:
    count = total(samples, f"{name}_count")
    return 1000.0 * total(samples, f"{name}_sum") / count if count else 0.0


ROUTES = {
    "predict": "predict_endpoint",
    "tune": "tune_endpoint",
    "report": "campaign_report",
    "submit": "submit_campaign",
}


def add_server_metrics(report: Report, samples, client_predict_ms: Sequence[float]) -> None:
    from repro.obs.metrics import scrape_quantile

    for short, route in ROUTES.items():
        count = int(total(samples, "request_seconds_count", route=route))
        if not count:
            continue
        for q in (0.50, 0.99):
            value = 1000.0 * scrape_quantile(samples, "request_seconds", q, match={"route": route})
            report.add(f"service.{short}.server_ms_p{round(q * 100)}", value, "ms", count)
    if client_predict_ms and "service.predict.server_ms_p50" in report.metrics:
        report.add(
            "service.transport_ms_p50",
            statistics.median(client_predict_ms) - report.metrics["service.predict.server_ms_p50"].value,
            "ms",
            len(client_predict_ms),
        )
    hits = total(samples, "cache_hits_total", cache="hot_predict")
    misses = total(samples, "cache_misses_total", cache="hot_predict")
    if hits + misses:
        report.add("hotcache.hit_ratio", hits / (hits + misses), "ratio", int(hits + misses))
    report.add("hotcache.evictions", total(samples, "cache_evictions_total", cache="hot_batch"), "count")
    report.add("campaign.queue_wait_ms", mean_ms(samples, "campaign_queue_wait_seconds"), "ms",
               int(total(samples, "campaign_queue_wait_seconds_count")))
    report.add("campaign.job_ms", mean_ms(samples, "job_execution_seconds"), "ms",
               int(total(samples, "job_execution_seconds_count")))
    report.add("store.commit_ms", mean_ms(samples, "store_commit_seconds"), "ms",
               int(total(samples, "store_commit_seconds_count")))
    report.add("obs.errors_swallowed", total(samples, "errors_swallowed_total"), "count")


# ---------------------------------------------------------------------------
# Correctness: /predict answers against the scalar oracle
# ---------------------------------------------------------------------------


def oracle_mismatches(predictions: Sequence[Tuple[dict, dict]], seed: int, samples: int) -> List[str]:
    from repro import api
    from repro.core.config import BlockingConfig

    rng = random.Random(seed ^ 0x0AC1E)
    unique = {json.dumps(body, sort_keys=True): (body, result) for body, result in predictions}
    chosen = rng.sample(sorted(unique), min(samples, len(unique)))
    problems = []
    for key in chosen:
        body, result = unique[key]
        config = BlockingConfig(
            bT=body["bT"], bS=tuple(body["bS"]), hS=body.get("hS"), register_limit=body.get("regs")
        )
        args = (body["pattern"], config, body["gpu"], body["dtype"])
        predicted, simulated = api.predict(*args), api.simulate(*args)
        want = {
            "bT": config.bT, "bS": list(config.bS), "hS": config.hS, "regs": config.register_limit,
            "model_gflops": round(predicted.gflops, 10),
            "simulated_gflops": round(simulated.gflops, 10),
            "model_bottleneck": predicted.bottleneck,
            "simulated_bottleneck": simulated.bottleneck,
        }
        if result != want:
            problems.append(f"/predict {key}: {result} != oracle {want}")
    return problems


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, env: Dict[str, str], short: bool = False) -> Report:
    report = Report()
    store = WORK / f"service-{seed}.sqlite"
    # Boot on an empty store several times; the last server takes the load.
    # Each boot is scaled to reference host speed, measured right before and
    # after it (see harness.python_speed).
    boots: List[float] = []
    raw_boots: List[float] = []
    server: Optional[Server] = None
    for boot in range(1 if short else SERVER_BOOTS):
        if server is not None:
            server.stop()
        for path in (store, store.with_name(store.name + "-wal"), store.with_name(store.name + "-shm")):
            path.unlink(missing_ok=True)
        speed_before = python_speed()
        server = Server(str(store), env)
        raw_boots.append(server.boot_s)
        boots.append(server.boot_s * (speed_before + python_speed()) / 2.0)
    report.add("setup_s", statistics.median(boots), "s", len(boots))
    report.add("setup_s_raw", statistics.median(raw_boots), "s", len(raw_boots))

    clients: List[Client] = []
    try:
        started = time.perf_counter()
        inputs = make_inputs(seed)
        report.add("setup.client_inputs_s", time.perf_counter() - started, "s")
        shared = Shared()
        tracer = Tracer()
        clients = [Client(index, server, inputs, shared, seed, tracer) for index in range(CLIENTS)]
        run_clients(clients, 200 if short else WARMUP_OPS)
        warm_ops = [op for client in clients for op in client.ops]
        for client in clients:
            client.ops = []

        before = scrape(clients[0])
        phases = 2 if trace else 1
        window_ops = (600 if short else int(seconds * OPS_PER_SECOND)) // phases
        # Each phase runs as slices with the clients idle in between, where
        # the host speed is measured (see harness.python_speed).
        phase_ops: List[List[Op]] = []
        phase_rates: List[List[float]] = []
        speed_after = python_speed()
        for phase in range(phases):
            tracer.enabled = trace and phase % 2 == 1
            phase_ops.append([])
            phase_rates.append([])
            for _ in range(max(1, window_ops // SLICE_OPS)):
                speed_before = speed_after
                _, duration = run_clients(clients, SLICE_OPS)
                speed_after = python_speed()
                speed = (speed_before + speed_after) / 2.0
                chunk = [op for client in clients for op in client.ops]
                for op in chunk:
                    op.speed = speed
                for client in clients:
                    client.ops = []
                phase_ops[-1].extend(chunk)
                phase_rates[-1].append(sum(op.requests for op in chunk) / duration / speed)
        tracer.enabled = False
        after = scrape(clients[0])

        ops = [op for chunk in phase_ops for op in chunk]
        for op in warm_ops + ops:
            report.attempted += 1
            if not op.ok:
                report.fail(f"{op.kind}: {op.problem}")
        for problem in oracle_mismatches(shared.predictions, seed, 5 if short else ORACLE_SAMPLES):
            report.fail(problem)

        untraced = phase_ops[0]
        _add_client_metrics(report, untraced, phase_rates[0])
        add_server_metrics(report, delta(before, after), _ms(untraced, "predict", scaled=False))
        report.add("client.threads", len(clients), "count")
        report.add("client.max_connections", shared.max_open_connections, "count")
        if trace:
            traced = phase_ops[1]
            traces = _server_traces(clients[0], tracer, traced)
            add_layer_self_times(report, traces, len(traces))
            add_overhead(report, {"predict": _ms(untraced, "predict")}, {"predict": _ms(traced, "predict")})
            tracer.dump(WORK / f"spans-service-mixed-{seed}.jsonl")
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()
    report.add("peak_rss_mb", peak_rss_mb(children=True), "MB")
    return report


def _ms(ops: Sequence[Op], kind: str, cached: Optional[bool] = None, scaled: bool = True) -> List[float]:
    """Latencies of the successful ``kind`` operations, at reference host
    speed unless ``scaled`` is false."""
    return [
        op.ms * (op.speed if scaled else 1.0) for op in ops
        if op.kind == kind and op.ok and (cached is None or op.cached is cached)
    ]


def _add_client_metrics(report: Report, ops: Sequence[Op], rates: Sequence[float]) -> None:
    report.add_latency("predict_ms", _ms(ops, "predict"), (0.90, 0.99))
    report.add("predict_ms_p50_raw", statistics.median(_ms(ops, "predict", scaled=False)), "ms",
               len(_ms(ops, "predict")))
    # Hot-cache hits alone, unscaled, to set beside the server's own figures.
    report.add_latency("predict_hit_ms_raw", _ms(ops, "predict", cached=True, scaled=False), (0.99,))
    # Median over the slices of the window of each slice's request rate.
    report.add("requests_per_s", statistics.median(rates), "1/s", len(rates))
    report.add_latency("tune_req_ms", _ms(ops, "tune"), (0.90, 0.95))
    report.add_latency("report.ms", _ms(ops, "report"))
    report.add_latency("hotcache.miss_ms", _ms(ops, "predict", cached=False))
    report.add_latency("campaign_ms", _ms(ops, "campaign"))


def _server_traces(client: Client, tracer: Tracer, traced_ops: Sequence[Op]) -> List[List[dict]]:
    """Client spans joined with the server's own spans (``GET /trace/{id}``)
    for the most recent traced requests; server spans are renamed into the
    layer their time belongs to."""
    recent = [op.trace_id for op in traced_ops if op.trace_id][-SERVER_TRACE_SAMPLES:]
    joined = []
    for trace_id in recent:
        status, raw = client.call("GET", f"/trace/{trace_id}")
        client_spans = tracer.store.spans(trace_id)
        if status != 200 or not client_spans:
            continue  # evicted from the server's bounded span store
        for record in json.loads(raw)["spans"]:
            name = str(record["name"])
            record["name"] = f"{SERVER_LAYERS.get(name, 'service')}.server.{name}"
            client_spans.append(record)
        joined.append(client_spans)
    return joined
