"""``an5d top`` — cluster-wide throughput/queue/latency view from ``/metrics``.

One-shot or ``--watch``: discover the live instances from any member's
``GET /cluster/instances`` (falling back to the given URL for a solo
server), scrape each instance's ``GET /metrics``, and render one row per
instance — request totals and p99 latency, per-kind job throughput, queue
depths (in-flight requests, wire journal) and the coordinator's shard
re-assignment counter.  In watch mode, rates are computed from the deltas
between two consecutive scrapes.

Stdlib only (urllib); the parsing/quantile machinery is shared with the
registry in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import parse_prometheus, scrape_quantile

Samples = Dict[str, List[Tuple[Dict[str, str], float]]]

#: Seconds one ``/metrics`` or ``/cluster/instances`` read may take.
SCRAPE_TIMEOUT_S = 5.0


def _fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=SCRAPE_TIMEOUT_S) as response:
        return response.read()


def discover_instances(url: str) -> List[Dict[str, object]]:
    """Live instances reachable from ``url`` (itself, for a solo server)."""
    base = url.rstrip("/")
    try:
        payload = json.loads(_fetch(base + "/cluster/instances"))
        instances = [
            {
                "id": str(row.get("instance_id", "?")),
                "role": str(row.get("role", "?")),
                "url": str(row.get("url", "")),
                "live": bool(row.get("live", False)),
            }
            for row in payload.get("instances", [])
        ]
        if instances:
            return instances
    except (urllib.error.URLError, OSError, ValueError, KeyError):
        pass  # not a cluster member (409/404) or unreachable: solo fallback
    return [{"id": base, "role": "solo", "url": base, "live": True}]


def scrape(url: str) -> Optional[Samples]:
    """One instance's parsed ``/metrics`` (None when unreachable)."""
    try:
        body = _fetch(url.rstrip("/") + "/metrics")
        return parse_prometheus(body.decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return None


def stream_records(url: str, timeout: float = 30.0):
    """Yield decoded records from a long-lived chunked JSONL stream.

    ``urllib`` undoes the chunked framing; blank keep-alive lines are
    skipped (they also keep the socket-inactivity ``timeout`` from firing
    on an idle stream).  The generator ends when the server closes the
    stream; closing the generator closes the connection.
    """
    with urllib.request.urlopen(url, timeout=timeout) as response:
        for raw in response:
            line = raw.strip()
            if not line:
                continue
            yield json.loads(line.decode("utf-8"))


def _series_total(samples: Samples, name: str, **match: str) -> float:
    total = 0.0
    for labels, value in samples.get(name, []):
        if any(labels.get(key) != expected for key, expected in match.items()):
            continue
        total += value
    return total


def instance_row(
    instance: Dict[str, object], samples: Optional[Samples]
) -> Dict[str, object]:
    """The numbers one ``top`` row shows for one instance."""
    row: Dict[str, object] = {
        "id": instance["id"],
        "role": instance["role"],
        "live": instance["live"],
        "reachable": samples is not None,
    }
    if samples is None:
        return row
    row.update(
        {
            "requests": _series_total(samples, "requests_total"),
            "req_p99_ms": scrape_quantile(samples, "request_seconds", 0.99) * 1000.0,
            "in_flight": _series_total(samples, "requests_in_flight"),
            "jobs_ok": _series_total(samples, "jobs_completed_total", status="ok"),
            "jobs_failed": _series_total(samples, "jobs_completed_total", status="failed"),
            "job_p99_ms": scrape_quantile(samples, "job_execution_seconds", 0.99) * 1000.0,
            "journal": _series_total(samples, "journal_pending"),
            "reassigned": _series_total(samples, "cluster_reassign_total"),
            "swallowed": _series_total(samples, "errors_swallowed_total"),
            "cache_hits": _series_total(samples, "cache_hits_total"),
            "cache_misses": _series_total(samples, "cache_misses_total"),
        }
    )
    return row


def cache_ratio(row: Dict[str, object]) -> Optional[float]:
    """Hit fraction across all this instance's caches (None = no traffic)."""
    hits = float(row.get("cache_hits", 0.0))
    misses = float(row.get("cache_misses", 0.0))
    total = hits + misses
    if total <= 0:
        return None
    return hits / total


def collect(url: str) -> List[Dict[str, object]]:
    """Scrape every live instance reachable from ``url`` into top rows."""
    rows = []
    for instance in discover_instances(url):
        samples = scrape(str(instance["url"])) if instance["live"] else None
        rows.append(instance_row(instance, samples))
    return rows


def _fmt(value: float, width: int, decimals: int = 0) -> str:
    return f"{value:>{width}.{decimals}f}"


def render(
    rows: List[Dict[str, object]],
    previous: Optional[List[Dict[str, object]]] = None,
    interval_s: float = 0.0,
) -> str:
    """Render top rows as a fixed-width table (plus a cluster totals line).

    With a ``previous`` sample and the interval between the two, the
    ``req/s`` and ``jobs/s`` columns show real rates; one-shot mode leaves
    them at 0 (totals are still shown).
    """
    before = {row["id"]: row for row in (previous or [])}

    def rate(row: Dict[str, object], field: str) -> float:
        if interval_s <= 0 or row["id"] not in before:
            return 0.0
        delta = float(row.get(field, 0.0)) - float(before[row["id"]].get(field, 0.0))
        return max(0.0, delta) / interval_s

    header = (
        f"{'INSTANCE':<18} {'ROLE':<12} {'LIVE':<5} "
        f"{'REQS':>8} {'REQ/S':>7} {'P99MS':>8} {'INFLT':>6} "
        f"{'JOBS✓':>8} {'JOBS✗':>6} {'JOB/S':>7} {'JRNL':>6} {'REASG':>6} {'SWLW':>5} "
        f"{'CACHE':>6}"
    )
    lines = [header, "-" * len(header)]
    totals = {"requests": 0.0, "jobs_ok": 0.0, "jobs_failed": 0.0, "reassigned": 0.0}
    for row in rows:
        if not row.get("reachable"):
            lines.append(
                f"{str(row['id'])[:18]:<18} {str(row['role'])[:12]:<12} "
                f"{'yes' if row['live'] else 'no':<5} {'(unreachable)':>8}"
            )
            continue
        for key in totals:
            totals[key] += float(row.get(key, 0.0))
        ratio = cache_ratio(row)
        cache_cell = "-" if ratio is None else f"{ratio * 100.0:.0f}%"
        lines.append(
            f"{str(row['id'])[:18]:<18} {str(row['role'])[:12]:<12} "
            f"{'yes' if row['live'] else 'no':<5} "
            f"{_fmt(row['requests'], 8)} {_fmt(rate(row, 'requests'), 7, 1)} "
            f"{_fmt(row['req_p99_ms'], 8, 2)} {_fmt(row['in_flight'], 6)} "
            f"{_fmt(row['jobs_ok'], 8)} {_fmt(row['jobs_failed'], 6)} "
            f"{_fmt(rate(row, 'jobs_ok'), 7, 1)} {_fmt(row['journal'], 6)} "
            f"{_fmt(row['reassigned'], 6)} {_fmt(row['swallowed'], 5)} "
            f"{cache_cell:>6}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"cluster: {len(rows)} instance(s)  requests={totals['requests']:.0f}  "
        f"jobs_ok={totals['jobs_ok']:.0f}  jobs_failed={totals['jobs_failed']:.0f}  "
        f"reassigned={totals['reassigned']:.0f}"
    )
    return "\n".join(lines)


# -- telemetry history (store-backed metrics snapshots) -------------------------
#
# ``ResultStore.record_telemetry`` persists ``MetricsRegistry.snapshot()``
# payloads: counters/gauges as ``{series-key: value}`` maps, histograms as
# ``{series-key: {count, sum, p50, p95, p99}}`` maps.  The helpers below turn
# a run of snapshots (newest first, as ``telemetry_rows`` returns them) into
# the regression-delta report behind ``GET /telemetry/history`` and
# ``an5d top --history``.

def _counter_total(snapshot: Dict[str, object], name: str) -> float:
    """Sum one counter/gauge across all its label series."""
    series = snapshot.get(name)
    if not isinstance(series, dict):
        return 0.0
    return sum(
        float(value) for value in series.values() if isinstance(value, (int, float))
    )


def _histogram_p99(snapshot: Dict[str, object], name: str) -> Optional[float]:
    """Worst p99 across one histogram's label series (None = no samples)."""
    series = snapshot.get(name)
    if not isinstance(series, dict):
        return None
    worst: Optional[float] = None
    for summary in series.values():
        if not isinstance(summary, dict) or not summary.get("count"):
            continue
        p99 = summary.get("p99")
        if isinstance(p99, (int, float)):
            worst = float(p99) if worst is None else max(worst, float(p99))
    return worst


#: Monotone totals whose between-snapshot deltas become rates.
_DELTA_COUNTERS = (
    "requests_total",
    "jobs_completed_total",
    "stream_dropped_total",
    "errors_swallowed_total",
)


def telemetry_deltas(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Between-snapshot deltas per instance (``rows`` newest first).

    Each entry compares one snapshot against the next-older one from the
    same instance: counter deltas and per-second rates over the real
    interval, plus the p99 request/job latency drift.
    """
    by_instance: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_instance.setdefault(str(row.get("instance_id", "?")), []).append(row)
    deltas: List[Dict[str, object]] = []
    for instance, sequence in sorted(by_instance.items()):
        for newer, older in zip(sequence, sequence[1:]):
            interval = float(newer["created_at"]) - float(older["created_at"])
            new_snap = newer.get("snapshot") or {}
            old_snap = older.get("snapshot") or {}
            entry: Dict[str, object] = {
                "instance_id": instance,
                "from": older["created_at"],
                "to": newer["created_at"],
                "interval_s": round(interval, 3),
                "code_version": newer.get("code_version"),
            }
            for name in _DELTA_COUNTERS:
                delta = _counter_total(new_snap, name) - _counter_total(old_snap, name)
                entry[name] = round(delta, 3)
                if interval > 0:
                    entry[name.replace("_total", "_per_s")] = round(delta / interval, 3)
            for metric, label in (
                ("request_seconds", "req_p99_ms"),
                ("job_execution_seconds", "job_p99_ms"),
            ):
                p99 = _histogram_p99(new_snap, metric)
                previous = _histogram_p99(old_snap, metric)
                entry[label] = None if p99 is None else round(p99 * 1000.0, 3)
                if p99 is not None and previous is not None:
                    entry[label + "_delta"] = round((p99 - previous) * 1000.0, 3)
            deltas.append(entry)
    return deltas


def code_version_report(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Latest snapshot per code version — the across-versions regression view.

    Newest version first; comparing ``req_p99_ms``/``job_p99_ms`` between
    adjacent entries answers "did this code change regress the service?".
    """
    latest: Dict[str, Dict[str, object]] = {}
    for row in rows:  # newest first: keep the first row seen per version
        version = str(row.get("code_version") or "?")
        if version not in latest:
            latest[version] = row
    report: List[Dict[str, object]] = []
    for version, row in latest.items():
        snapshot = row.get("snapshot") or {}
        p99 = _histogram_p99(snapshot, "request_seconds")
        job_p99 = _histogram_p99(snapshot, "job_execution_seconds")
        report.append(
            {
                "code_version": version,
                "created_at": row["created_at"],
                "instance_id": row.get("instance_id"),
                "requests": _counter_total(snapshot, "requests_total"),
                "jobs": _counter_total(snapshot, "jobs_completed_total"),
                "stream_dropped": _counter_total(snapshot, "stream_dropped_total"),
                "req_p99_ms": None if p99 is None else round(p99 * 1000.0, 3),
                "job_p99_ms": None if job_p99 is None else round(job_p99 * 1000.0, 3),
            }
        )
    return report


def render_history(
    rows: List[Dict[str, object]],
    deltas: Optional[List[Dict[str, object]]] = None,
    versions: Optional[List[Dict[str, object]]] = None,
) -> str:
    """Fixed-width text rendering of the telemetry history + delta report."""
    if deltas is None:
        deltas = telemetry_deltas(rows)
    if versions is None:
        versions = code_version_report(rows)
    lines = [f"telemetry history: {len(rows)} snapshot(s)"]
    header = (
        f"{'INSTANCE':<18} {'VERSION':<12} {'AGE-S':>8} "
        f"{'REQS':>8} {'JOBS':>8} {'DROPS':>6} {'P99MS':>8}"
    )
    lines += [header, "-" * len(header)]
    newest = float(rows[0]["created_at"]) if rows else 0.0
    for row in rows:
        snapshot = row.get("snapshot") or {}
        p99 = _histogram_p99(snapshot, "request_seconds")
        lines.append(
            f"{str(row.get('instance_id', '?'))[:18]:<18} "
            f"{str(row.get('code_version') or '?')[:12]:<12} "
            f"{newest - float(row['created_at']):>8.1f} "
            f"{_counter_total(snapshot, 'requests_total'):>8.0f} "
            f"{_counter_total(snapshot, 'jobs_completed_total'):>8.0f} "
            f"{_counter_total(snapshot, 'stream_dropped_total'):>6.0f} "
            f"{'-' if p99 is None else format(p99 * 1000.0, '.2f'):>8}"
        )
    if deltas:
        lines.append("")
        lines.append("deltas (newest interval first):")
        for entry in deltas:
            drift = entry.get("req_p99_ms_delta")
            drift_cell = "-" if drift is None else f"{drift:+.2f}ms"
            lines.append(
                f"  {str(entry['instance_id'])[:18]:<18} "
                f"{float(entry['interval_s']):>7.1f}s  "
                f"req/s={float(entry.get('requests_per_s', 0.0)):.2f}  "
                f"jobs/s={float(entry.get('jobs_completed_per_s', 0.0)):.2f}  "
                f"p99 drift={drift_cell}"
            )
    if versions and len(versions) > 1:
        lines.append("")
        lines.append("code versions (latest snapshot each, newest first):")
        for entry in versions:
            p99 = entry.get("req_p99_ms")
            lines.append(
                f"  {str(entry['code_version'])[:20]:<20} "
                f"reqs={float(entry['requests']):.0f}  jobs={float(entry['jobs']):.0f}  "
                f"p99={'-' if p99 is None else format(p99, '.2f') + 'ms'}"
            )
    return "\n".join(lines)


__all__ = [
    "cache_ratio",
    "code_version_report",
    "collect",
    "discover_instances",
    "instance_row",
    "render",
    "render_history",
    "scrape",
    "stream_records",
    "telemetry_deltas",
]
