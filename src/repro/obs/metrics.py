"""Thread-safe metrics registry (counters, gauges, fixed-bucket histograms).

Design points:

* **stdlib only** — a ``threading.Lock`` per metric, plain dicts underneath;
  no background threads, no allocation on the hot path beyond a dict lookup.
* **labels** are declared at registration and passed as keyword arguments to
  ``inc``/``set``/``observe``; each label-value combination is one series.
* **histograms** use fixed bucket edges chosen at registration; quantiles
  (p50/p95/p99) are estimated by linear interpolation inside the bucket that
  holds the requested rank, which is exact to one bucket width — the same
  estimate Prometheus' ``histogram_quantile`` would produce from the scrape.
* **registries are injectable**: every instrumented component accepts a
  ``metrics=`` argument and falls back to the process-wide default
  (:func:`get_registry`), mirroring the cluster layer's injectable clocks —
  tests hand in a fresh registry and assert exact counts.
* rendering follows the Prometheus text exposition format, and
  :func:`parse_prometheus` reads it back (``an5d top``, CI smoke checks).
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond to half a minute.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default size buckets (counts): for batch sizes and queue depths.
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_key(names: Tuple[str, ...], labels: Mapping[str, object]) -> Tuple[str, ...]:
    extra = sorted(set(labels) - set(names))
    if extra:
        raise ValueError(f"unknown label(s): {', '.join(extra)}")
    return tuple(str(labels.get(name, "")) for name in names)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_exemplar(exemplar: Optional[Tuple[str, float]]) -> str:
    """OpenMetrics exemplar suffix (`` # {trace_id="..."} value``), or ``""``.

    No timestamp field — same policy as the rest of the wire surface.
    """
    if exemplar is None:
        return ""
    trace_id, value = exemplar
    return f' # {{trace_id="{_escape(trace_id)}"}} {_format_value(value)}'


class _Metric:
    """Base: one named metric holding one series per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()

    def _header(self) -> List[str]:
        return [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: Tuple[str, ...]) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labels, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_label_key(self.labels, labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            series = sorted(self._values.items())
        if not series and not self.labels:
            series = [((), 0.0)]
        for values, count in series:
            lines.append(
                f"{self.name}{_format_labels(self.labels, values)} {_format_value(count)}"
            )
        return lines

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {",".join(k) if k else "": v for k, v in self._values.items()}


class Gauge(_Metric):
    """A value that goes up and down (queue depth, in-flight requests)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Tuple[str, ...]) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = _label_key(self.labels, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(self.labels, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, **labels: object) -> None:
        self.inc(-1.0, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_label_key(self.labels, labels), 0.0)

    render = Counter.render
    snapshot = Counter.snapshot


class Histogram(_Metric):
    """Fixed-bucket histogram with interpolated quantile readouts."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Tuple[str, ...],
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help, labels)
        edges = tuple(sorted(float(edge) for edge in buckets))
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        self.edges = edges
        # Per series: [bucket counts... , +Inf count], total count, sum.
        self._series: Dict[Tuple[str, ...], List[object]] = {}
        # Per series: bucket index -> (trace id, observed value) — the most
        # recent OpenMetrics exemplar for that bucket, so a scrape links a
        # bad p99 bucket straight to ``GET /trace/{id}``.
        self._exemplars: Dict[Tuple[str, ...], Dict[int, Tuple[str, float]]] = {}

    def observe(
        self, value: float, exemplar: Optional[str] = None, **labels: object
    ) -> None:
        key = _label_key(self.labels, labels)
        index = bisect.bisect_left(self.edges, float(value))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.edges) + 1), 0, 0.0]
                self._series[key] = series
            series[0][index] += 1
            series[1] += 1
            series[2] += float(value)
            if exemplar:
                self._exemplars.setdefault(key, {})[index] = (
                    str(exemplar),
                    float(value),
                )

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(_label_key(self.labels, labels))
            return int(series[1]) if series else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(_label_key(self.labels, labels))
            return float(series[2]) if series else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Estimated ``q``-quantile (0..1) by in-bucket linear interpolation."""
        with self._lock:
            series = self._series.get(_label_key(self.labels, labels))
            if series is None or series[1] == 0:
                return 0.0
            counts, total = list(series[0]), int(series[1])
        return bucket_quantile(self.edges, counts, total, q)

    def summary(self, **labels: object) -> Dict[str, float]:
        """The p50/p95/p99 readout plus count and sum."""
        return {
            "count": self.count(**labels),
            "sum": round(self.sum(**labels), 6),
            "p50": round(self.quantile(0.50, **labels), 6),
            "p95": round(self.quantile(0.95, **labels), 6),
            "p99": round(self.quantile(0.99, **labels), 6),
        }

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(
                (key, list(series[0]), int(series[1]), float(series[2]))
                for key, series in self._series.items()
            )
            exemplars = {key: dict(value) for key, value in self._exemplars.items()}
        names = self.labels + ("le",)
        for values, counts, total, total_sum in items:
            series_exemplars = exemplars.get(values, {})
            cumulative = 0
            for index, (edge, count) in enumerate(zip(self.edges, counts)):
                cumulative += count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(names, values + (_format_value(edge),))}"
                    f" {cumulative}"
                    + _format_exemplar(series_exemplars.get(index))
                )
            lines.append(
                f"{self.name}_bucket{_format_labels(names, values + ('+Inf',))} {total}"
                + _format_exemplar(series_exemplars.get(len(self.edges)))
            )
            base = _format_labels(self.labels, values)
            lines.append(f"{self.name}_sum{base} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{base} {total}")
        return lines

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            keys = list(self._series)
        return {
            ",".join(key) if key else "": self.summary(**dict(zip(self.labels, key)))
            for key in keys
        }


def bucket_quantile(
    edges: Sequence[float], counts: Sequence[int], total: int, q: float
) -> float:
    """Quantile estimate from cumulative-bucket data (shared with ``top``).

    ``counts`` holds per-bucket (non-cumulative) counts, with the final entry
    covering values above the last edge; the estimate interpolates linearly
    inside the bucket that contains rank ``q * total`` and clamps the
    overflow bucket to its lower edge (there is no upper bound to lerp to).
    """
    if total <= 0:
        return 0.0
    rank = max(0.0, min(1.0, q)) * total
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            if index >= len(edges):  # overflow bucket: no upper edge
                return float(edges[-1])
            lower = float(edges[index - 1]) if index > 0 else 0.0
            upper = float(edges[index])
            fraction = (rank - previous) / count
            return lower + (upper - lower) * fraction
    return float(edges[-1])


class _NullMetric:
    """No-op stand-in: accepts every call, records nothing.

    Used by the overhead benchmark to measure the instrumented code paths
    with metrics compiled out, and available to embedders who want zero
    bookkeeping.
    """

    def inc(self, *args: object, **kwargs: object) -> None:
        pass

    dec = set = observe = inc

    def value(self, *args: object, **labels: object) -> float:
        return 0.0

    def count(self, *args: object, **labels: object) -> int:
        return 0

    sum = quantile = value

    def summary(self, **labels: object) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class MetricsRegistry:
    """A named collection of metrics; safe for concurrent registration.

    Registration is idempotent: asking for an existing name returns the
    existing metric (type and labels must match), so per-use objects like
    the campaign scheduler can re-register their instruments freely.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name: str, help: str, labels: Tuple[str, ...], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labels != labels:
                    raise ValueError(
                        f"metric {name!r} already registered with a different "
                        "type or label set"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, tuple(labels))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help, ())

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, tuple(labels), buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """JSON-able summary: counters/gauges by series, histogram quantiles."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return {metric.name: metric.snapshot() for metric in metrics}


class NullRegistry(MetricsRegistry):
    """A registry whose metrics never record (overhead measurements)."""

    _NULL = _NullMetric()

    def _register(self, cls, name, help, labels, **kwargs):  # noqa: A002
        return self._NULL


#: Shared no-op metric sink (``set_registry(NULL_REGISTRY)`` disables
#: instrumentation process-wide; the overhead gate in ``bench_sweep`` uses it).
NULL_REGISTRY = NullRegistry()

_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (injectable per component)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


#: ``metric_name{label="value",...} 1.25`` — one sample line of a scrape.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: `` # {trace_id="..."} 0.0042`` — an OpenMetrics exemplar suffix on a
#: sample line (optionally with a trailing timestamp, per the spec).
_EXEMPLAR_RE = re.compile(r"\s+#\s+\{[^}]*\}\s+[^\s]+(?:\s+[^\s]+)?\s*$")


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus text format into ``{name: [(labels, value), ...]}``.

    Strict on sample lines (a malformed one raises — the CI smoke check
    leans on that); ``# HELP``/``# TYPE`` comments and blanks are skipped.
    """
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            # An exemplar-bearing bucket line: strip the suffix and retry.
            stripped = _EXEMPLAR_RE.sub("", line)
            match = _SAMPLE_RE.match(stripped) if stripped != line else None
            if match is None:
                raise ValueError(f"line {number} is not a Prometheus sample: {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for name, value in _LABEL_RE.findall(raw):
                labels[name] = (
                    value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
                )
        raw_value = match.group("value")
        try:
            value = math.inf if raw_value == "+Inf" else float(raw_value)
        except ValueError:
            raise ValueError(f"line {number} has a non-numeric value: {line!r}") from None
        out.setdefault(match.group("name"), []).append((labels, value))
    return out


def scrape_quantile(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]],
    name: str,
    q: float,
    match: Optional[Mapping[str, str]] = None,
) -> float:
    """Quantile of a scraped histogram, merged over matching label sets.

    ``match`` filters series by label equality (ignoring ``le``); bucket
    counts are summed across the surviving series before estimating, which
    is how ``an5d top`` folds per-route latencies into one instance p99.
    """
    buckets: Dict[float, float] = {}
    for labels, value in samples.get(f"{name}_bucket", []):
        if match and any(labels.get(k) != v for k, v in match.items()):
            continue
        edge = math.inf if labels.get("le") == "+Inf" else float(labels.get("le", "inf"))
        buckets[edge] = buckets.get(edge, 0.0) + value
    edges = sorted(edge for edge in buckets if edge != math.inf)
    if not edges:
        return 0.0
    cumulative = [buckets[edge] for edge in edges]
    total = buckets.get(math.inf, cumulative[-1])
    counts: List[int] = []
    previous = 0.0
    for value in cumulative:
        counts.append(int(value - previous))
        previous = value
    counts.append(int(max(0.0, total - previous)))  # overflow bucket
    return bucket_quantile(edges, counts, int(total), q)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SIZE_BUCKETS",
    "bucket_quantile",
    "get_registry",
    "parse_prometheus",
    "scrape_quantile",
    "set_registry",
]
