"""Reports rendered straight from the campaign store.

Everything here returns :class:`repro.reporting.ResultTable`, so each report
can be printed, exported to CSV/JSON/JSONL/Markdown or diffed against a
previous campaign without touching the scheduler.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.store import ResultStore, StoredResult
from repro.reporting import ResultTable


def _scoped(
    results: List[StoredResult], keys: Optional[Sequence[str]]
) -> List[StoredResult]:
    """Restrict results to a key subset (e.g. one campaign's jobs).

    ``keys=None`` keeps the whole store — the CLI's behaviour; the HTTP
    service passes the addressed campaign's job keys so ``/campaigns/{id}``
    reports never leak other campaigns sharing the store.
    """
    if keys is None:
        return results
    key_set = frozenset(keys)
    return [result for result in results if result.key in key_set]


def _format_config(payload: Dict[str, object]) -> str:
    bs = payload.get("bS")
    bs_text = "x".join(str(v) for v in bs) if isinstance(bs, list) else str(bs)
    hs = payload.get("hS")
    regs = payload.get("regs")
    return (
        f"bT={payload.get('bT')} bS={bs_text} "
        f"hS={hs if hs is not None else 'full'} regs={regs if regs is not None else '-'}"
    )


def leaderboard(
    store: ResultStore,
    gpu: Optional[str] = None,
    dtype: Optional[str] = None,
    top: int = 10,
    keys: Optional[Sequence[str]] = None,
) -> ResultTable:
    """The best-performing stored tune results, fastest first."""
    metric = "tuned_gflops"
    results = _scoped(store.query(kind="tune", gpu=gpu, dtype=dtype, status="ok"), keys)
    results.sort(
        key=lambda r: (-float(r.payload.get(metric, 0.0)), r.pattern, r.gpu, r.dtype)
    )
    table = ResultTable(
        "Campaign leaderboard (tune)",
        ["rank", "pattern", "gpu", "dtype", "gflops", "config"],
    )
    for rank, result in enumerate(results[:top], start=1):
        table.add_row(
            rank,
            result.pattern,
            result.gpu,
            result.dtype,
            round(float(result.payload.get(metric, 0.0)), 1),
            _format_config(result.payload),
        )
    return table


def _matrix_columns(results: List[StoredResult]) -> List[Tuple[str, str]]:
    columns: List[Tuple[str, str]] = []
    for result in results:
        cell = (result.gpu, result.dtype)
        if cell not in columns:
            columns.append(cell)
    columns.sort()
    return columns


def table5_matrix(
    store: ResultStore,
    value: str = "tuned_gflops",
    keys: Optional[Sequence[str]] = None,
) -> ResultTable:
    """Table-5-style matrix: one row per stencil, one column per GPU x dtype.

    ``value`` selects the cell contents: any tuning payload field
    (``tuned_gflops``, ``model_gflops``, ``model_accuracy``) or ``"config"``
    for the tuned blocking parameters.
    """
    results = _scoped(store.query(kind="tune", status="ok"), keys)
    columns = _matrix_columns(results)
    cells: Dict[Tuple[str, str, str], object] = {}
    patterns: List[str] = []
    for result in results:
        if result.pattern not in patterns:
            patterns.append(result.pattern)
        if value == "config":
            cell: object = _format_config(result.payload)
        else:
            cell = result.payload.get(value)
            if isinstance(cell, float):
                cell = round(cell, 3 if value == "model_accuracy" else 1)
        cells[(result.pattern, result.gpu, result.dtype)] = cell
    headers = ["pattern", *[f"{gpu}/{dtype}" for gpu, dtype in columns]]
    table = ResultTable(f"Table 5 matrix ({value})", headers)
    for pattern in sorted(patterns):
        table.add_row(
            pattern, *[cells.get((pattern, gpu, dtype)) for gpu, dtype in columns]
        )
    return table


def accuracy_summary(
    store: ResultStore, keys: Optional[Sequence[str]] = None
) -> ResultTable:
    """Model-vs-simulated accuracy per GPU x dtype (the paper's Section 7.2)."""
    results = _scoped(store.query(kind="tune", status="ok"), keys)
    groups: Dict[Tuple[str, str], List[float]] = {}
    for result in results:
        accuracy = result.payload.get("model_accuracy")
        if accuracy is None:
            continue
        groups.setdefault((result.gpu, result.dtype), []).append(float(accuracy))
    table = ResultTable(
        "Model accuracy by GPU and dtype",
        ["gpu", "dtype", "stencils", "mean", "min", "max"],
    )
    for (gpu, dtype), values in sorted(groups.items()):
        table.add_row(
            gpu,
            dtype,
            len(values),
            round(sum(values) / len(values), 3),
            round(min(values), 3),
            round(max(values), 3),
        )
    return table


def campaign_summary(
    store: ResultStore, keys: Optional[Sequence[str]] = None
) -> ResultTable:
    """Store occupancy: how many results of each kind and status."""
    table = ResultTable("Campaign store summary", ["kind", "status", "results"])
    rows: Dict[Tuple[str, str], int] = {}
    for result in _scoped(store.query(), keys):
        rows[(result.kind, result.status)] = rows.get((result.kind, result.status), 0) + 1
    for (kind, status), count in sorted(rows.items()):
        table.add_row(kind, status, count)
    return table


REPORTS = {
    "leaderboard": leaderboard,
    "table5": table5_matrix,
    "accuracy": accuracy_summary,
    "summary": campaign_summary,
}


def report_options(report: str, given: Mapping[str, object]) -> Dict[str, object]:
    """The options ``report`` takes, picked out of ``given`` (CLI flags or a
    query string): a leaderboard filters on ``gpu``/``dtype`` and keeps the
    ``top`` rows, a Table-5 matrix fills its cells with ``value``, and the
    other reports take none."""
    if report == "leaderboard":
        return {
            "gpu": given.get("gpu"),
            "dtype": given.get("dtype"),
            "top": int(given.get("top", 10)),  # type: ignore[arg-type]
        }
    if report == "table5":
        return {"value": given.get("value", "tuned_gflops")}
    return {}
