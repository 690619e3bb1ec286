"""Result formatting and export.

The benchmark harness and the CLI produce tabular results (Table 5 rows,
Fig. 6 columns, bT sweeps).  This module gives them a common in-memory
representation with text, Markdown, CSV and JSON renderings, so results can
be archived or diffed against the paper without any plotting dependencies.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Mapping, Sequence


@dataclass
class ResultTable:
    """An ordered table of benchmark results."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list, init=False)

    def add_row(self, *values: object) -> "ResultTable":
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} values, got {len(values)}"
            )
        self.rows.append(tuple(values))
        return self

    @classmethod
    def from_records(
        cls,
        title: str,
        records: Iterable[Mapping[str, object]],
        headers: Sequence[str] | None = None,
    ) -> "ResultTable":
        """Build a table from mapping records with a stable column order.

        When ``headers`` is omitted, columns appear in first-seen key order
        across the records (so identical record streams always produce
        identical, diff-able tables).  Missing keys become ``None`` cells.
        """
        records = list(records)
        if headers is None:
            seen: List[str] = []
            for record in records:
                for key in record:
                    if key not in seen:
                        seen.append(key)
            headers = seen
        table = cls(title, list(headers))
        for record in records:
            table.add_row(*[record.get(h) for h in headers])
        return table

    # -- renderings -----------------------------------------------------------
    def to_text(self) -> str:
        rows = [["-" if v is None else str(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, ""]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(self.headers))))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join("-" if v is None else str(v) for v in row) + " |")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        # None cells render as empty fields, never the literal string "None".
        writer.writerows([["" if v is None else v for v in row] for row in self.rows])
        return buffer.getvalue()

    def to_json(self) -> str:
        return json.dumps({"title": self.title, "rows": self.to_records()}, indent=2)

    def to_jsonl(self) -> str:
        """One JSON object per row, keys in header order — diff-able exports."""
        return "\n".join(
            json.dumps(record, separators=(",", ":")) for record in self.to_records()
        )

    def to_records(self) -> List[dict]:
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_payload(self) -> dict:
        """JSON-safe wire encoding (title/headers/rows) of the table."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }

    # -- persistence --------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Save in the format implied by the file suffix (.csv/.json/.md/.txt)."""
        path = Path(path)
        renderers = {
            ".csv": self.to_csv,
            ".json": self.to_json,
            ".jsonl": self.to_jsonl,
            ".md": self.to_markdown,
            ".txt": self.to_text,
        }
        renderer = renderers.get(path.suffix)
        if renderer is None:
            raise ValueError(f"unsupported result format {path.suffix!r}")
        path.parent.mkdir(parents=True, exist_ok=True)
        # csv rows already end in "\r\n"; the other formats get one "\n".
        text = renderer()
        path.write_text(text if text.endswith("\n") else text + "\n")
        return path

