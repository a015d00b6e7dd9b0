"""Stage statistics rendered as canonical JSON or markdown tables.

Rendered numbers are always re-derivable from the raw counts; token counts
appear both raw and in billions with one decimal.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .dedup import DedupReport


@dataclass(frozen=True)
class CompositionRow:
    domain: str
    source: str
    doc_count: int
    token_count: int
    share: float


@dataclass(frozen=True)
class CompositionReport:
    rows: tuple[CompositionRow, ...]

    def totals(self) -> tuple[int, int]:
        return (
            sum(r.doc_count for r in self.rows),
            sum(r.token_count for r in self.rows),
        )


def duplicate_ratio(report: DedupReport) -> float:
    if report.input_tokens <= 0:
        raise ValueError("duplicate ratio undefined for zero input tokens")
    return report.duplicate_tokens / report.input_tokens


def _billions(tokens: int) -> str:
    return f"{tokens / 1e9:.1f}"


def _composition_json(report: CompositionReport) -> str:
    docs, tokens = report.totals()
    payload = {
        "type": "composition",
        "rows": [asdict(r) for r in report.rows],
        "totals": {"doc_count": docs, "token_count": tokens},
    }
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _composition_markdown(report: CompositionReport) -> str:
    docs, tokens = report.totals()
    lines = [
        "| domain | source | documents | tokens | tokens (B) | share |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for r in report.rows:
        lines.append(
            f"| {r.domain} | {r.source} | {r.doc_count} | {r.token_count} "
            f"| {_billions(r.token_count)} | {r.share:.4f} |"
        )
    total = f"| **total** | | {docs} | {tokens} | {_billions(tokens)} |"
    # The share is the rows' sum: 0 when no row has a token.
    lines.append(f"{total} {1.0 if tokens else 0.0:.4f} |" if report.rows else f"{total} |")
    return "\n".join(lines) + "\n"


def _dedup_json(report: DedupReport) -> str:
    payload = {"type": "dedup", **asdict(report)}
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _dedup_markdown(report: DedupReport) -> str:
    ratio = duplicate_ratio(report) if report.input_tokens > 0 else 0.0
    lines = [
        f"| stage | {report.stage} |",
        "|---|---:|",
        f"| input tokens | {report.input_tokens} |",
        f"| input tokens (B) | {_billions(report.input_tokens)} |",
        f"| duplicate tokens | {report.duplicate_tokens} |",
        f"| duplicate tokens (B) | {_billions(report.duplicate_tokens)} |",
        f"| duplicate ratio | {ratio:.4f} |",
        f"| merged spans | {report.spans} |",
        f"| removed documents | {report.removed_docs} |",
        f"| removed tokens | {report.removed_tokens} |",
    ]
    return "\n".join(lines) + "\n"


def render(report: CompositionReport | DedupReport, format: str = "json") -> str:
    if format not in ("json", "markdown"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(report, CompositionReport):
        return _composition_json(report) if format == "json" else _composition_markdown(report)
    if isinstance(report, DedupReport):
        return _dedup_json(report) if format == "json" else _dedup_markdown(report)
    raise TypeError(f"cannot render {type(report).__name__}")


_JSON_TYPES = {"int": ((int,), "integer"), "str": ((str,), "string"),
               "float": ((int, float), "number")}


def _from_json(cls, obj, what: str):
    """An instance of the dataclass `cls` from a JSON object with exactly its fields."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    types = {f.name: _JSON_TYPES[f.type] for f in fields(cls)}
    if obj.keys() != types.keys():
        raise ValueError(f"{what} needs exactly the fields {', '.join(sorted(types))}")
    for name, (allowed, label) in types.items():
        if isinstance(obj[name], bool) or not isinstance(obj[name], allowed):
            raise ValueError(f"{what}: {name!r} is not a JSON {label}")
    return cls(**obj)


def parse_report(text: str) -> CompositionReport | DedupReport:
    """Inverse of render(..., 'json'); render(parse(x), 'json') is a fixed point.

    Raises ValueError unless the fields are those `render` writes.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a report is a JSON object")
    kind = obj.get("type")
    if kind == "composition":
        if not isinstance(obj.get("rows"), list):
            raise ValueError("a composition report needs a 'rows' list")
        return CompositionReport(rows=tuple(
            _from_json(CompositionRow, r, f"composition row {i}")
            for i, r in enumerate(obj["rows"])))
    if kind == "dedup":
        body = {k: v for k, v in obj.items() if k != "type"}
        return _from_json(DedupReport, body, "a dedup report")
    raise ValueError(f"unknown report type {kind!r}")
