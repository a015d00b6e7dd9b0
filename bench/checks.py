"""Correctness checks and error accounting over one finished pipeline workspace.

Everything here reads files line by line and keeps only document ids, so it
stays small next to the pipeline run it checks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def workspace_digest(ws: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    for p in sorted(ws.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ws)).encode("utf-8") + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def _records(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if not obj.get("__manifest__"):
                yield obj


def _ids(path: Path) -> set[str]:
    return {obj["id"] for obj in _records(path)}


def _manifest(path: Path) -> dict:
    """The manifest line, which ends every shard."""
    with open(path, "rb") as fh:
        fh.seek(max(0, fh.seek(0, 2) - 4096))
        return json.loads(fh.read().splitlines()[-1])


def _qualfilter_input(ws: Path, inputs: Path, source: str) -> Path:
    """The shard the quality filter read for `source`: the latest earlier stage output."""
    for stage in ("dedup", "langid", "preprocess"):
        p = ws / stage / f"{source}.jsonl"
        if p.exists():
            return p
    return inputs / f"{source}.jsonl"


def failed_documents(ws: Path, inputs: Path) -> int:
    """Documents lost to an error: translator failures plus documents the KN
    filter could not score. Policy drops are not errors."""
    failed = 0
    for p in sorted((ws / "chunk").glob("*.failures.json")):
        failed += len(json.loads(p.read_text(encoding="utf-8")))
    for p in sorted((ws / "qualfilter").glob("*.scores.json")):
        source = p.name[: -len(".scores.json")]
        scored = len(json.loads(p.read_text(encoding="utf-8")))
        failed += _manifest(_qualfilter_input(ws, inputs, source))["doc_count"] - scored
    return failed


def check_workspace(ws: Path, inputs: Path, plan: dict) -> list[str]:
    """Problems found; an empty list means the survivors match what was planted.

    `inputs` is the directory of the generated input shards."""
    expect = plan["expect"]
    problems = []
    if not (ws / "report" / "summary.json").exists():
        problems.append("report/summary.json missing")

    removed: set[str] = set()
    for source in expect["dedup_sources"]:
        removed |= _ids(inputs / f"{source}.jsonl") - _ids(ws / "dedup" / f"{source}.jsonl")
    planted = set(expect["dedup_removed"])
    if planted - removed:
        problems.append(f"dedup kept {len(planted - removed)} footer carriers, "
                        f"e.g. {sorted(planted - removed)[:3]}")
    if removed - planted:
        problems.append(f"dedup removed {len(removed - planted)} documents without planted "
                        f"duplicates, e.g. {sorted(removed - planted)[:3]}")

    survivors = _ids(ws / "langid" / "forum.jsonl")
    leaked = survivors & set(expect["langid_dropped"])
    if leaked:
        problems.append(f"{len(leaked)} short posts or English intrusions survived, "
                        f"e.g. {sorted(leaked)[:3]}")

    for dataset, budget in expect["budgets"].items():
        tokens = sum(_manifest(p)["token_count"] for p in (ws / "datasets" / dataset).glob("*.jsonl"))
        if tokens > budget:
            problems.append(f"dataset {dataset} has {tokens} tokens, over its budget of {budget}")
    return problems
