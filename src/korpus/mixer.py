"""Dataset assembly with token-budget matching.

A dataset lists its sources as (name, domain, shard paths) triples and
optionally a token budget together with the single source to down-sample.
Budget trimming removes whole documents of the shard `assemble` names after the
trim source (document `source` labels play no part), drawn by a seeded SplitMix64
permutation, until the total token count is at or below budget; removing one
document fewer would exceed it. All other sources pass through untouched.

The pipeline runner takes these from a config's `datasets[]`; `korpus mix
--spec` reads them from a JSON file of the shape

    {"name": "variety",
     "sources": [{"source": "gc4", "domain": "formal", "paths": ["gc4.jsonl"]}, ...],
     "budget_tokens": 1000000, "trim_source": "gc4", "seed": 0}

where `budget_tokens`, `trim_source` and `seed` are optional. Both follow the
same rules (`$defs/dataset` in `config_schema.json`, plus the cross-field
checks in `korpus.pipeline`): budget and trim source are set together, the
trim source is one of the sources, and source names are unique. Each path is
a glob pattern: a relative one resolves against the directory of the config or
spec that names it, its matches are read in sorted order, and each pattern
must match a file.

`assemble` reads each source with `read_shard` and merges its files under the
source's name. A caller may name sources to leave unread instead: each has one
shard file, which the caller passes into the dataset as it is, and its counts
come from that file's manifest line (`read_manifest`). The trim source is
always read. The pipeline runner names the sources whose shard is a stage
output, which reads back and re-writes to its own bytes (see `korpus.pipeline`);
`korpus mix --spec` reads every source.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection, NamedTuple, Sequence

from .core import CorpusShard, Manifest, merge_shards, read_manifest, read_shard
from .errors import ConfigError
from .report import CompositionReport, CompositionRow
from .rng import SplitMix64


class PassThrough(NamedTuple):
    """A source `assemble` did not read: its one shard file goes into the dataset
    as it is, so its manifest line alone gives its counts."""

    manifest: Manifest


def trim_to_budget(
    shards: list[CorpusShard | PassThrough],
    source: str,
    budget_tokens: int,
    seed: int,
) -> list[CorpusShard | PassThrough]:
    """Seeded removal of whole documents from the shard whose manifest source is
    `source` (not by document label) until within budget; other shards are
    returned as is, and only their manifests are read."""
    total = sum(s.manifest.token_count for s in shards)
    if total <= budget_tokens:
        return list(shards)
    target = next((s for s in shards if s.manifest.source == source), None)
    docs = target.documents if target is not None else ()
    floor = total - sum(d.token_count for d in docs)
    if floor > budget_tokens:
        raise ConfigError(
            f"budget {budget_tokens} unreachable by trimming {source!r}; "
            f"achievable minimum is {floor} tokens"
        )
    order = list(range(len(docs)))
    SplitMix64(seed).shuffle(order)
    removed: set[int] = set()
    running = total
    for idx in order:
        if running <= budget_tokens:
            break
        removed.add(idx)
        running -= docs[idx].token_count
    trimmed = CorpusShard.from_documents(
        (d for i, d in enumerate(docs) if i not in removed), source=source)
    return [trimmed if s is target else s for s in shards]


def assemble(
    sources: Sequence[tuple[str, str, Sequence[str | Path]]],
    budget_tokens: int | None = None,
    trim_source: str | None = None,
    seed: int = 0,
    unread: Collection[str] = (),
) -> tuple[list[CorpusShard | PassThrough], CompositionReport]:
    """Read all (name, domain, paths) sources, trim `trim_source` if a budget
    is given, and report composition.

    Returns one merged shard per source, in the given order. A source named in
    `unread` has exactly one path, whose file the caller passes to the dataset
    as it is; only its manifest line is read, and its entry is a PassThrough.
    The trim source is always read.
    """
    shards = [PassThrough(read_manifest(*paths))
              if name in unread and name != trim_source
              else merge_shards([read_shard(p) for p in paths], source=name)
              for name, _, paths in sources]

    if budget_tokens is not None:
        shards = trim_to_budget(shards, trim_source, budget_tokens, seed)

    total_tokens = sum(s.manifest.token_count for s in shards)
    rows = tuple(
        CompositionRow(domain=domain, source=name, doc_count=shard.manifest.doc_count,
                       token_count=shard.manifest.token_count,
                       share=shard.manifest.token_count / total_tokens if total_tokens else 0.0)
        for (name, domain, _), shard in zip(sources, shards))
    return shards, CompositionReport(rows=rows)
