"""Domain types, whitespace tokenization, and sharded JSONL corpus I/O.

A corpus shard on disk is one JSON object per line with fields
{"id", "source", "domain", "text"}, terminated by a single manifest line
{"__manifest__": true, "source", "doc_count", "token_count", "checksum"}.
Files are UTF-8 with LF line endings and are written byte-deterministically.
"""

from __future__ import annotations

import enum
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .errors import IntegrityError, ShardFormatError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class Domain(str, enum.Enum):
    FORMAL = "formal"
    INFORMAL = "informal"
    MEDICAL = "medical"
    LEGAL = "legal"
    LITERATURE = "literature"


def tokenize(text: str) -> list[str]:
    """Split into maximal runs of non-whitespace codepoints (Unicode whitespace)."""
    return text.split()


def fnv1a_bytes(data: bytes, state: int = _FNV_OFFSET) -> int:
    h = state
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def fnv1a_hex(chunks: Iterable[str]) -> str:
    """64-bit FNV-1a over the UTF-8 bytes of the concatenated chunks."""
    h = _FNV_OFFSET
    for chunk in chunks:
        h = fnv1a_bytes(chunk.encode("utf-8"), h)
    return f"{h:016x}"


@dataclass(frozen=True, slots=True)
class Document:
    """One text unit; token_count is derived from the whitespace tokenizer."""

    id: str
    source: str
    domain: Domain
    text: str
    token_count: int = -1

    def __post_init__(self):
        if not isinstance(self.domain, Domain):
            object.__setattr__(self, "domain", Domain(self.domain))
        if self.token_count < 0:
            object.__setattr__(self, "token_count", len(tokenize(self.text)))


@dataclass(frozen=True, slots=True)
class Manifest:
    source: str
    doc_count: int
    token_count: int
    checksum: str


def _common_source(docs: Iterable[Document]) -> str:
    sources = {d.source for d in docs}
    return sources.pop() if len(sources) == 1 else "mixed"


@dataclass(frozen=True)
class CorpusShard:
    """Ordered, immutable sequence of documents with a verifiable manifest."""

    documents: tuple[Document, ...]
    manifest: Manifest

    @classmethod
    def from_documents(cls, documents: Iterable[Document], source: str | None = None) -> "CorpusShard":
        docs = tuple(documents)
        if source is None:
            source = _common_source(docs)
        manifest = Manifest(
            source=source,
            doc_count=len(docs),
            token_count=sum(d.token_count for d in docs),
            checksum=fnv1a_hex(d.text for d in docs),
        )
        return cls(docs, manifest)

    def verify(self) -> None:
        """Raise IntegrityError unless the manifest matches recomputed sums."""
        recomputed = CorpusShard.from_documents(self.documents, self.manifest.source).manifest
        if recomputed != self.manifest:
            raise IntegrityError(
                f"manifest mismatch for source {self.manifest.source!r}: "
                f"stored {self.manifest}, recomputed {recomputed}"
            )
        seen: set[str] = set()
        for d in self.documents:
            if d.id in seen:
                raise IntegrityError(f"duplicate document id {d.id!r}")
            seen.add(d.id)


@dataclass
class PipelineConfig:
    """Tunable thresholds shared across stages; `config_schema.json` holds their rules."""

    min_match_tokens: int = 100
    langid_threshold: float = 0.9
    min_words: int = 20
    ngram_order: int = 5
    quality_top_k: int = 2_000_000
    chunk_budget_tokens: int = 128
    mix_seed: int = 0
    dedup_policy: str = "remove_all"


_REQUIRED_FIELDS = ("id", "source", "domain", "text")


def _parse_record(obj: dict, path: Path, lineno: int) -> Document:
    for field in _REQUIRED_FIELDS:
        if field not in obj:
            raise ShardFormatError(f"{path}:{lineno}: missing field {field!r}")
        if not isinstance(obj[field], str):
            raise ShardFormatError(f"{path}:{lineno}: field {field!r} must be a string")
    try:
        domain = Domain(obj["domain"])
    except ValueError:
        raise ShardFormatError(
            f"{path}:{lineno}: unknown domain {obj['domain']!r}"
        ) from None
    return Document(id=obj["id"], source=obj["source"], domain=domain, text=obj["text"])


def read_shard(path: str | Path) -> CorpusShard:
    """Read and verify one shard file; document order is preserved."""
    path = Path(path)
    docs: list[Document] = []
    manifest: Manifest | None = None
    try:  # a decode error surfaces from the line iterator
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ShardFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
                if not isinstance(obj, dict):
                    raise ShardFormatError(f"{path}:{lineno}: expected a JSON object")
                if obj.get("__manifest__"):
                    if manifest is not None:
                        raise ShardFormatError(f"{path}:{lineno}: multiple manifest lines")
                    manifest = Manifest(
                        source=obj.get("source", ""),
                        doc_count=obj.get("doc_count", -1),
                        token_count=obj.get("token_count", -1),
                        checksum=obj.get("checksum", ""),
                    )
                    continue
                if manifest is not None:
                    raise ShardFormatError(f"{path}:{lineno}: record after manifest line")
                docs.append(_parse_record(obj, path, lineno))
    except UnicodeDecodeError as exc:
        raise ShardFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if manifest is None:
        raise ShardFormatError(f"{path}: missing manifest line")
    shard = CorpusShard(tuple(docs), manifest)
    shard.verify()
    return shard


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary handle on `<path>.tmp`, renamed over `path` once the block
    exits cleanly. A reader never sees a partly written file, and a write that
    raises leaves the earlier file as it was and no tmp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_shard(shard: CorpusShard, path: str | Path) -> None:
    """Write a shard byte-deterministically (atomic replace on success)."""
    with atomic_write(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as fh:
        for d in shard.documents:
            fh.write(json.dumps(
                {"id": d.id, "source": d.source, "domain": d.domain.value, "text": d.text},
                ensure_ascii=False,
            ))
            fh.write("\n")
        m = shard.manifest
        fh.write(json.dumps(
            {"__manifest__": True, "source": m.source, "doc_count": m.doc_count,
             "token_count": m.token_count, "checksum": m.checksum},
            ensure_ascii=False,
        ))
        fh.write("\n")


def merge_shards(shards: Iterable[CorpusShard], source: str | None = None) -> CorpusShard:
    """Concatenate documents of several shards into one (order preserved).

    A single shard keeps its counts and checksum and only takes the new source:
    its manifest is trusted, as `read_shard` verified it.
    """
    shards = list(shards)
    if len(shards) != 1:
        return CorpusShard.from_documents(
            (doc for shard in shards for doc in shard.documents), source=source)
    (shard,) = shards
    if source is None:
        source = _common_source(shard.documents)
    return CorpusShard(shard.documents, replace(shard.manifest, source=source))
