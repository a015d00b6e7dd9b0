"""Domain types, whitespace tokenization, and sharded JSONL corpus I/O.

A corpus shard on disk is one JSON object per line with fields
{"id", "source", "domain", "text"}, terminated by a single manifest line
{"__manifest__": true, "source", "doc_count", "token_count", "checksum"}.
Files are UTF-8 with LF line endings and are written byte-deterministically.

The checksum hashes the UTF-8 bytes of the concatenated texts. It is written
only as `b2:` and the 8-byte blake2b hex digest (`fnv1a_hex`). A checksum of
exactly 16 lowercase hex digits is the 64-bit FNV-1a of shards written before
korpus 0.4.0: it is still verified, and `read_shard` returns such a shard with
its `b2:` manifest, so it is never written back.
"""

from __future__ import annotations

import enum
import io
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

# The interpreter's own blake2b, built in on every supported Python: importing
# hashlib maps OpenSSL, ~3 MB of RSS.
from _blake2 import blake2b

from .errors import IntegrityError, ShardFormatError


class Domain(str, enum.Enum):
    FORMAL = "formal"
    INFORMAL = "informal"
    MEDICAL = "medical"
    LEGAL = "legal"
    LITERATURE = "literature"


def tokenize(text: str) -> list[str]:
    """Split into maximal runs of non-whitespace codepoints (Unicode whitespace)."""
    return text.split()


def batches(items: Iterable, chars: Callable[..., int], cap: int) -> Iterator[list]:
    """Consecutive runs of items with at most `cap` characters in all, or one
    item that alone has more."""
    batch = []
    total = 0
    for item in items:
        n = chars(item)
        if batch and total + n > cap:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += n
    if batch:
        yield batch


def fnv1a_bytes(blocks: Iterable[bytes]) -> str:
    """The checksum of the concatenated byte blocks: `b2:` and the 8-byte blake2b
    hex digest. It computes blake2b, not FNV-1a: the benchmark's spans target
    this name, and ROADMAP item 1 renames it."""
    digest = blake2b(digest_size=8)
    for block in blocks:
        digest.update(block)
    return f"b2:{digest.hexdigest()}"


def fnv1a_hex(chunks: Iterable[str]) -> str:
    """The checksum (`fnv1a_bytes`, blake2b) of the UTF-8 bytes of the concatenated
    chunks. ROADMAP item 1 renames it."""
    return fnv1a_bytes(chunk.encode("utf-8") for chunk in chunks)


_LEGACY_CHECKSUM = re.compile("[0-9a-f]{16}")


def _fnv1a_legacy(texts: Iterable[str]) -> str:
    """64-bit FNV-1a over the UTF-8 bytes of the concatenated texts, byte by byte:
    the checksum of shards written before korpus 0.4.0."""
    h = 0xCBF29CE484222325
    for text in texts:
        for byte in text.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


@dataclass(frozen=True, slots=True)
class Document:
    """One text unit; token_count is derived from the whitespace tokenizer."""

    id: str
    source: str
    domain: Domain
    text: str
    token_count: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.domain, Domain):
            object.__setattr__(self, "domain", Domain(self.domain))
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

    def verify(self) -> "CorpusShard":
        """Raise IntegrityError unless the manifest matches recomputed sums. Returns
        the shard with the recomputed manifest, which differs from the stored one
        only where that holds a legacy FNV-1a checksum: that is checked byte by
        byte and replaced by the `b2:` checksum. A checksum of any other form is
        compared as is, so it fails as a mismatch."""
        shard = CorpusShard.from_documents(self.documents, self.manifest.source)
        stored = self.manifest
        if (_LEGACY_CHECKSUM.fullmatch(stored.checksum)
                and _fnv1a_legacy(d.text for d in self.documents) == stored.checksum):
            stored = replace(stored, checksum=shard.manifest.checksum)
        if shard.manifest != stored:
            raise IntegrityError(
                f"manifest mismatch for source {self.manifest.source!r}: "
                f"stored {self.manifest}, recomputed {shard.manifest}"
            )
        if (dup := _duplicate_id(self.documents)) is not None:
            raise IntegrityError(f"duplicate document id {dup!r}")
        return shard


def _duplicate_id(docs: Iterable[Document]) -> str | None:
    """The first id that an earlier document already has, if any."""
    seen: set[str] = set()
    for d in docs:
        if d.id in seen:
            return d.id
        seen.add(d.id)
    return None


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


_RECORD_FIELDS = tuple((name, str) for name in ("id", "source", "domain", "text"))
_MANIFEST_FIELDS = (("source", str), ("doc_count", int), ("token_count", int), ("checksum", str))
_TYPE_NAMES = {str: "a string", int: "a JSON integer"}


def _where(path: Path, lineno: int | None) -> str:
    """A line for messages: `path:lineno`, or `path: last line` for a line read from the end."""
    return f"{path}: last line" if lineno is None else f"{path}:{lineno}"


def _check_fields(obj: dict, fields: tuple, path: Path, lineno: int | None,
                  escaped: bool) -> None:
    """Each field is present with its JSON type; a bool is no integer. A line
    with a \\u escape (`escaped`) may hold a lone surrogate, which has no UTF-8
    form, so only then are its strings encoded."""
    for name, kind in fields:
        if type(obj.get(name)) is not kind:
            if name not in obj:
                raise ShardFormatError(f"{_where(path, lineno)}: missing field {name!r}")
            raise ShardFormatError(
                f"{_where(path, lineno)}: field {name!r} must be {_TYPE_NAMES[kind]}")
    if escaped:
        for name, kind in fields:
            if kind is str:
                try:
                    obj[name].encode("utf-8")
                except UnicodeEncodeError:
                    raise ShardFormatError(
                        f"{_where(path, lineno)}: field {name!r} holds a lone surrogate") from None


def _parse_manifest(obj: dict, path: Path, lineno: int | None, escaped: bool) -> Manifest:
    _check_fields(obj, _MANIFEST_FIELDS, path, lineno, escaped)
    return Manifest(**{name: obj[name] for name, _ in _MANIFEST_FIELDS})


def _parse_record(obj: dict, path: Path, lineno: int, escaped: bool) -> Document:
    _check_fields(obj, _RECORD_FIELDS, path, lineno, escaped)
    try:
        domain = Domain(obj["domain"])
    except ValueError:
        raise ShardFormatError(
            f"{path}:{lineno}: unknown domain {obj['domain']!r}"
        ) from None
    return Document(id=obj["id"], source=obj["source"], domain=domain, text=obj["text"])


def read_shard(path: str | Path) -> CorpusShard:
    """Read and verify one shard file; document order is preserved. The shard
    returned carries the `b2:` checksum, whatever form the file holds."""
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
                # A backslash is found at memchr speed, about 9 times faster
                # than "\\u"; most lines hold none.
                escaped = "\\" in line and "\\u" in line
                if obj.get("__manifest__"):
                    if manifest is not None:
                        raise ShardFormatError(f"{path}:{lineno}: multiple manifest lines")
                    manifest = _parse_manifest(obj, path, lineno, escaped)
                    continue
                if manifest is not None:
                    raise ShardFormatError(f"{path}:{lineno}: record after manifest line")
                docs.append(_parse_record(obj, path, lineno, escaped))
    except UnicodeDecodeError as exc:
        raise ShardFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if manifest is None:
        raise ShardFormatError(f"{path}: missing manifest line")
    return CorpusShard(tuple(docs), manifest).verify()


_TAIL_BLOCK = 1 << 12  # bytes; a manifest line is about 150


def read_manifest(path: str | Path) -> Manifest:
    """The manifest of a shard file from its last non-blank line alone, with the
    checks `read_shard` gives a manifest line. Only the file's tail is read, so
    its records, counts and checksum are not verified."""
    path = Path(path)
    with open(path, "rb") as fh:
        pos = fh.seek(0, os.SEEK_END)
        tail = b""
        while True:  # doubling blocks back from the end, until a break precedes the last line
            step = min(pos, max(_TAIL_BLOCK, len(tail)))
            pos -= step
            fh.seek(pos)
            tail = fh.read(step) + tail
            # Breaks are \n, \r and \r\n, as for read_shard's universal newlines,
            # and the trailing ones end blank lines.
            body = tail.rstrip(b"\r\n")
            start = max(body.rfind(b"\n"), body.rfind(b"\r")) + 1
            if start or not pos:
                break
    try:
        line = body[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ShardFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        obj = json.loads(line) if line else None
    except json.JSONDecodeError as exc:
        raise ShardFormatError(f"{_where(path, None)}: invalid JSON ({exc.msg})") from None
    if not (isinstance(obj, dict) and obj.get("__manifest__")):
        raise ShardFormatError(f"{path}: missing manifest line")
    return _parse_manifest(obj, path, None, "\\u" in line)


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
    """Write a shard byte-deterministically (atomic replace on success). A record
    line is what `json.dumps(record, ensure_ascii=False)` gives, built from the
    C string encoder that it calls: half the time of a `json.dumps` per record."""
    with atomic_write(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as fh:
        for d in shard.documents:
            fh.write(f'{{"id": {_json_str(d.id)}, "source": {_json_str(d.source)}, '
                     f'"domain": {_json_str(d.domain.value)}, "text": {_json_str(d.text)}}}\n')
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
    its manifest is trusted, as `read_shard` verified it. Documents of several
    shards must have distinct ids, or IntegrityError names the first repeated
    one and the source.
    """
    shards = list(shards)
    if len(shards) != 1:
        merged = CorpusShard.from_documents(
            (doc for shard in shards for doc in shard.documents), source=source)
        if (dup := _duplicate_id(merged.documents)) is not None:
            raise IntegrityError(
                f"duplicate document id {dup!r} in source {merged.manifest.source!r}")
        return merged
    (shard,) = shards
    if source is None:
        source = _common_source(shard.documents)
    return CorpusShard(shard.documents, replace(shard.manifest, source=source))
