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
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

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


# FNV-1a is the byte loop h = ((h ^ b) * P) mod 2^64. It is computed here exactly
# with numpy:
# - The low byte s of h evolves alone: s' = ((s ^ b) * 0xB3) mod 256, as 0xB3 is
#   the low byte of P.
# - Each bit plane of s is a prefix XOR. With t = s ^ b, bit k of t * 0xB3 is
#   bit k of t XOR bit k of (t mod 2^k) * 0xB3: 0xB3 is odd, and the high part
#   of t adds nothing below bit k. So bit k of s' is bit k of s XOR bit k of
#   (r ^ b) * 0xB3, where r is s with bits k and up cleared. Once planes 0..k-1
#   are known at every byte, plane k is a prefix XOR: 8 scans.
# - The full state is a power sum. h ^ b == h + d with d = (s ^ b) - s, so after
#   bytes b_0..b_{L-1}, h_L = h_0 * P^L + sum_i d_i * P^(L-i) mod 2^64: one
#   wrapping uint64 dot product against a table of powers of P.
# The prefix XOR runs on bits packed into uint64 words in a lane order: a pass
# of 64 * W bytes is 64 lanes of W consecutive bytes, and bit m of word j
# belongs to byte j of lane m. An XOR accumulate over the words then scans all
# lanes at once, and each lane is corrected by the XOR of the lanes before it.
# The power sum runs in lane order too, so the bytes are never put back in
# natural order: byte j of lane m is byte i = mW + j of the pass, and its weight
# P^(n - i) is P^(n - mW) * P^(-j) (P is odd, so it has an inverse mod 2^64).
# The two kinds of work want different sizes. The scans are 9 numpy calls per
# plane whose temporaries take about 3 B per byte (the lane-order copy, the low
# bytes, one plane), so they run over a 64 KiB pass: fewer calls per byte. The
# power sum runs over 8 KiB pieces of the pass, 128 words of 64 lanes each, and
# casts its int16 d to uint64 inside the dot product (an unsafe cast wraps mod
# 2^64, as a negative d needs). One table weighs a piece: `_FNV_POWERS[64 j +
# m]` is P^(PASS - 1024 m - j), the weight of byte j of lane m in a full pass,
# and the piece that starts at word a takes it times P^(-a). A shorter pass
# scales the table's lanes by P^(n - PASS + (1024 - W) m) first. A call over
# 1 MiB then peaks at about 220 KiB under tracemalloc, and hashes about 10%
# faster than with the power sum in natural order, which put the bytes back
# from lane order first. 4 KiB pieces were slower.
_FNV_PASS = 1 << 16  # bytes; fnv1a_hex also hashes whole passes
_FNV_PIECE = 1 << 13  # bytes
_LANES = 64
_FNV_WIDTH = _FNV_PASS // _LANES  # bytes per lane of a full pass
_FNV_PRIME_LOW = np.uint8(_FNV_PRIME & 0xFF)
_FNV_PIECE_STEP = pow(_FNV_PRIME, -(_FNV_PIECE // _LANES), 1 << 64)  # P^(-words per piece)
_FNV_PASS_INVERSE = pow(_FNV_PRIME, -_FNV_PASS, 1 << 64)


def _geometric(first: int, ratio: int, count: int) -> np.ndarray:
    """first * ratio^k mod 2^64 for k = 0 .. count - 1, as uint64."""
    terms = np.full(count, ratio, dtype=np.uint64)
    terms[0] = first
    return np.multiply.accumulate(terms, out=terms)


def _fnv_powers() -> np.ndarray:
    """The weights of one piece of a full pass, in lane order (see above)."""
    inverse = pow(_FNV_PRIME, -1, 1 << 64)
    word = _geometric(1, inverse, _FNV_PIECE // _LANES)  # P^(-j)
    lane = _geometric(pow(_FNV_PRIME, _FNV_PASS, 1 << 64),
                      pow(inverse, _FNV_WIDTH, 1 << 64), _LANES)  # P^(PASS - 1024 m)
    table = np.multiply.outer(word, lane).reshape(-1)
    table.flags.writeable = False
    return table


_FNV_POWERS = _fnv_powers()


def _fnv1a_pass(chunk: np.ndarray, h: int) -> int:
    """The FNV-1a state after the bytes of `chunk` (at most a pass), from `h`."""
    n = chunk.size
    width = -(-n // _LANES)
    full = n // width  # lanes filled; the next holds the rest, and zeros pad the end
    data = np.zeros(width * _LANES, dtype=np.uint8)  # lane order
    grid = data.reshape(width, _LANES).T  # grid[m, j] is byte j of lane m
    grid[:full] = chunk[:full * width].reshape(full, width)
    if full < _LANES:
        grid[full, :n - full * width] = chunk[full * width:]
    # low[q] is the low byte before data[q] and low[q + LANES] the one after it;
    # lane m starts where lane m - 1 ends (low[1:LANES]). low[0] keeps all planes
    # of the start state, so each plane's scan starts from the right bit.
    low = np.zeros(data.size + _LANES, dtype=np.uint8)
    low[0] = h & 0xFF
    before, after = low[:-_LANES], low[_LANES:]
    for k in range(8):
        plane = np.uint8(1 << k)
        bits = np.bitwise_xor(before, data)
        bits *= _FNV_PRIME_LOW
        bits &= plane
        words = np.packbits(bits, bitorder="little").view("<u8")
        del bits  # before the unpacked plane takes its place
        np.bitwise_xor.accumulate(words, out=words)
        lanes = int(words[-1])  # bit m: the XOR over all of lane m
        for shift in (1, 2, 4, 8, 16, 32):
            lanes ^= lanes << shift
        words ^= np.uint64((lanes << 1) & _MASK64)  # the XOR over lanes 0..m-1
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        bits *= plane
        after |= bits
        del bits
        low[1:_LANES] = low[-_LANES:-1]
    # before[q] is the low byte s before the byte data[q]. A zero byte of the
    # padding has d = (s ^ 0) - s = 0, so whatever weight it gets adds nothing.
    grow = pow(_FNV_PRIME, n, 1 << 64)
    powers = _FNV_POWERS[:data.size]  # a pass of fewer than 128 words has one short piece
    if n != _FNV_PASS:
        scale = _geometric(grow * _FNV_PASS_INVERSE & _MASK64,
                           pow(_FNV_PRIME, _FNV_WIDTH - width, 1 << 64), _LANES)
        powers = (powers.reshape(-1, _LANES) * scale).reshape(-1)
    total, step = 0, 1
    for at in range(0, data.size, _FNV_PIECE):
        sp, bp = before[at:at + _FNV_PIECE], data[at:at + _FNV_PIECE]
        d = np.subtract(sp ^ bp, sp, dtype=np.int16)
        piece = np.einsum("i,i", d, powers[:d.size], dtype=np.uint64, casting="unsafe")
        total += step * int(piece)
        step = step * _FNV_PIECE_STEP & _MASK64
    return (h * grow + total) & _MASK64


def fnv1a_bytes(data: bytes, state: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over `data`, continuing from `state`. A call has a fixed cost
    of a few numpy passes, so callers hash large buffers, not small pieces."""
    buf = np.frombuffer(data, dtype=np.uint8)
    h = state
    for at in range(0, buf.size, _FNV_PASS):
        h = _fnv1a_pass(buf[at:at + _FNV_PASS], h)
    return h


def fnv1a_hex(chunks: Iterable[str]) -> str:
    """64-bit FNV-1a over the UTF-8 bytes of the concatenated chunks, hashed in
    batches of whole passes."""
    h = _FNV_OFFSET
    pending = bytearray()
    for chunk in chunks:
        pending += chunk.encode("utf-8")
        if len(pending) >= _FNV_PASS:
            whole = len(pending) - len(pending) % _FNV_PASS
            h = fnv1a_bytes(pending[:whole], h)
            del pending[:whole]
    return f"{fnv1a_bytes(pending, h):016x}"


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

    def verify(self) -> None:
        """Raise IntegrityError unless the manifest matches recomputed sums."""
        recomputed = CorpusShard.from_documents(self.documents, self.manifest.source).manifest
        if recomputed != self.manifest:
            raise IntegrityError(
                f"manifest mismatch for source {self.manifest.source!r}: "
                f"stored {self.manifest}, recomputed {recomputed}"
            )
        if (dup := _duplicate_id(self.documents)) is not None:
            raise IntegrityError(f"duplicate document id {dup!r}")


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
    shard = CorpusShard(tuple(docs), manifest)
    shard.verify()
    return shard


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
