"""Exact-substring deduplication over token streams via suffix arrays.

Documents are concatenated into one stream of 32-bit token ids with a unique
separator id between consecutive documents; a separator occurs exactly once in
the stream, so no repeated substring can cross a document boundary.

`find_duplicates` reports *maximal matching spans*: spans of at least
`min_match` tokens whose token sequence occurs at two or more distinct stream
positions, and which are not contained in a longer span with that property.
Each reported span is re-verified against the stream by direct comparison.
Overlapping spans inside one document are merged only for accounting and
removal decisions (`apply_policy`), because the union of two distinct repeats
need not itself occur twice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import CorpusShard, tokenize
from .errors import CapacityError, IntegrityError

_MAX_IDS = 2**31 - 1


@dataclass(frozen=True)
class TokenStream:
    tokens: np.ndarray  # int32 token ids, separators included
    doc_boundaries: tuple[tuple[int, int, int], ...]  # (doc_index, start, end)
    doc_ids: tuple[str, ...]
    vocab: dict[str, int]
    inverse: tuple[str, ...]
    sentinel_base: int

    def detokenize(self, doc_index: int) -> list[str]:
        _, start, end = self.doc_boundaries[doc_index]
        return [self.inverse[i] for i in self.tokens[start:end]]


@dataclass(frozen=True)
class SuffixIndex:
    suffix_array: np.ndarray  # permutation of positions
    lcp: np.ndarray  # lcp[i] = common prefix length of suffixes sa[i], sa[i+1]


@dataclass(frozen=True)
class DuplicateSpan:
    doc_id: str
    token_start: int  # offset inside the document
    token_len: int
    match_doc_id: str  # document holding the earliest other occurrence


@dataclass(frozen=True)
class DedupReport:
    input_tokens: int
    duplicate_tokens: int  # tokens covered by merged spans, counted per occurrence
    removed_docs: int
    removed_tokens: int
    spans: int  # merged span count
    stage: str


def build_stream(shards: list[CorpusShard]) -> TokenStream:
    """Concatenate documents with unique separator ids between them."""
    vocab: dict[str, int] = {}
    ids: list[np.ndarray] = []
    boundaries = []
    doc_ids = []
    seen: set[str] = set()
    pos = 0
    doc_index = 0
    for shard in shards:
        for doc in shard.documents:
            if doc.id in seen:
                raise IntegrityError(f"duplicate document id {doc.id!r} across shards")
            seen.add(doc.id)
            toks = tokenize(doc.text)
            row = np.empty(len(toks), dtype=np.int64)
            for i, tok in enumerate(toks):
                tid = vocab.get(tok)
                if tid is None:
                    tid = len(vocab)
                    vocab[tok] = tid
                row[i] = tid
            ids.append(row)
            boundaries.append((doc_index, pos, pos + len(toks)))
            doc_ids.append(doc.id)
            pos += len(toks) + 1  # one separator slot after each doc but the last
            doc_index += 1
    n_docs = doc_index
    n_separators = max(0, n_docs - 1)
    if len(vocab) + n_separators > _MAX_IDS:
        raise CapacityError(
            f"{len(vocab)} tokens + {n_separators} separators exceed the 32-bit id space"
        )
    sentinel_base = len(vocab)
    # pos counted one separator slot per doc; the last doc has none.
    total = pos - 1 if n_docs > 0 else 0
    tokens = np.empty(total, dtype=np.int32)
    for i, (row, (_, start, end)) in enumerate(zip(ids, boundaries)):
        tokens[start:end] = row
        if i < n_docs - 1:
            tokens[end] = sentinel_base + i
    return TokenStream(
        tokens=tokens,
        doc_boundaries=tuple(boundaries),
        doc_ids=tuple(doc_ids),
        vocab=vocab,
        inverse=tuple(vocab),
        sentinel_base=sentinel_base,
    )


def _suffix_array(arr: np.ndarray) -> np.ndarray:
    """Prefix-doubling suffix array (deterministic, O(n log^2 n))."""
    n = arr.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    _, rank = np.unique(arr, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        sa = np.lexsort((key2, rank))
        r_sorted = rank[sa]
        k_sorted = key2[sa]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (r_sorted[1:] != r_sorted[:-1]) | (k_sorted[1:] != k_sorted[:-1])
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[sa] = np.cumsum(changed)
        rank = new_rank
        if rank[sa[-1]] == n - 1:
            return sa
        k *= 2


def _lcp_kasai(arr: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai's algorithm; lcp[i] pairs sa[i] with sa[i+1]."""
    n = sa.size
    if n <= 1:
        return np.empty(0, dtype=np.int64)
    tokens = arr.tolist()
    sa_list = sa.tolist()
    rank = [0] * n
    for r, p in enumerate(sa_list):
        rank[p] = r
    lcp = [0] * (n - 1)
    h = 0
    for i in range(n):
        r = rank[i]
        if r == n - 1:
            h = 0
            continue
        j = sa_list[r + 1]
        while i + h < n and j + h < n and tokens[i + h] == tokens[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return np.asarray(lcp, dtype=np.int64)


def build_suffix_index(stream: TokenStream) -> SuffixIndex:
    sa = _suffix_array(stream.tokens)
    lcp = _lcp_kasai(stream.tokens, sa)
    return SuffixIndex(suffix_array=sa, lcp=lcp)


def _repeat_lengths(index: SuffixIndex) -> np.ndarray:
    """rep[p] = longest prefix of the suffix at p shared with any other suffix."""
    sa = index.suffix_array
    lcp = index.lcp
    n = sa.size
    rep = np.zeros(n, dtype=np.int64)
    if n >= 2:
        left = np.concatenate(([0], lcp))
        right = np.concatenate((lcp, [0]))
        rep[sa] = np.maximum(left, right)
    return rep


def _doc_of(stream: TokenStream, pos: int, starts: np.ndarray) -> int:
    i = int(np.searchsorted(starts, pos, side="right")) - 1
    return i


def find_duplicates(index: SuffixIndex, stream: TokenStream, min_match: int) -> list[DuplicateSpan]:
    """Maximal spans (>= min_match tokens) occurring at >= 2 distinct positions.

    A position p starts a maximal span iff rep[p] >= min_match and no earlier
    position covers [p, p + rep[p]); since p -> p + rep[p] is non-decreasing,
    that is exactly where the covered end strictly increases. Each span is
    verified to occur at its earliest other position before being reported.
    """
    if min_match < 2:
        raise ValueError("min_match must be >= 2")
    n = stream.tokens.size
    if n == 0:
        return []
    sa = index.suffix_array
    lcp = index.lcp
    rep = _repeat_lengths(index)
    end = np.arange(n, dtype=np.int64) + rep
    keep = rep >= min_match
    keep[1:] &= end[1:] > end[:-1]
    starts_positions = np.nonzero(keep)[0]
    if starts_positions.size == 0:
        return []

    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n, dtype=np.int64)
    doc_starts = np.asarray([b[1] for b in stream.doc_boundaries], dtype=np.int64)
    tokens = stream.tokens

    spans = []
    for p in starts_positions.tolist():
        length = int(rep[p])
        # Earliest other occurrence: walk the SA block whose pairwise lcp >= length.
        # Ranks other than r hold positions != p, so p itself is never collected.
        r = int(rank[p])
        best = n
        rr = r
        while rr > 0 and lcp[rr - 1] >= length:
            rr -= 1
            if sa[rr] < best:
                best = int(sa[rr])
        rr = r
        while rr < n - 1 and lcp[rr] >= length:
            rr += 1
            if sa[rr] < best:
                best = int(sa[rr])
        if best >= n:
            raise IntegrityError(f"span at {p} (len {length}) has no matching occurrence")
        if not np.array_equal(tokens[p:p + length], tokens[best:best + length]):
            raise IntegrityError(f"span at {p} does not match its occurrence at {best}")

        doc_i = _doc_of(stream, p, doc_starts)
        _, d_start, d_end = stream.doc_boundaries[doc_i]
        if not (d_start <= p and p + length <= d_end):
            raise IntegrityError(f"span at {p} crosses a document boundary")
        match_doc_i = _doc_of(stream, best, doc_starts)
        spans.append(DuplicateSpan(
            doc_id=stream.doc_ids[doc_i],
            token_start=p - d_start,
            token_len=length,
            match_doc_id=stream.doc_ids[match_doc_i],
        ))
    return spans


def merge_spans(spans: list[DuplicateSpan]) -> dict[str, list[tuple[int, int]]]:
    """Merge overlapping/adjacent spans per document into (start, end) extents."""
    by_doc: dict[str, list[tuple[int, int]]] = {}
    for s in spans:
        by_doc.setdefault(s.doc_id, []).append((s.token_start, s.token_start + s.token_len))
    merged: dict[str, list[tuple[int, int]]] = {}
    for doc_id, intervals in by_doc.items():
        intervals.sort()
        out = [intervals[0]]
        for start, end in intervals[1:]:
            if start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], end))
            else:
                out.append((start, end))
        merged[doc_id] = out
    return merged


def apply_policy(
    shards: list[CorpusShard],
    spans: list[DuplicateSpan],
    policy: str,
    stage: str = "single",
) -> tuple[list[CorpusShard], DedupReport]:
    """Remove documents per policy and account for coverage.

    remove_all: every document containing at least one span is deleted.
    keep_first: documents are visited in stream order; a document is deleted
    iff every one of its spans has its earliest other occurrence in a strictly
    earlier document that was retained. The earliest carrier of a sequence is
    therefore always kept, and purely internal repeats never delete a document.
    """
    if policy not in ("remove_all", "keep_first"):
        raise ValueError(f"unknown dedup policy {policy!r}")
    order: dict[str, int] = {}
    token_counts: dict[str, int] = {}
    for shard in shards:
        for doc in shard.documents:
            order[doc.id] = len(order)
            token_counts[doc.id] = doc.token_count
    for s in spans:
        if s.doc_id not in order:
            raise IntegrityError(f"span references unknown document {s.doc_id!r}")
        if s.match_doc_id not in order:
            raise IntegrityError(f"span references unknown document {s.match_doc_id!r}")

    merged = merge_spans(spans)
    duplicate_tokens = sum(end - start for spans_ in merged.values() for start, end in spans_)
    merged_count = sum(len(v) for v in merged.values())

    spans_by_doc: dict[str, list[DuplicateSpan]] = {}
    for s in spans:
        spans_by_doc.setdefault(s.doc_id, []).append(s)

    removed: set[str] = set()
    if policy == "remove_all":
        removed = set(spans_by_doc)
    else:
        retained: set[str] = set()
        for doc_id in sorted(order, key=order.get):
            doc_spans = spans_by_doc.get(doc_id)
            if not doc_spans:
                retained.add(doc_id)
                continue
            resolved = all(
                order[s.match_doc_id] < order[doc_id] and s.match_doc_id in retained
                for s in doc_spans
            )
            if resolved:
                removed.add(doc_id)
            else:
                retained.add(doc_id)

    out_shards = []
    for shard in shards:
        kept = [d for d in shard.documents if d.id not in removed]
        out_shards.append(CorpusShard.from_documents(kept, source=shard.manifest.source))
    report = DedupReport(
        input_tokens=sum(token_counts.values()),
        duplicate_tokens=duplicate_tokens,
        removed_docs=len(removed),
        removed_tokens=sum(token_counts[d] for d in removed),
        spans=merged_count,
        stage=stage,
    )
    return out_shards, report


def dedup_shards(
    shards: list[CorpusShard],
    min_match: int,
    policy: str,
    stage: str = "single",
) -> tuple[list[CorpusShard], DedupReport]:
    """One full pass: stream, index, span search, policy application."""
    stream = build_stream(shards)
    if stream.tokens.size == 0:
        spans: list[DuplicateSpan] = []
    else:
        index = build_suffix_index(stream)
        spans = find_duplicates(index, stream, min_match)
    return apply_policy(shards, spans, policy, stage=stage)


def staged_dedup(
    stage_groups: list[tuple[str, list[CorpusShard]]],
    min_match: int,
    policy: str,
) -> tuple[list[CorpusShard], list[DedupReport]]:
    """Per-group passes followed by one combined pass over the survivors."""
    names = [name for name, _ in stage_groups]
    if len(set(names)) != len(names):
        raise ValueError("stage group names must be unique")
    reports = []
    survivors: list[CorpusShard] = []
    for name, shards in stage_groups:
        out, report = dedup_shards(shards, min_match, policy, stage=name)
        reports.append(report)
        survivors.extend(out)
    final, combined = dedup_shards(survivors, min_match, policy, stage="combined")
    reports.append(combined)
    return final, reports
