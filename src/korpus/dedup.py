"""Exact-substring deduplication over token streams via suffix arrays.

Documents are concatenated into one stream of 32-bit token ids with a unique
separator id between consecutive documents; a separator occurs exactly once in
the stream, so no repeated substring can cross a document boundary.

The index is the stream's suffix array, built by prefix doubling (one sort of
a packed int64 key per round), and its LCP array, found by binary lifting over
the rank arrays of those rounds. Positions and ranks are int32, so a stream
holds at most 2**31 - 1 tokens.

`find_duplicates` reports *maximal matching spans*: spans of at least
`min_match` tokens whose token sequence occurs at two or more distinct stream
positions, and which are not contained in a longer span with that property.
Each span's earliest other occurrence comes from range-minimum queries in
O(log n), so a passage repeated k times costs O(k log n), not O(k^2). Each
reported span is re-verified against the stream by direct comparison.
Overlapping spans inside one document are merged only for accounting and
removal decisions (`apply_policy`), because the union of two distinct repeats
need not itself occur twice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

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
    suffix_array: np.ndarray  # int32 permutation of positions
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
    """Concatenate documents with unique separator ids between them.

    Token ids follow first occurrence in the stream.
    """
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__  # an unseen token gets the next id
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
            ids.append(np.fromiter(map(vocab.__getitem__, toks), dtype=np.int64, count=len(toks)))
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
    # pos counted one separator slot per doc; the last doc has none.
    total = pos - 1 if n_docs > 0 else 0
    if total > _MAX_IDS:
        raise CapacityError(f"a stream of {total} tokens exceeds the 32-bit index")
    sentinel_base = len(vocab)
    tokens = np.empty(total, dtype=np.int32)
    for i, (row, (_, start, end)) in enumerate(zip(ids, boundaries)):
        tokens[start:end] = row
        if i < n_docs - 1:
            tokens[end] = sentinel_base + i
    vocab.default_factory = None  # lookups raise KeyError again; breaks the reference cycle
    return TokenStream(
        tokens=tokens,
        doc_boundaries=tuple(boundaries),
        doc_ids=tuple(doc_ids),
        vocab=vocab,
        inverse=tuple(vocab),
        sentinel_base=sentinel_base,
    )


def _suffix_array(arr: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prefix-doubling suffix array plus the rank array of every round.

    ranks[k][p] is the dense rank of arr[p:p + 2**k] (cut at the stream end), so
    two positions share a rank at level k iff their 2**k-token prefixes are
    equal. Each round sorts one packed int64 key, rank * (n + 1) + next rank + 1,
    with next rank -1 past the end. Tied keys get one rank whatever their order,
    and the last round's keys are all distinct, so the sort need not be stable.
    """
    n = arr.size
    if n == 0:
        return np.empty(0, dtype=np.int32), []
    rank = np.unique(arr, return_inverse=True)[1].astype(np.int32)
    ranks = [rank]
    k = 1
    while True:
        key = rank.astype(np.int64)
        key *= n + 1
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        sorted_key = key[order]
        changed = np.empty(n, dtype=np.int32)
        changed[0] = 0
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=changed[1:])
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.cumsum(changed, dtype=np.int32)
        ranks.append(rank)
        if rank[order[-1]] == n - 1:
            return order.astype(np.int32), ranks
        k *= 2


def _lcp(sa: np.ndarray, ranks: list[np.ndarray]) -> np.ndarray:
    """lcp[i] = common prefix length of suffixes sa[i], sa[i+1].

    Binary lifting over the rank levels of `_suffix_array`, top level first: a
    pair advances by 2**k where both 2**k-token blocks are in range and share a
    rank. The top level's ranks are all distinct, so every lcp is below
    2**top and the lifts below the top sum to it.
    """
    n = sa.size
    if n <= 1:
        return np.empty(0, dtype=np.int32)
    a = sa[:-1].copy()
    b = sa[1:].copy()
    for k in range(len(ranks) - 2, -1, -1):
        step = 1 << k
        limit = n - step
        live = np.flatnonzero((a <= limit) & (b <= limit))
        rank = ranks[k]
        live = live[rank[a[live]] == rank[b[live]]]
        a[live] += step
        b[live] += step
    return a - sa[:-1]


def build_suffix_index(stream: TokenStream) -> SuffixIndex:
    sa, ranks = _suffix_array(stream.tokens)
    lcp = _lcp(sa, ranks)
    return SuffixIndex(suffix_array=sa, lcp=lcp)


def _repeat_lengths(index: SuffixIndex) -> np.ndarray:
    """rep[p] = longest prefix of the suffix at p shared with any other suffix."""
    sa = index.suffix_array
    lcp = index.lcp
    n = sa.size
    by_rank = np.zeros(n, dtype=np.int32)
    by_rank[:-1] = lcp
    np.maximum(by_rank[1:], lcp, out=by_rank[1:])
    rep = np.empty(n, dtype=np.int32)
    rep[sa] = by_rank
    return rep


def _sparse_min(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse table for range minima, flattened: level k starts at offsets[k].

    flat[offsets[k] + i] = min(values[i:i + 2**k]).
    """
    levels = [values]
    width = 1
    while 2 * width <= values.size:
        prev = levels[-1]
        levels.append(np.minimum(prev[:-width], prev[width:]))
        width *= 2
    offsets = np.cumsum([0] + [lv.size for lv in levels[:-1]])
    return np.concatenate(levels), offsets


def _range_min(table: tuple[np.ndarray, np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(values[lo:hi]) per element, for hi > lo."""
    flat, offsets = table
    k = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo)), exact for integers
    base = offsets[k]
    return np.minimum(flat[base + lo], flat[base + hi - (1 << k)])


def find_duplicates(index: SuffixIndex, stream: TokenStream, min_match: int) -> list[DuplicateSpan]:
    """Maximal spans (>= min_match tokens) occurring at >= 2 distinct positions.

    A position p starts a maximal span iff rep[p] >= min_match and no earlier
    position covers [p, p + rep[p]); since p -> p + rep[p] is non-decreasing,
    that is exactly where the covered end strictly increases.

    The span's other occurrences are the suffix-array block around rank[p]
    whose adjacent lcp values are >= rep[p]. The block bounds come from binary
    lifting on a range-minimum table over lcp, and the earliest other
    occurrence from a range-minimum table over sa, both vectorised over all
    span starts: O(log n) per span, however often a passage repeats. A block
    never leaves a run of lcp >= min_match, so the tables cover only the m
    ranks inside such runs: O(m log m) time and int32 memory, which follow
    the amount of duplicated text rather than the stream length.
    Each span is verified against its earliest other occurrence before being
    reported.
    """
    if min_match < 2:
        raise ValueError("min_match must be >= 2")
    n = stream.tokens.size
    if n == 0:
        return []
    sa = index.suffix_array
    lcp = index.lcp
    rep = _repeat_lengths(index)
    end = np.arange(n, dtype=np.int32) + rep
    keep = rep >= min_match
    keep[1:] &= end[1:] > end[:-1]
    starts = np.flatnonzero(keep)
    if starts.size == 0:
        return []
    lengths = rep[starts]

    # Ranks next to an lcp >= min_match. Between two runs of them the
    # compressed lcp is the original gap value, which is < min_match.
    good = lcp >= min_match
    in_run = np.zeros(n, dtype=bool)
    in_run[:-1] |= good
    in_run[1:] |= good
    run_ranks = np.flatnonzero(in_run)
    m = run_ranks.size
    run_sa = sa[run_ranks]
    # t = compressed rank of each span start; every start lies in a run.
    by_pos = np.argsort(run_sa)
    t = by_pos[np.searchsorted(run_sa, starts, sorter=by_pos)]

    lcp_flat, lcp_offsets = _sparse_min(lcp[run_ranks[:-1]])
    lo = t.copy()
    hi = t.copy()
    for k in range(lcp_offsets.size - 1, -1, -1):
        width = 1 << k
        level = lcp_flat[lcp_offsets[k]:lcp_offsets[k] + m - width]
        # level[i] = min lcp over compressed ranks i..i + width.
        left = lo - width
        ok = left >= 0
        ok[ok] = level[left[ok]] >= lengths[ok]
        lo[ok] = left[ok]
        ok = hi + width <= m - 1
        ok[ok] = level[hi[ok]] >= lengths[ok]
        hi[ok] += width
    del lcp_flat

    sa_min = _sparse_min(run_sa)
    best = np.full(starts.size, n, dtype=np.int64)
    has = lo < t
    best[has] = _range_min(sa_min, lo[has], t[has])
    has = t < hi
    best[has] = np.minimum(best[has], _range_min(sa_min, t[has] + 1, hi[has] + 1))

    doc_starts = np.asarray([b[1] for b in stream.doc_boundaries], dtype=np.int64)
    doc_of_start = np.searchsorted(doc_starts, starts, side="right") - 1
    doc_of_match = np.searchsorted(doc_starts, best, side="right") - 1
    tokens = stream.tokens
    spans = []
    for p, length, q, doc_i, match_doc_i in zip(
        starts.tolist(), lengths.tolist(), best.tolist(),
        doc_of_start.tolist(), doc_of_match.tolist(),
    ):
        if q >= n:
            raise IntegrityError(f"span at {p} (len {length}) has no matching occurrence")
        if not np.array_equal(tokens[p:p + length], tokens[q:q + length]):
            raise IntegrityError(f"span at {p} does not match its occurrence at {q}")
        _, d_start, d_end = stream.doc_boundaries[doc_i]
        if not (d_start <= p and p + length <= d_end):
            raise IntegrityError(f"span at {p} crosses a document boundary")
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
        if len(kept) == len(shard.documents):
            out_shards.append(shard)  # nothing removed: its manifest still holds
        else:
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
