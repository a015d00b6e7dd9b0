"""Exact-substring deduplication over token streams via suffix arrays.

Documents are laid out in one stream of 32-bit token ids, with a separator id
of its own after each document but the last; a separator occurs exactly once
in the stream, so no repeated substring can cross a document boundary. The
layout, `bounds`, is the running sum of the documents' token counts, each
plus one for its separator.
`staged_dedup` tokenizes and indexes every group's documents once, and each of
its passes reads that index's run ranks in the documents it sees (`_Runs`).

The index is the stream's suffix array, built by prefix doubling with the
token ids as the first ranks. Each round after the first re-sorts only the
suffixes whose prefix so far is shared (Larsson and Sadakane), so a suffix
costs a sort only while it is tied. The LCP array comes from binary lifting
over the rank arrays of those rounds, which the last, all-distinct one is not
kept for. Positions and ranks are int32, so a stream holds at most 2**31 - 1
tokens.

`find_duplicates` reports *maximal matching spans*: spans of at least
`min_match` tokens whose token sequence occurs at two or more distinct stream
positions, and which are not contained in a longer span with that property.
Each span's earliest other occurrence comes from range-minimum queries over
the m run ranks in O(log m), so a passage repeated k times costs O(k log m),
not O(k^2). Each reported span is re-verified against the stream by direct
comparison.
Overlapping spans inside one document are merged only for accounting and
removal decisions (`apply_policy`), because the union of two distinct repeats
need not itself occur twice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import CorpusShard, _duplicate_id, tokenize
from .errors import CapacityError, ConfigError, IntegrityError

_MAX_IDS = 2**31 - 1
COMBINED = "combined"  # stage name of the final pass over every group's survivors
# Group names are file names: `$defs/name`. The end anchor is `(?![\s\S])`, not
# `$`, because Python's `$` also matches before a final newline.
NAME_PATTERN = "^[A-Za-z0-9][A-Za-z0-9_-]*(?![\\s\\S])"


@dataclass(frozen=True)
class TokenStream:
    """Document i is tokens[bounds[i]:bounds[i + 1] - 1], and its separator is
    at bounds[i + 1] - 1, which for the last document is the stream's end."""

    tokens: np.ndarray  # int32 token ids, separators included
    bounds: np.ndarray  # int64, one entry per document and one more
    doc_ids: tuple[str, ...]


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


class _Vocab(dict):
    """Token -> id; an unseen token gets the next id."""

    def __missing__(self, token: str) -> int:
        token_id = self[token] = len(self)
        return token_id


def build_stream(shards: list[CorpusShard]) -> TokenStream:
    """Tokenize each document once, straight into its place in the stream.

    The layout comes from the documents' token counts before any text is
    tokenized, so a stream longer than int32 positions allow (2**31 - 1
    tokens, separators included) raises `CapacityError` first. Token ids
    follow first occurrence, and the separator after document i is V + i
    for a vocabulary of V ids. V is at most the token count, so every id is
    below the stream length.
    """
    docs = [doc for shard in shards for doc in shard.documents]
    if (dup := _duplicate_id(docs)) is not None:
        raise IntegrityError(f"duplicate document id {dup!r} across shards")
    bounds = np.cumsum([0, *(doc.token_count + 1 for doc in docs)], dtype=np.int64)
    n = max(int(bounds[-1]) - 1, 0)  # the last document has no separator
    if n > _MAX_IDS:
        raise CapacityError(f"a stream of {n} tokens exceeds the 32-bit index")
    vocab = _Vocab()
    lookup = vocab.__getitem__
    tokens = np.empty(n, dtype=np.int32)
    for doc, start in zip(docs, bounds.tolist()):
        tokens[start:start + doc.token_count] = np.fromiter(
            map(lookup, tokenize(doc.text)), dtype=np.int32, count=doc.token_count)
    tokens[bounds[1:-1] - 1] = np.arange(len(vocab), len(vocab) + len(docs) - 1)
    return TokenStream(tokens=tokens, bounds=bounds, doc_ids=tuple(doc.id for doc in docs))


def _suffix_array(arr: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prefix-doubling suffix array that re-sorts only the suffixes still tied
    (Larsson and Sadakane, TCS 2007), plus the rank arrays `_lcp` needs.

    `arr` holds ids in [0, 2**31 - 1), as a stream does. ranks[k][p] ranks
    arr[p:p + 2**k], cut at the stream end: two positions
    share a rank at level k iff those prefixes are equal, and ranks follow the
    prefixes' order. Level 0 is `arr` itself. At a later level, a rank is the
    SA index of the first suffix of its group (its head), and the array has one
    more entry, -1 at index n, for the empty suffix.

    Round 1 sorts every position by its first two ids. Each later round sorts
    only the SA slots of groups that still tie, each by (head, rank of the
    suffix 2**k further on), in one packed int64 key; a group that has become
    a singleton keeps its slot and its head for good. The sort need not be
    stable, as tied keys form one group whatever their order. When no group
    ties, the level just sorted is not kept: its ranks are all distinct, and
    `_lcp` never reads it.
    """
    n = arr.size
    if n == 0:
        return np.empty(0, dtype=np.int32), []
    ranks = [arr]
    key = arr.astype(np.int64)
    key *= int(arr.max()) + 2
    key[:-1] += arr[1:]
    key[:-1] += 1  # the next id + 1, or 0 past the end
    sa = pos = np.argsort(key).astype(np.int32)
    key = key[pos]
    slots = np.arange(n, dtype=np.int32)  # the SA slots just sorted; pos = sa[slots]
    step = 2
    while True:
        new = np.empty(slots.size, dtype=bool)  # a group starts at this slot
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
        tied = ~new
        tied[:-1] |= tied[1:]  # in a group of two or more
        if not tied.any():
            return sa, ranks
        heads = np.where(new, slots, 0)
        del new
        np.maximum.accumulate(heads, out=heads)
        if len(ranks) == 1:
            rank = np.empty(n + 1, dtype=np.int32)
            rank[n] = -1
        else:
            rank = ranks[-1].copy()
        rank[pos] = heads
        ranks.append(rank)
        slots = slots[tied]
        pos = pos[tied]
        key = heads[tied].astype(np.int64)
        del heads, tied
        key *= n + 1
        key += rank[pos + step]  # in [-1, n): heads stay apart
        order = np.argsort(key).astype(np.int32)
        key = key[order]
        pos = pos[order]
        del order
        sa[slots] = pos
        step *= 2


_LCP_BLOCK = 1 << 14  # suffix pairs lifted together; their temporaries stay below 1 MB


def _lcp(sa: np.ndarray, ranks: list[np.ndarray]) -> np.ndarray:
    """lcp[i] = common prefix length of suffixes sa[i], sa[i+1].

    Binary lifting over the rank levels of `_suffix_array`, top level first: a
    pair advances by 2**k where both 2**k-token blocks are in range and share a
    rank. The level above the top has all ranks distinct, so every lcp is below
    2**len(ranks) and the lifts sum to it. The pairs are lifted one block at a
    time, each level over the whole block: a rank read out of range is clipped,
    and the range test discards it.
    """
    n = sa.size
    lcp = np.empty(max(n - 1, 0), dtype=np.int32)
    for lo in range(0, n - 1, _LCP_BLOCK):
        hi = min(lo + _LCP_BLOCK, n - 1)
        a = sa[lo:hi].copy()
        b = sa[lo + 1:hi + 1].copy()
        for k in range(len(ranks) - 1, -1, -1):
            step = 1 << k
            rank = ranks[k]
            lift = np.maximum(a, b) <= n - step
            lift &= rank.take(a, mode="clip") == rank.take(b, mode="clip")
            np.add(a, step, out=a, where=lift)
            np.add(b, step, out=b, where=lift)
        np.subtract(a, sa[lo:hi], out=lcp[lo:hi])
    return lcp


def build_suffix_index(stream: TokenStream) -> SuffixIndex:
    sa, ranks = _suffix_array(stream.tokens)
    return SuffixIndex(suffix_array=sa, lcp=_lcp(sa, ranks))


@dataclass(frozen=True)
class _Runs:
    """The run ranks of an index, in rank order: the ranks next to an lcp >=
    min_match, the only ones whose suffix shares min_match tokens with another."""

    pos: np.ndarray  # int32 stream position of each run rank
    doc: np.ndarray  # its document
    lcp: np.ndarray  # lcp to the next run rank: exact where >= min_match, else below it
    by_pos: np.ndarray  # the run ranks' indices in stream order


def _run_ranks(index: SuffixIndex, stream: TokenStream, min_match: int) -> _Runs:
    """Between two runs, the lcp kept is the one after the first run's last
    rank: below min_match, as is the true lcp across the gap."""
    good = np.flatnonzero(index.lcp >= min_match)
    ranks = np.union1d(good, good + 1)
    pos = index.suffix_array[ranks]
    return _Runs(pos=pos, doc=np.searchsorted(stream.bounds, pos, side="right") - 1,
                 lcp=index.lcp[ranks[:-1]], by_pos=np.argsort(pos))


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


def _seen_runs(runs: _Runs, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The run ranks in the documents where `docs` holds: their positions in
    rank order, the lcp of each to the next, and their indices in stream order.

    The lcp of two suffixes is the minimum lcp over the ranks between them
    (Manber and Myers, SIAM J. Comput. 1993); over `runs.lcp` it is exact
    where >= min_match and below min_match elsewhere, as `runs.lcp` is."""
    seen = docs[runs.doc]
    kept = np.flatnonzero(seen)
    lcp = np.minimum.reduceat(runs.lcp[:kept[-1]], kept[:-1]) if kept.size else runs.lcp[:0]
    in_order = runs.by_pos[seen[runs.by_pos]]
    return runs.pos[kept], lcp, (np.cumsum(seen) - 1)[in_order]


def find_duplicates(
    index: SuffixIndex, stream: TokenStream, min_match: int, *,
    runs: _Runs | None = None, docs: np.ndarray | None = None,
) -> list[DuplicateSpan]:
    """Maximal spans (>= min_match tokens) occurring at >= 2 distinct positions.

    Only the documents where `docs` holds (one bool per stream document,
    default all) are searched, for spans and for their other occurrences;
    positions stay the stream's. `runs` is the index's `_run_ranks` for this
    `min_match`, which `staged_dedup` builds once for all its passes.

    rep[p] is the longest prefix of the suffix at p shared with another
    searched suffix. p starts a maximal span iff rep[p] >= min_match and no
    earlier position covers [p, p + rep[p]); since p -> p + rep[p] is
    non-decreasing, that is exactly where the covered end strictly increases.
    rep[p] >= min_match only at a run rank, and where p - 1 is no searched
    run rank, rep[p - 1] < min_match; so the rule runs over the m searched
    run ranks (`_seen_runs`), in stream order.

    The span's other occurrences are the block of those ranks around p's
    whose adjacent lcp values are >= rep[p]. Its bounds come from binary
    lifting on a range-minimum table over lcp, and the earliest other
    occurrence from one over the positions, vectorised over all span starts:
    O(log m) per span, however often a passage repeats, and O(m log m) time
    and int32 memory in all, which follow the duplicated text, not the
    stream length. Each span is verified against that occurrence.
    """
    _check_min_match(min_match)
    runs = _run_ranks(index, stream, min_match) if runs is None else runs
    docs = np.ones(len(stream.doc_ids), dtype=bool) if docs is None else docs
    run_sa, lcp, rank = _seen_runs(runs, docs)
    m = run_sa.size
    pos = run_sa[rank]
    rep = np.maximum(np.append(lcp, 0), np.insert(lcp, 0, 0))[rank]  # the larger neighbour lcp
    keep = rep >= min_match
    keep[1:] &= (pos[1:] > pos[:-1] + 1) | (rep[1:] >= rep[:-1])
    t = rank[keep]
    if t.size == 0:
        return []
    starts = pos[keep]
    lengths = rep[keep]
    n = stream.tokens.size

    lcp_flat, lcp_offsets = _sparse_min(lcp)
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

    doc_of_start = np.searchsorted(stream.bounds, starts, side="right") - 1
    doc_of_match = np.searchsorted(stream.bounds, best, side="right") - 1
    tokens = stream.tokens
    bounds = stream.bounds.tolist()
    spans = []
    for p, length, q, doc_i, match_doc_i in zip(
        starts.tolist(), lengths.tolist(), best.tolist(),
        doc_of_start.tolist(), doc_of_match.tolist(),
    ):
        if q >= n:
            raise IntegrityError(f"span at {p} (len {length}) has no matching occurrence")
        if not np.array_equal(tokens[p:p + length], tokens[q:q + length]):
            raise IntegrityError(f"span at {p} does not match its occurrence at {q}")
        d_start = bounds[doc_i]
        if p + length > bounds[doc_i + 1] - 1:
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
    _check_policy(policy)
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
        # Every earlier document is decided by now: retained iff not removed.
        for doc_id in sorted(spans_by_doc, key=order.__getitem__):
            if all(order[s.match_doc_id] < order[doc_id] and s.match_doc_id not in removed
                   for s in spans_by_doc[doc_id]):
                removed.add(doc_id)

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


def _check_min_match(min_match: int) -> None:
    if min_match < 2:
        raise ConfigError("min_match must be >= 2")


def _check_policy(policy: str) -> None:
    if policy not in ("remove_all", "keep_first"):
        raise ConfigError(f"unknown dedup policy {policy!r}")


def staged_dedup(
    stage_groups: list[tuple[str, list[CorpusShard]]],
    min_match: int,
    policy: str,
) -> tuple[list[CorpusShard], list[DedupReport]]:
    """Per-group passes followed by one combined pass over the survivors.

    One stream and one suffix index hold every group's documents, so
    `CapacityError` bounds the tokens of all groups together. Each pass
    searches the index's run ranks, built once, in the documents it sees: its
    group's, then every group's survivors. The spans are those of a pass with
    a stream of its own, because they depend only on which token sequences
    are equal.
    """
    names = [name for name, _ in stage_groups]
    if len(set(names)) != len(names):
        raise ConfigError("stage group names must be unique")
    if COMBINED in names:
        raise ConfigError(f"stage group name {COMBINED!r} is reserved for the final pass")
    for name in names:
        if not re.search(NAME_PATTERN, name):
            raise ConfigError(f"stage group name {name!r} does not match {NAME_PATTERN!r}")
    _check_min_match(min_match)
    _check_policy(policy)
    stream = build_stream([shard for _, shards in stage_groups for shard in shards])
    index = build_suffix_index(stream)
    runs = _run_ranks(index, stream, min_match)
    doc_number = {doc_id: i for i, doc_id in enumerate(stream.doc_ids)}

    def dedup_pass(shards: list[CorpusShard], stage: str) -> tuple[list[CorpusShard], DedupReport]:
        docs = np.zeros(len(stream.doc_ids), dtype=bool)
        docs[[doc_number[doc.id] for shard in shards for doc in shard.documents]] = True
        spans = find_duplicates(index, stream, min_match, runs=runs, docs=docs)
        return apply_policy(shards, spans, policy, stage=stage)

    reports = []
    survivors: list[CorpusShard] = []
    for name, shards in stage_groups:
        out, report = dedup_pass(shards, name)
        reports.append(report)
        survivors.extend(out)
    final, combined = dedup_pass(survivors, COMBINED)
    return final, [*reports, combined]
