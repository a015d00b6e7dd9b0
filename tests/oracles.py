"""Brute-force oracles, independent of the library's suffix-array machinery.

The repeat-length oracle compares the stream against itself at every shift
(O(n^2) total work) instead of sorting suffixes; span derivation and document
flagging are re-implemented with plain loops, and a span's earliest other
occurrence is found by comparing it with every window of the stream.
"""

from __future__ import annotations

import numpy as np


def build_oracle_stream(doc_token_lists: list[list[int]]):
    """Concatenate docs with unique negative separators; returns (array, bounds)."""
    arr: list[int] = []
    bounds = []
    sep = -1
    for i, toks in enumerate(doc_token_lists):
        if i > 0:
            arr.append(sep)
            sep -= 1
        start = len(arr)
        arr.extend(toks)
        bounds.append((start, len(arr)))
    return np.asarray(arr, dtype=np.int64), bounds


def _true_run_lengths(eq: np.ndarray) -> np.ndarray:
    """run[i] = number of consecutive True values starting at position i."""
    m = eq.size
    false_pos = np.flatnonzero(~eq)
    idx = np.searchsorted(false_pos, np.arange(m), side="left")
    ends = np.full(m, m, dtype=np.int64)
    has = idx < false_pos.size
    ends[has] = false_pos[idx[has]]
    return ends - np.arange(m)


def oracle_repeat_lengths(arr: np.ndarray) -> np.ndarray:
    """rep[i] = longest prefix of suffix i matching a suffix at any other position."""
    n = arr.size
    rep = np.zeros(n, dtype=np.int64)
    for d in range(1, n):
        run = _true_run_lengths(arr[:-d] == arr[d:])
        m = run.size
        np.maximum(rep[:m], run, out=rep[:m])
        np.maximum(rep[d:d + m], run, out=rep[d:d + m])
    return rep


def oracle_maximal_spans(rep, min_match: int) -> list[tuple[int, int]]:
    """(start, end) spans >= min_match, not contained in an earlier candidate."""
    spans = []
    for s, r in enumerate(rep):
        if r < min_match:
            continue
        if s > 0 and (s - 1) + rep[s - 1] >= s + r:
            continue
        spans.append((s, s + r))
    return spans


def oracle_doc_spans(doc_token_lists: list[list[int]], min_match: int):
    """Per-document spans and the set of flagged document indices."""
    arr, bounds = build_oracle_stream(doc_token_lists)
    rep = oracle_repeat_lengths(arr)
    spans = oracle_maximal_spans(rep, min_match)
    by_doc = []
    flagged = set()
    for start, end in spans:
        for doc_i, (a, b) in enumerate(bounds):
            if a <= start and end <= b:
                by_doc.append((doc_i, start - a, end - start))
                flagged.add(doc_i)
                break
        else:
            raise AssertionError("oracle span crosses a document boundary")
    return by_doc, flagged


def oracle_earliest_other(arr: np.ndarray, start: int, length: int) -> int:
    """Smallest q != start with arr[q:q + length] == arr[start:start + length], or -1."""
    windows = np.lib.stride_tricks.sliding_window_view(arr, length)
    hits = np.flatnonzero((windows == arr[start:start + length]).all(axis=1))
    hits = hits[hits != start]
    return int(hits[0]) if hits.size else -1


def oracle_match_docs(doc_token_lists: list[list[int]], doc_spans) -> list[int]:
    """Document index of the earliest other occurrence of each (doc_i, start, length)."""
    arr, bounds = build_oracle_stream(doc_token_lists)
    out = []
    for doc_i, start, length in doc_spans:
        q = oracle_earliest_other(arr, bounds[doc_i][0] + start, length)
        for match_i, (a, b) in enumerate(bounds):
            if a <= q < b:
                out.append(match_i)
                break
        else:
            raise AssertionError(f"oracle span {doc_i, start, length} has no other occurrence")
    return out


def oracle_extract_features(text: str, buckets: int, ngram_min: int = 3, ngram_max: int = 5):
    """Language-ID features by hashing one n-gram at a time with the scalar FNV-1a.

    Buckets are counted in a Counter in loop order (n, then position), and the
    counts are L2-normalized by their own dot product.
    """
    from collections import Counter

    from korpus.core import fnv1a_bytes

    norm = " ".join(text.split()).lower()
    counts: Counter[int] = Counter()
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(norm) - n + 1):
            counts[fnv1a_bytes(norm[i:i + n].encode("utf-8")) % buckets] += 1
    idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    if vals.size:
        vals /= np.sqrt(vals @ vals)
    return idx, vals
