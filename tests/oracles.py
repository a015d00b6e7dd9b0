"""Brute-force oracles, independent of the library's suffix-array machinery.

The suffix-array oracle sorts the suffixes as Python lists and counts each
adjacent pair's common prefix token by token. The repeat-length oracle
compares the stream against itself at every shift (O(n^2) total work) instead
of sorting suffixes; span derivation and document flagging are re-implemented
with plain loops, and a span's earliest other occurrence is found by comparing
it with every window of the stream.
`oracle_staged_dedup` gives every dedup pass a stream and a suffix index of
its own, where `korpus.dedup.staged_dedup` restricts one index to each pass.
`oracle_fnv1a` is the FNV-1a byte loop: the langid feature hash, and the
manifest checksum of shards written before korpus 0.4.0. `oracle_checksum` is
the `b2:` checksum through `hashlib`'s blake2b. `oracle_train_langid` runs
language-ID SGD on the column-major weights, gathering and scattering columns,
where `korpus.langid.train_langid` steps on a row-major copy.
`oracle_chunk_sentences` packs chunks with an explicit buffer that a flush
empties, where `korpus.chunker.chunk_sentences` appends to groups.
`oracle_write_arpa` builds the whole ARPA text as one list of lines, formatting
each value on its own, where `korpus.qualfilter.write_arpa` streams the rows.
`oracle_read_arpa` closes the listed n-grams top down, adding each order's
prefixes and suffixes to the order below and sorting id rows with `lexsort`,
then builds the keys bottom up; `korpus.qualfilter.read_arpa` numbers every
piece of each listed n-gram with training's `_count_ngrams`.
`oracle_translate_shard` makes one translator call per document, where
`korpus.chunker.translate_shard` batches the chunks of many documents.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import repeat
from pathlib import Path

import numpy as np

from korpus.errors import ConfigError
from korpus.langid import DEFAULT_BUCKETS, LangIdModel, _softmax, extract_features
from korpus.qualfilter import _NONE, BOS, EOS, UNK, NgramModel
from korpus.rng import SplitMix64


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


def oracle_suffix_array(tokens: list[int]) -> tuple[list[int], list[int]]:
    """The suffixes' start positions sorted by comparing the suffixes as lists,
    and the common prefix of each adjacent pair, counted token by token."""
    n = len(tokens)
    sa = sorted(range(n), key=lambda p: tokens[p:])
    lcp = []
    for i, j in zip(sa, sa[1:]):
        k = 0
        while max(i, j) + k < n and tokens[i + k] == tokens[j + k]:
            k += 1
        lcp.append(k)
    return sa, lcp


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


def oracle_staged_dedup(stage_groups, min_match: int, policy: str):
    """Per-group passes, then one pass over every group's survivors, each pass
    with a fresh `build_stream` and `build_suffix_index` of its own."""
    from korpus.dedup import (
        COMBINED, apply_policy, build_stream, build_suffix_index, find_duplicates,
    )

    def one_pass(shards, stage):
        stream = build_stream(shards)
        spans = find_duplicates(build_suffix_index(stream), stream, min_match)
        return apply_policy(shards, spans, policy, stage=stage)

    reports = []
    survivors = []
    for name, shards in stage_groups:
        out, report = one_pass(shards, name)
        reports.append(report)
        survivors.extend(out)
    final, combined = one_pass(survivors, COMBINED)
    return final, [*reports, combined]


def oracle_checksum(data: bytes) -> str:
    """`b2:` and the 8-byte blake2b hex digest of `data`."""
    return f"b2:{hashlib.blake2b(data, digest_size=8).hexdigest()}"


def oracle_fnv1a(data: bytes, state: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a, one byte at a time."""
    h = state
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def oracle_extract_features(text: str, buckets: int, ngram_min: int = 3, ngram_max: int = 5):
    """Language-ID features by hashing one n-gram at a time with the scalar FNV-1a.

    Buckets are counted in a Counter in loop order (n, then position), and the
    counts are L2-normalized by their own dot product.
    """
    from collections import Counter

    norm = " ".join(text.split()).lower()
    counts: Counter[int] = Counter()
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(norm) - n + 1):
            counts[oracle_fnv1a(norm[i:i + n].encode("utf-8")) % buckets] += 1
    idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    if vals.size:
        vals /= np.sqrt(vals @ vals)
    return idx, vals


def oracle_train_langid(corpora, epochs: int = 10, seed: int = 0,
                        feature_buckets: int = DEFAULT_BUCKETS) -> LangIdModel:
    """Language-ID SGD on the column-major weights `[labels, columns + 1]`:
    each step gathers `weights[:, idx]` (an F-ordered `(labels, k)` array),
    takes the logits `w @ vals + bias` and scatters `w - lr * outer(grad,
    vals)` back through `weights[:, idx] = ...`. Arguments are taken as valid.
    """
    labels = tuple(sorted(corpora))
    features = iter(extract_features(
        [doc.text for label in labels for doc in corpora[label].documents], feature_buckets,
    ))
    examples = []
    touched = np.zeros(feature_buckets, dtype=bool)
    for li, label in enumerate(labels):
        for doc, (idx, vals) in zip(corpora[label].documents, features):
            if idx.size == 0:
                continue
            touched[idx] = True
            examples.append((label, doc.text, li, idx, vals))
    model = LangIdModel(labels=labels, feature_buckets=feature_buckets, touched=touched,
                        weights=np.zeros((len(labels), np.count_nonzero(touched) + 1),
                                         dtype=np.float64),
                        bias=np.zeros(len(labels), dtype=np.float64))
    for _, _, _, idx, _ in examples:
        idx[:] = model.column[idx]
    examples.sort(key=lambda e: (e[0], e[1]))
    rng = SplitMix64(seed)
    weights, bias = model.weights, model.bias
    total_updates = epochs * len(examples)
    done = 0
    for _ in range(epochs):
        rng.shuffle(examples)
        for _, _, li, idx, vals in examples:
            lr = 1.0 - done / total_updates
            done += 1
            w = weights[:, idx]
            grad = _softmax(w @ vals + bias)
            grad[li] -= 1.0
            weights[:, idx] = w - lr * np.outer(grad, vals)
            bias -= lr * grad
    return model


def oracle_split_sentences(text: str) -> list[str]:
    """Sentence split that finds the word before each candidate boundary by
    copying and splitting the whole text prefix (quadratic in the text length)."""
    from korpus.chunker import GERMAN_ABBREVIATIONS

    norm = " ".join(text.split())
    if not norm:
        return []
    boundaries = []
    for i, ch in enumerate(norm):
        if ch != " " or i + 1 >= len(norm):
            continue
        if norm[i - 1] not in ".!?…":
            continue
        nxt = norm[i + 1]
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if norm[:i].rsplit(" ", 1)[-1].lower() in GERMAN_ABBREVIATIONS:
            continue
        boundaries.append(i)
    sentences = []
    start = 0
    for b in boundaries:
        sentences.append(norm[start:b])
        start = b + 1
    sentences.append(norm[start:])
    return sentences


def oracle_chunk_sentences(sentences, budget: int, token_counter, doc_id: str = ""):
    """Greedy packing with an explicit buffer that a flush empties: a sentence
    over the budget is flushed alone, flagged oversized."""
    from korpus.chunker import Chunk

    chunks = []
    current: list[str] = []
    current_tokens = 0

    def flush(oversized: bool = False):
        nonlocal current, current_tokens
        if current:
            chunks.append(Chunk(doc_id=doc_id, index=len(chunks), sentences=tuple(current),
                                token_count=current_tokens, oversized=oversized))
            current = []
            current_tokens = 0

    for sentence in sentences:
        n = token_counter(sentence)
        if n > budget:
            flush()
            current = [sentence]
            current_tokens = n
            flush(oversized=True)
            continue
        if current_tokens + n > budget:
            flush()
        current.append(sentence)
        current_tokens += n
    flush()
    return chunks


def oracle_write_arpa(model, path) -> None:
    """`korpus.qualfilter.write_arpa` as it was before it streamed: every row is
    formatted one value at a time into a list of lines, joined and encoded whole.

    A section lists all of the vocabulary (unigrams) or the order's n-grams
    that have a probability or a backoff, sorted as tuples of strings.
    """
    import math
    from itertools import compress

    from korpus.core import atomic_write
    from korpus.qualfilter import _NONE

    log10 = math.log10
    v = len(model.vocab)
    words = [""] * v
    for w, i in model.vocab.items():
        words[i] = w
    sort = np.array(sorted(range(v), key=words.__getitem__))  # the ids in string order
    pos = np.empty(v, dtype=np.int64)  # per n-gram of the order: its place in the section
    pos[sort] = np.arange(v)
    word_pos = pos
    names = [words[i] for i in sort.tolist()]  # the order's n-grams in section order
    counts, sections = [], []
    for k in range(1, model.order + 1):
        lo, hi = model.offsets[k - 1], model.offsets[k]
        if k > 1:
            prefix, last = np.divmod(model.keys[lo:hi], v)
            rank = pos[prefix - model.offsets[k - 2]] * v + word_pos[last]
            sort = np.argsort(rank)
            pos = np.empty_like(sort)
            pos[sort] = np.arange(sort.size)
            names = [names[p] + " " + words[w]
                     for p, w in zip((rank[sort] // v).tolist(), last[sort].tolist())]
        prob, bo = model.prob[lo:hi][sort], model.backoff[lo:hi][sort]
        if k == model.order:  # the top order has no backoff column
            bo = np.full_like(bo, _NONE)
        kept = (k == 1) | ~(np.isnan(prob) & np.isnan(bo))
        rows = [(f"-99\t{g}" if p != p else f"{log10(p):.17g}\t{g}")
                + ("" if b != b else f"\t{log10(b):.17g}")
                for p, g, b in zip(prob[kept].tolist(), compress(names, kept),
                                   bo[kept].tolist())]
        counts.append(f"ngram {k}={len(rows)}")
        sections += ["", f"\\{k}-grams:"] + rows
    lines = ["\\data\\"] + counts + sections + ["", "\\end\\"]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order, and the position of each row among them."""
    sort = np.lexsort(rows.T[::-1])
    rows = rows[sort]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    where = np.empty(len(rows), dtype=np.int64)
    where[sort] = np.cumsum(new) - 1
    return rows[new], where


def oracle_read_arpa(path: str | Path) -> NgramModel:
    """Parse an ARPA file. Tokens contain no whitespace, so plain splitting is safe.

    An n-gram with a word outside the vocabulary (the unigrams with a
    probability) can never be looked up and is left out. A missing prefix or
    suffix of an n-gram is added without probability or backoff, which the
    scorer treats as absent.
    """
    path = Path(path)
    sections: dict[int, tuple[list, list, list]] = {}  # order -> words, p, backoff
    order = 0
    section = 0
    expected: dict[int, int] = {}
    seen: Counter[int] = Counter()
    try:
        with open(path, encoding="utf-8") as fh:
            state = "preamble"
            for lineno, raw_line in enumerate(fh, start=1):
                line = raw_line.strip()
                if not line:
                    continue
                if line == "\\data\\":
                    state = "data"
                    continue
                if line == "\\end\\":
                    break
                if line.startswith("\\") and line.endswith("-grams:"):
                    section = int(line[1:-7])
                    order = max(order, section)
                    state = "grams"
                    words, probs, backoffs = sections.setdefault(section, ([], [], []))
                    continue
                if state == "data":
                    name, _, count = line.partition("=")
                    expected[int(name.split()[1])] = int(count)
                    continue
                if state != "grams":
                    raise ConfigError(f"{path}: unexpected line outside any section: {line!r}")
                parts = line.split()
                if len(parts) < 1 + section:
                    raise ConfigError(f"{path}: short line in \\{section}-grams section: {line!r}")
                seen[section] += 1
                logp = float(parts[0])
                # -99 marks placeholder entries such as <s>
                probs.append(10.0 ** logp if logp > -98.0 else _NONE)
                backoffs.append(10.0 ** float(parts[1 + section]) if len(parts) > 1 + section
                                else _NONE)
                words += parts[1:1 + section]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (ValueError, IndexError, OverflowError):  # a number, count or header
        raise ConfigError(f"{path}:{lineno}: cannot parse {raw_line.strip()!r}") from None
    if order == 0:
        raise ConfigError(f"{path}: no n-gram sections found")
    for k, n in expected.items():
        if seen.get(k, 0) != n:
            raise ConfigError(f"{path}: header promises {n} {k}-grams, found {seen.get(k, 0)}")

    words, probs, _ = sections.get(1, ([], [], []))
    known = {w for w, p in zip(words, probs) if p == p}
    vocab = {w: i for i, w in enumerate(sorted(known | {UNK, BOS, EOS}))}
    v = len(vocab)
    # Top down: each order's n-grams that can be looked up (all their words in
    # the vocabulary), closed under the prefixes and suffixes of the order
    # above and sorted by id tuple, which is the order of the keys.
    levels = []  # from the top order down: sorted rows, (prob, backoff), prefix positions
    above = np.empty((0, order + 1), dtype=np.int64)
    for k in range(order, 0, -1):
        words, probs, backoffs = sections.get(k, ([], [], []))
        ids = np.fromiter(map(vocab.get, words, repeat(-1)), dtype=np.int64,
                          count=len(words)).reshape(-1, k)
        kept = (ids >= 0).all(axis=1)
        real = ids[kept]
        if k == 1:
            rows, where = np.arange(v).reshape(-1, 1), np.concatenate([real[:, 0], above[:, 0]])
        else:
            rows, where = _unique_rows(np.concatenate([real, above[:, :-1], above[:, 1:]]))
        at = where[:len(real)]
        if np.unique(at).size < at.size:
            raise ConfigError(f"{path}: duplicate n-gram in the \\{k}-grams section")
        values = np.full((2, len(rows)), _NONE)
        values[0, at] = np.array(probs)[kept]
        if k < order:  # a top-order backoff is never used
            values[1, at] = np.array(backoffs)[kept]
        levels.append((rows, values, where[len(real):len(real) + len(above)]))
        above = rows
    if np.isnan(values[0, [vocab[UNK], vocab[EOS]]]).any():
        raise ConfigError(f"{path}: no unigram probability for {UNK!r} or {EOS!r}")
    # An n-gram's key: V * the global index of its prefix + its last id.
    keys, base = [np.arange(v) - v], 0
    for (rows, _, _), (lower, _, prefix) in zip(levels[-2::-1], levels[::-1]):
        keys.append((base + prefix) * v + rows[:, -1])
        base += len(lower)
    values = np.concatenate([values for _, values, _ in levels[::-1]], axis=1)
    return NgramModel(order=order, vocab=vocab, keys=np.concatenate(keys),
                      prob=values[0], backoff=values[1])


def oracle_translate_shard(shard, budget: int, translator):
    """Chunk and translate every document, with one translator call per document."""
    from korpus.chunker import chunk_document, translate_chunks
    from korpus.core import CorpusShard, Document

    if budget < 1:
        raise ConfigError("budget must be >= 1")
    results = []
    translated = []
    failures = []
    for doc in shard.documents:
        doc_results = translate_chunks(chunk_document(doc, budget), translator)
        results += doc_results
        bad = [r for r in doc_results if r.error is not None]
        if bad:
            failures.append({
                "doc_id": doc.id,
                "errors": [{"index": r.chunk.index, "error": r.error} for r in bad],
            })
        else:
            translated.append(Document(id=doc.id, source=doc.source, domain=doc.domain,
                                       text=" ".join(r.text for r in doc_results)))
    return results, CorpusShard.from_documents(translated, source=shard.manifest.source), failures
