import functools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from korpus.core import CorpusShard, Document, tokenize
from korpus.dedup import (
    apply_policy, build_stream, build_suffix_index,
    find_duplicates, merge_spans, staged_dedup, _lcp, _suffix_array,
)
from korpus import dedup
from korpus.errors import CapacityError, ConfigError, IntegrityError

from conftest import int_docs_to_shard, make_doc, random_token_docs
from oracles import (
    oracle_doc_spans, oracle_match_docs, oracle_staged_dedup, oracle_suffix_array,
)


def brute_force_suffix_sort(tokens: list[int]) -> list[int]:
    """O(n^2 log n) oracle: comparison sort with lazy suffix comparison."""
    def cmp(i: int, j: int) -> int:
        n = len(tokens)
        while i < n and j < n:
            if tokens[i] != tokens[j]:
                return -1 if tokens[i] < tokens[j] else 1
            i += 1
            j += 1
        return -1 if i == n and j < n else (1 if j == n and i < n else 0)
    return sorted(range(len(tokens)), key=functools.cmp_to_key(cmp))


def random_tokens(n: int, vocab: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(vocab) for _ in range(n)]


def planted_passage(copies: int = 40, length: int = 60, seed: int = 3) -> list[int]:
    """One passage repeated `copies` times, each copy after a short random gap."""
    rng = random.Random(seed)
    passage = [rng.randrange(50) for _ in range(length)]
    tokens: list[int] = []
    for _ in range(copies):
        tokens += [rng.randrange(50) for _ in range(rng.randrange(1, 20))] + passage
    return tokens


# Long repeats, so every prefix-doubling level and every lift of the LCP runs.
DEEP_REPEATS = [
    pytest.param([0] * 300, id="zeros-300"),
    pytest.param([0, 1] * 200, id="alternating-200"),
    pytest.param(planted_passage(), id="planted-40x60"),
]


class TestSuffixArray:
    def test_abab(self):
        arr = np.array([0, 1, 0, 1], dtype=np.int32)
        sa, ranks = _suffix_array(arr)
        lcp = _lcp(sa, ranks)
        assert sa.tolist() == [2, 0, 3, 1]  # suffixes starting at 0 and 2 adjacent
        assert lcp.tolist() == [2, 0, 1]  # lcp of suffixes at 0 and 2 is 2

    def test_single_token(self):
        arr = np.array([7], dtype=np.int32)
        sa, ranks = _suffix_array(arr)
        assert sa.tolist() == [0]
        assert _lcp(sa, ranks).tolist() == []

    @pytest.mark.parametrize("tokens", [
        pytest.param(random_tokens(100, 5, 0), id="100-5-0"),
        pytest.param(random_tokens(1000, 50, 1), id="1000-50-1"),
        pytest.param(random_tokens(10000, 50, 2), id="10000-50-2"),
        *DEEP_REPEATS,
    ])
    def test_matches_bruteforce_sort(self, tokens):
        sa, _ = _suffix_array(np.asarray(tokens, dtype=np.int32))
        assert sa.tolist() == brute_force_suffix_sort(tokens)

    @pytest.mark.parametrize("tokens", [
        pytest.param(random_tokens(500, 8, 9), id="random"),
        *DEEP_REPEATS,
    ])
    def test_lcp_consistent_with_direct_comparison(self, tokens):
        arr = np.asarray(tokens, dtype=np.int32)
        sa, ranks = _suffix_array(arr)
        lcp = _lcp(sa, ranks)
        for r in range(len(tokens) - 1):
            i, j = int(sa[r]), int(sa[r + 1])
            k = 0
            while i + k < len(tokens) and j + k < len(tokens) and tokens[i + k] == tokens[j + k]:
                k += 1
            assert lcp[r] == k


@st.composite
def planted_streams(draw) -> list[int]:
    """Documents of random ids over a small vocabulary, joined by unique
    separators, with one passage of 512 or more ids planted at least twice:
    two equal 512-id prefixes take the doubling to 10 rounds or more."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = draw(st.integers(1, 6))
    passage = [rng.randrange(vocab) for _ in range(draw(st.integers(512, 700)))]
    docs = [[rng.randrange(vocab) for _ in range(rng.randrange(0, 120))]
            for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(2, 3))):
        rng.choice(docs).extend(passage + [rng.randrange(vocab) for _ in range(rng.randrange(30))])
    tokens = docs[0]
    for i, doc in enumerate(docs[1:]):
        tokens += [vocab + i] + doc
    return tokens


@settings(max_examples=20, deadline=None)
@given(planted_streams())
def test_suffix_array_and_lcp_equal_oracle(tokens):
    sa, ranks = _suffix_array(np.asarray(tokens, dtype=np.int32))
    assert len(ranks) >= 10  # levels 0..9 still tie, so 10 or more rounds ran
    want_sa, want_lcp = oracle_suffix_array(tokens)
    assert sa.tolist() == want_sa
    assert _lcp(sa, ranks).tolist() == want_lcp


def crawl_shape(docs: int = 1200, seed: int = 11) -> list[np.ndarray]:
    """Documents shaped like the web sources of the crawl-boilerplate benchmark:
    30-90 Zipf-distributed words over 8,000, and every second one ends with a
    word of its own and the same 60-word footer."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(1.0 / np.arange(1, 8001) ** 1.05)

    def words(k):
        return np.searchsorted(cum, rng.random(k) * cum[-1]).astype(np.int32)
    footer = words(60)
    out = []
    for i in range(docs):
        body = words(30 + (i * 7919) % 61)
        if i % 2:
            body = np.concatenate([body, [8000 + i], footer]).astype(np.int32)
        out.append(body)
    return out


def long_repeat_shape(docs: int = 100, length: int = 2000, seed: int = 5) -> list[np.ndarray]:
    """Documents of `length` random ids, every tenth a copy of the first."""
    rng = np.random.default_rng(seed)
    first = rng.integers(0, 5000, length, dtype=np.int32)
    return [first if i % 10 == 0 else rng.integers(0, 5000, length, dtype=np.int32)
            for i in range(docs)]


STREAM_SHAPES = {"crawl": crawl_shape, "long-repeat": long_repeat_shape}


def shape_stream(shape: str) -> dedup.TokenStream:
    return build_stream([int_docs_to_shard(STREAM_SHAPES[shape]())])


class _SortCounter:
    """Stands for numpy in `korpus.dedup` and records the size of every argsort."""

    def __init__(self):
        self.sizes: list[int] = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, a, *args, **kwargs):
        self.sizes.append(a.size)
        return np.argsort(a, *args, **kwargs)


class _ArraySizes:
    """Stands for numpy in `korpus.dedup` and records, for every numpy call,
    the size of the largest array it is given or returns."""

    def __init__(self):
        self.sizes: list[int] = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        return attr if isinstance(attr, type) or not callable(attr) else _Recorded(attr, self.sizes)


class _Recorded:
    def __init__(self, fn, sizes: list[int]):
        self.fn = fn
        self.sizes = sizes

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        values = (*args, *kwargs.values(), *(out if isinstance(out, tuple) else (out,)))
        self.sizes.append(max((v.size for v in values if isinstance(v, np.ndarray)), default=0))
        return out

    def __getattr__(self, name):  # a ufunc's methods, such as np.minimum.reduceat
        return _Recorded(getattr(self.fn, name), self.sizes)


class TestDoublingWork:
    """Round 1 sorts every suffix; a later round re-sorts only the suffixes
    whose prefix so far is shared, so a repeated prefix costs a sort, a unique
    one does not."""

    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    def test_positions_sorted_per_round(self, shape, monkeypatch):
        arr = shape_stream(shape).tokens
        n = arr.size
        counter = _SortCounter()
        monkeypatch.setattr(dedup, "np", counter)
        sa, ranks = _suffix_array(arr)
        monkeypatch.undo()
        # rep[r] >= h iff another suffix shares the h-token prefix of the
        # suffix at rank r: one of its neighbours does.
        lcp = _lcp(sa, ranks)
        rep = np.maximum(np.append(lcp, 0), np.insert(lcp, 0, 0))
        want = [n]
        while (tied := int(np.count_nonzero(rep >= 2 ** len(want)))) > 0:
            want.append(tied)
        assert counter.sizes == want
        assert len(ranks) == len(want)  # the level with no ties is not kept
        assert sum(want) < {"crawl": 3.0, "long-repeat": 2.5}[shape] * n

    @pytest.mark.parametrize("shape,bound", [("crawl", 40), ("long-repeat", 60)])
    def test_index_peak_bytes_per_token(self, shape, bound):
        """tracemalloc peak of `build_suffix_index`, result included, per stream token."""
        stream = shape_stream(shape)
        tracemalloc.start()
        try:
            build_suffix_index(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / stream.tokens.size < bound


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_seen_runs_equal_filtered_run_ranks(seed, min_match):
    """A pass that sees none, one, some or all documents keeps the run ranks
    in those documents, in rank order. Between neighbours, an lcp at or above
    min_match is the common prefix counted token by token, and an lcp below
    it stands for one below it."""
    rng = random.Random(seed)
    vocab = rng.choice([2, 4, 30])
    docs = [rng.choices(range(vocab), k=rng.randrange(30)) for _ in range(rng.randrange(1, 8))]
    stream = build_stream([int_docs_to_shard(docs)])
    index = build_suffix_index(stream)
    runs = dedup._run_ranks(index, stream, min_match)
    tokens = stream.tokens.tolist()
    n = len(tokens)
    lcp = [0, *index.lcp.tolist(), 0]
    run_sa = [p for r, p in enumerate(index.suffix_array.tolist()) if max(lcp[r], lcp[r + 1]) >= min_match]
    doc_of = np.searchsorted(stream.bounds, np.arange(n), side="right") - 1
    everything = range(len(docs))
    for chosen in ([], [rng.randrange(len(docs))], rng.sample(everything, rng.randrange(len(docs) + 1)),
                   everything):
        seen = np.zeros(len(docs), dtype=bool)
        seen[list(chosen)] = True
        sa, view_lcp, order = dedup._seen_runs(runs, seen)
        sa = sa.tolist()
        assert sa == [p for p in run_sa if seen[doc_of[p]]]
        assert [sa[i] for i in order] == sorted(sa)
        want = []
        for i, j in zip(sa, sa[1:]):
            k = 0
            while max(i, j) + k < n and tokens[i + k] == tokens[j + k]:
                k += 1
            want.append(k)
        below = -1  # any lcp under min_match
        assert [k if k >= min_match else below for k in view_lcp.tolist()] == \
            [k if k >= min_match else below for k in want]


class TestBuildStream:
    def test_separator_accounting(self):
        shard = CorpusShard.from_documents(
            [make_doc("x", "p q r"), make_doc("y", "u v w")])
        stream = build_stream([shard])
        assert stream.tokens.size == 7  # 3 + 1 + 3

    def test_empty_corpus(self):
        stream = build_stream([CorpusShard.from_documents([])])
        assert stream.tokens.size == 0
        assert stream.bounds.tolist() == [0]

    def test_separators_unique(self):
        docs = [make_doc(f"d{i}", "a a a") for i in range(5)]
        stream = build_stream([CorpusShard.from_documents(docs)])
        seps = stream.tokens[stream.bounds[1:-1] - 1].tolist()
        assert len(seps) == 4 and len(set(seps)) == 4
        assert min(seps) > stream.tokens[:3].max()

    def test_round_trip_detokenize(self, rng):
        # Equal tokens get equal ids and distinct tokens distinct ids, all below
        # the separators, at the positions bounds gives.
        docs = random_token_docs(rng, 2000)
        shard = int_docs_to_shard(docs)
        stream = build_stream([shard])
        id_of: dict[str, int] = {}
        token_of: dict[int, str] = {}
        for i, doc in enumerate(shard.documents):
            ids = stream.tokens[stream.bounds[i]:stream.bounds[i + 1] - 1].tolist()
            assert stream.doc_ids[i] == doc.id
            assert len(ids) == len(tokenize(doc.text))
            for tok, tid in zip(tokenize(doc.text), ids):
                assert id_of.setdefault(tok, tid) == tid
                assert token_of.setdefault(tid, tok) == tok
        assert max(token_of) < stream.tokens[stream.bounds[1:-1] - 1].min()

    def test_duplicate_ids_rejected(self):
        a = CorpusShard.from_documents([make_doc("same", "x y")])
        b = CorpusShard.from_documents([make_doc("same", "z w")])
        with pytest.raises(IntegrityError):
            build_stream([a, b])

    def test_stream_length_capacity(self, monkeypatch):
        # Positions and ranks are int32, so the stream length is capped like the ids.
        shard = CorpusShard.from_documents([make_doc("x", "a a a"), make_doc("y", "a a")])
        monkeypatch.setattr(dedup, "_MAX_IDS", 6)
        assert build_stream([shard]).tokens.size == 6  # 3 + 1 separator + 2
        monkeypatch.setattr(dedup, "_MAX_IDS", 5)
        with pytest.raises(CapacityError):
            build_stream([shard])

    def test_capacity_checked_before_tokenizing(self, monkeypatch):
        """The layout comes from the token counts, so an oversized stream is
        refused before any text is tokenized."""
        shard = CorpusShard.from_documents([make_doc("x", "a a a"), make_doc("y", "a a")])

        def tokenize(text):
            raise AssertionError("tokenized before the capacity check")
        monkeypatch.setattr(dedup, "tokenize", tokenize)
        monkeypatch.setattr(dedup, "_MAX_IDS", 5)
        with pytest.raises(CapacityError):
            build_stream([shard])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcde"), max_size=6), max_size=6))
    def test_layout_from_bounds(self, texts):
        """Document i's ids are tokens[bounds[i]:bounds[i + 1] - 1], and the
        separators between documents are distinct and above every token id."""
        docs = [make_doc(f"d{i}", " ".join(words)) for i, words in enumerate(texts)]
        stream = build_stream([CorpusShard.from_documents(docs)])
        bounds = stream.bounds.tolist()
        assert len(bounds) == len(docs) + 1 and stream.doc_ids == tuple(d.id for d in docs)
        id_of: dict[str, int] = {}
        ids = []
        for i, words in enumerate(texts):
            got = stream.tokens[bounds[i]:bounds[i + 1] - 1].tolist()
            assert got == [id_of.setdefault(w, len(id_of)) for w in words]
            ids += got
        assert stream.tokens.size == max(bounds[-1] - 1, 0)
        seps = stream.tokens[stream.bounds[1:-1] - 1].tolist()
        assert len(set(seps)) == len(seps) == max(len(docs) - 1, 0)
        assert all(sep > max(ids, default=-1) for sep in seps)


def _find(shard_docs: list[list[int]], min_match: int):
    shard = int_docs_to_shard(shard_docs)
    stream = build_stream([shard])
    index = build_suffix_index(stream)
    spans = find_duplicates(index, stream, min_match)
    return shard, stream, spans


class TestFindDuplicates:
    def test_all_distinct_no_repeats(self):
        _, _, spans = _find([[1, 2, 3], [4, 5, 6, 7]], 2)
        assert spans == []

    def test_min_match_lower_bound(self):
        shard = int_docs_to_shard([[1, 2, 3]])
        stream = build_stream([shard])
        index = build_suffix_index(stream)
        with pytest.raises(ConfigError):
            find_duplicates(index, stream, 1)

    def test_planted_passage_both_docs_flagged(self, rng):
        passage = [rng.randrange(50) for _ in range(150)]
        docs = [
            [rng.randrange(50) for _ in range(40)] + passage + [rng.randrange(50) for _ in range(30)],
            [rng.randrange(50) for _ in range(25)] + passage,
            [rng.randrange(50) for _ in range(60)],
        ]
        _, _, spans = _find(docs, 100)
        flagged = {s.doc_id for s in spans}
        assert flagged == {"rand-0", "rand-1"}
        assert all(s.token_len >= 150 for s in spans)

    def test_spans_match_oracle_exactly(self):
        rng = random.Random(77)
        for trial in range(10):
            docs = random_token_docs(rng, rng.randrange(100, 1200), vocab=30)
            for mm in (2, 5, 10):
                _, _, spans = _find(docs, mm)
                got = {(s.doc_id, s.token_start, s.token_len, s.match_doc_id) for s in spans}
                oracle_spans, _ = oracle_doc_spans(docs, mm)
                matches = oracle_match_docs(docs, oracle_spans)
                want = {
                    (f"rand-{i}", start, length, f"rand-{match}")
                    for (i, start, length), match in zip(oracle_spans, matches)
                }
                assert got == want, f"trial {trial} mm={mm}"

    def test_every_span_occurs_twice(self, rng):
        docs = random_token_docs(rng, 1500, vocab=20)
        shard, stream, spans = _find(docs, 3)
        doc_start = dict(zip(stream.doc_ids, stream.bounds.tolist()))
        tokens = stream.tokens.tolist()
        for s in spans:
            start = doc_start[s.doc_id] + s.token_start
            needle = tokens[start:start + s.token_len]
            hits = sum(
                1 for p in range(len(tokens) - s.token_len + 1)
                if tokens[p:p + s.token_len] == needle
            )
            assert hits >= 2

    def test_no_span_crosses_separator(self, rng):
        docs = random_token_docs(rng, 1200, vocab=10)
        shard, stream, spans = _find(docs, 2)
        lengths = dict(zip(stream.doc_ids, (np.diff(stream.bounds) - 1).tolist()))
        for s in spans:
            assert s.token_start + s.token_len <= lengths[s.doc_id]

    def test_monotone_in_min_match(self, rng):
        docs = random_token_docs(rng, 1000, vocab=8)
        previous = None
        for mm in (2, 3, 5, 8, 13):
            _, _, spans = _find(docs, mm)
            flagged = {s.doc_id for s in spans}
            if previous is not None:
                assert flagged <= previous
            previous = flagged

    def test_deterministic(self, rng):
        docs = random_token_docs(rng, 800, vocab=12)
        runs = [_find(docs, 4)[2] for _ in range(2)]
        assert runs[0] == runs[1]


class TestMergeSpans:
    def test_overlapping_merged(self):
        from korpus.dedup import DuplicateSpan
        spans = [
            DuplicateSpan("d", 0, 10, "e"),
            DuplicateSpan("d", 5, 10, "e"),
            DuplicateSpan("d", 20, 5, "e"),
        ]
        merged = merge_spans(spans)
        assert merged == {"d": [(0, 15), (20, 25)]}


class TestApplyPolicy:
    def _two_doc_dup(self, rng):
        passage = [rng.randrange(50) for _ in range(100)]
        docs = [
            passage + [rng.randrange(50) for _ in range(10)],
            [rng.randrange(50) for _ in range(15)] + passage,
            [rng.randrange(50) for _ in range(30)],
        ]
        return _find(docs, 100)

    def test_no_spans_unchanged(self):
        shard = int_docs_to_shard([[1, 2], [3, 4]])
        out, report = apply_policy([shard], [], "remove_all")
        assert out[0].documents == shard.documents
        assert report.removed_docs == 0 and report.duplicate_tokens == 0

    def test_untouched_shards_kept_without_rehash(self, rng, monkeypatch):
        from korpus import core
        shard, _, spans = self._two_doc_dup(rng)
        clean = int_docs_to_shard([[7, 8, 9]], source="clean")
        calls = []
        real = core.fnv1a_hex
        monkeypatch.setattr(core, "fnv1a_hex", lambda texts: calls.append(1) or real(texts))
        out, _ = apply_policy([clean, shard], [], "remove_all")
        assert out[0] is clean and out[1] is shard
        assert calls == []
        out, _ = apply_policy([clean, shard], spans, "remove_all")
        assert out[0] is clean and len(calls) == 1  # only the shard that lost documents
        monkeypatch.undo()
        for before, after in zip([clean, shard], out):
            assert after.manifest == CorpusShard.from_documents(
                after.documents, source=before.manifest.source).manifest

    def test_remove_all_removes_both(self, rng):
        shard, _, spans = self._two_doc_dup(rng)
        out, report = apply_policy([shard], spans, "remove_all")
        assert {d.id for d in out[0].documents} == {"rand-2"}
        assert report.removed_docs == 2
        assert report.duplicate_tokens >= 200  # counted per occurrence

    def test_keep_first_removes_exactly_one(self, rng):
        shard, _, spans = self._two_doc_dup(rng)
        out, report = apply_policy([shard], spans, "keep_first")
        assert {d.id for d in out[0].documents} == {"rand-0", "rand-2"}
        assert report.removed_docs == 1

    def test_keep_first_retains_self_repeats(self, rng):
        chunk = [rng.randrange(50) for _ in range(60)]
        docs = [chunk + [rng.randrange(50)] + chunk]  # repeat inside one doc
        shard, _, spans = _find(docs, 50)
        assert spans, "internal repeat must be detected"
        out, report = apply_policy([shard], spans, "keep_first")
        assert report.removed_docs == 0
        out2, report2 = apply_policy([shard], spans, "remove_all")
        assert report2.removed_docs == 1

    def test_unknown_doc_is_integrity_error(self):
        from korpus.dedup import DuplicateSpan
        shard = int_docs_to_shard([[1, 2, 3]])
        spans = [DuplicateSpan("ghost", 0, 2, "rand-0")]
        with pytest.raises(IntegrityError):
            apply_policy([shard], spans, "remove_all")

    def test_report_totals_consistent(self, rng):
        shard, _, spans = self._two_doc_dup(rng)
        _, report = apply_policy([shard], spans, "remove_all")
        assert report.input_tokens == shard.manifest.token_count
        assert report.removed_tokens <= report.input_tokens
        assert report.duplicate_tokens <= report.input_tokens


class TestStagedDedup:
    @pytest.mark.parametrize("groups", [1, 3])
    def test_one_index_per_call(self, groups, rng, monkeypatch):
        """One stream and one index serve the G group passes and the combined one."""
        calls = Counter()
        for name in ("build_stream", "build_suffix_index", "find_duplicates"):
            real = getattr(dedup, name)
            monkeypatch.setattr(dedup, name, lambda *args, _name=name, _real=real, **kwargs:
                                calls.update([_name]) or _real(*args, **kwargs))
        passage = [rng.randrange(50) for _ in range(40)]
        stage_groups = [
            (f"g{g}", [int_docs_to_shard([passage + [g], [rng.randrange(50) for _ in range(30)]],
                                         source=f"g{g}")])
            for g in range(groups)
        ]
        staged_dedup(stage_groups, 8, "keep_first")
        assert calls == {"build_stream": 1, "build_suffix_index": 1, "find_duplicates": groups + 1}

    def test_passes_work_on_run_ranks(self, monkeypatch):
        """Of the numpy calls after the index is built, only the one that
        compresses it to its run ranks reads a stream-length array; none of
        the 51 passes does. 50 groups of 3 documents hold 20 copies of a
        passage, some within a group and some across groups."""
        rng = random.Random(4)
        passage = [rng.randrange(1000) for _ in range(30)]
        docs = [[rng.randrange(1000) for _ in range(40)] for _ in range(150)]
        for doc in rng.sample(docs, 20):
            doc[5:5] = passage
        stage_groups = [(f"g{g}", [int_docs_to_shard(docs[3 * g:3 * g + 3], source=f"g{g}")])
                        for g in range(50)]
        want = oracle_staged_dedup(stage_groups, 8, "keep_first")
        sizes = _ArraySizes()
        streams = []
        build = dedup.build_suffix_index

        def build_suffix_index(stream):
            index = build(stream)
            streams.append(stream)
            monkeypatch.setattr(dedup, "np", sizes)
            return index
        monkeypatch.setattr(dedup, "build_suffix_index", build_suffix_index)
        got = staged_dedup(stage_groups, 8, "keep_first")
        monkeypatch.undo()
        assert got == want
        reports = got[1]
        assert any(r.spans for r in reports[:-1]) and reports[-1].spans > 0
        n = streams[0].tokens.size
        assert len(sizes.sizes) > 51
        assert sum(size >= n - 1 for size in sizes.sizes) <= 1

    @pytest.mark.parametrize("min_match,policy", [(1, "remove_all"), (0, "keep_first"), (4, "bogus")])
    def test_arguments_checked_before_any_work(self, min_match, policy, monkeypatch):
        def build_stream(shards):
            raise AssertionError("build_stream ran before the arguments were checked")
        monkeypatch.setattr(dedup, "build_stream", build_stream)
        with pytest.raises(ConfigError):
            staged_dedup([("g", [int_docs_to_shard([[1, 2, 3]])])], min_match, policy)

    def test_cross_group_duplicate_caught_in_combined(self, rng):
        passage = [rng.randrange(50) for _ in range(80)]
        g1_docs = [[rng.randrange(50) for _ in range(30)] + passage]
        g2_docs = [passage + [rng.randrange(50) for _ in range(20)]]
        g1 = CorpusShard.from_documents(
            [Document(id="g1-0", source="g1", domain="formal",
                      text=" ".join(f"w{t}" for t in g1_docs[0]))], source="g1")
        g2 = CorpusShard.from_documents(
            [Document(id="g2-0", source="g2", domain="formal",
                      text=" ".join(f"w{t}" for t in g2_docs[0]))], source="g2")
        final, reports = staged_dedup([("a", [g1]), ("b", [g2])], 50, "remove_all")
        assert reports[0].removed_docs == 0 and reports[1].removed_docs == 0
        assert reports[2].stage == "combined" and reports[2].removed_docs == 2
        assert sum(s.manifest.doc_count for s in final) == 0

    def test_fixed_point_after_remove_all(self, rng):
        for _ in range(5):
            docs = random_token_docs(rng, 600, vocab=6)
            shard = int_docs_to_shard(docs)
            final, _ = staged_dedup([("g", [shard])], 4, "remove_all")
            stream = build_stream(final)
            if stream.tokens.size == 0:
                continue
            index = build_suffix_index(stream)
            assert find_duplicates(index, stream, 4) == []

    def test_document_id_repeated_across_groups_rejected(self):
        """The one stream over every group's documents checks the ids across
        groups."""
        a = CorpusShard.from_documents([make_doc("same", "x y z")])
        b = CorpusShard.from_documents([make_doc("same", "u v w")])
        with pytest.raises(IntegrityError, match="duplicate document id 'same' across shards"):
            staged_dedup([("a", [a]), ("b", [b])], 2, "remove_all")

    def test_duplicate_group_names_rejected(self):
        shard = int_docs_to_shard([[1, 2]])
        with pytest.raises(ConfigError):
            staged_dedup([("g", [shard]), ("g", [shard])], 2, "remove_all")

    def test_group_named_combined_rejected(self):
        # The final pass reports as "combined"; a group of that name would
        # share its report file and vanish from the summary.
        shard = int_docs_to_shard([[1, 2]])
        with pytest.raises(ConfigError, match="combined"):
            staged_dedup([("combined", [shard])], 2, "remove_all")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=0, max_size=30), min_size=1, max_size=8),
       st.sampled_from([2, 3, 5]))
def test_flagged_docs_equal_oracle_property(doc_tokens, min_match):
    doc_tokens = [d for d in doc_tokens]
    shard = int_docs_to_shard(doc_tokens)
    stream = build_stream([shard])
    if stream.tokens.size == 0:
        return
    index = build_suffix_index(stream)
    spans = find_duplicates(index, stream, min_match)
    flagged = {s.doc_id for s in spans}
    _, oracle_flagged = oracle_doc_spans(doc_tokens, min_match)
    assert flagged == {f"rand-{i}" for i in oracle_flagged}


@st.composite
def dedup_groups(draw, group_count=st.integers(1, 3)) -> list[tuple[str, list[CorpusShard]]]:
    """Dedup groups of 0-2 shards, with empty groups, shards and documents.
    For every ten groups or part of ten, one passage is planted twice inside
    a group and another once in each of two groups."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = rng.choice([3, 20])
    groups = [[[rng.choices(range(vocab), k=rng.randrange(20)) for _ in range(rng.randrange(5))]
               for _ in range(rng.randrange(3))]
              for _ in range(draw(group_count))]
    filled = [docs for docs in ([doc for shard in group for doc in shard] for group in groups) if docs]
    plantings = []
    for _ in range(-(-len(groups) // 10)):
        if filled:
            docs = rng.choice(filled)
            plantings.append([rng.choice(docs), rng.choice(docs)])
        if len(filled) >= 2:
            plantings.append([rng.choice(docs) for docs in rng.sample(filled, 2)])
    for targets in plantings:
        passage = rng.choices(range(vocab), k=rng.randrange(6, 12))
        for doc in targets:
            cut = rng.randrange(len(doc) + 1)
            doc[cut:cut] = passage
    return [(f"g{g}", [int_docs_to_shard(shard, source=f"g{g}s{i}") for i, shard in enumerate(group)])
            for g, group in enumerate(groups)]


@settings(max_examples=60, deadline=None)
@given(dedup_groups(), st.integers(2, 6), st.sampled_from(["remove_all", "keep_first"]))
def test_staged_dedup_equals_oracle(stage_groups, min_match, policy):
    """Shards and reports equal those of passes with a stream and an index of their own."""
    assert staged_dedup(stage_groups, min_match, policy) == \
        oracle_staged_dedup(stage_groups, min_match, policy)


@settings(max_examples=10, deadline=None)
@given(dedup_groups(st.integers(50, 60)), st.integers(2, 6), st.sampled_from(["remove_all", "keep_first"]))
def test_many_groups_equal_oracle(stage_groups, min_match, policy):
    """As above, with 50-60 groups, about a third of them empty."""
    assert staged_dedup(stage_groups, min_match, policy) == \
        oracle_staged_dedup(stage_groups, min_match, policy)
