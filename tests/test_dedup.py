import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from korpus.core import CorpusShard, Document, tokenize
from korpus.dedup import (
    apply_policy, build_stream, build_suffix_index, dedup_shards,
    find_duplicates, merge_spans, staged_dedup, _lcp, _suffix_array,
)
from korpus import dedup
from korpus.errors import CapacityError, IntegrityError

from conftest import int_docs_to_shard, make_doc, random_token_docs
from oracles import oracle_doc_spans, oracle_match_docs


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


class TestBuildStream:
    def test_separator_accounting(self):
        shard = CorpusShard.from_documents(
            [make_doc("x", "p q r"), make_doc("y", "u v w")])
        stream = build_stream([shard])
        assert stream.tokens.size == 7  # 3 + 1 + 3

    def test_empty_corpus(self):
        stream = build_stream([CorpusShard.from_documents([])])
        assert stream.tokens.size == 0
        assert stream.doc_boundaries == ()

    def test_separators_unique(self):
        docs = [make_doc(f"d{i}", "a a a") for i in range(5)]
        stream = build_stream([CorpusShard.from_documents(docs)])
        seps = [t for t in stream.tokens.tolist() if t >= stream.sentinel_base]
        assert len(seps) == 4 and len(set(seps)) == 4

    def test_round_trip_detokenize(self, rng):
        docs = random_token_docs(rng, 2000)
        shard = int_docs_to_shard(docs)
        stream = build_stream([shard])
        for i, doc in enumerate(shard.documents):
            assert stream.detokenize(i) == tokenize(doc.text)

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
        with pytest.raises(ValueError):
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
        doc_start = {stream.doc_ids[i]: b[1] for i, b in enumerate(stream.doc_boundaries)}
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
        lengths = {stream.doc_ids[i]: b[2] - b[1] for i, b in enumerate(stream.doc_boundaries)}
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
    def test_single_group_equals_single_stage(self, rng):
        docs = random_token_docs(rng, 800, vocab=10)
        shard = int_docs_to_shard(docs)
        single_out, single_report = dedup_shards([shard], 5, "remove_all")
        staged_out, reports = staged_dedup([("only", [shard])], 5, "remove_all")
        assert [d.id for s in staged_out for d in s.documents] == \
               [d.id for s in single_out for d in s.documents]
        assert len(reports) == 2
        assert reports[0].stage == "only" and reports[1].stage == "combined"

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

    def test_duplicate_group_names_rejected(self):
        shard = int_docs_to_shard([[1, 2]])
        with pytest.raises(ValueError):
            staged_dedup([("g", [shard]), ("g", [shard])], 2, "remove_all")


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
