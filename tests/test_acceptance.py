"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned in the assertions below.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from korpus.core import CorpusShard, Document, write_shard
from korpus.dedup import (
    apply_policy, build_stream, build_suffix_index, find_duplicates, staged_dedup,
)
from korpus.langid import score, train_langid, filter_language
from korpus.mixer import trim_to_budget
from korpus.qualfilter import (
    BOS, EOS, NgramModel, PerplexityScore, UNK, score_perplexity, select_top_k,
    train_ngram,
)
from korpus.report import duplicate_ratio
from korpus.pipeline import run_pipeline

from conftest import (
    build_pipeline_fixture, de_sentence, en_sentence, int_docs_to_shard,
    make_doc, make_shard, random_token_docs, workspace_digest,
)
from kn_oracle import oracle_model
from oracles import oracle_doc_spans


def _report(number: int, name: str) -> None:
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


def test_criterion_01_dedup_oracle_equivalence():
    rng = random.Random(20240801)
    start = time.monotonic()
    sizes = [rng.randrange(60, 600) for _ in range(97)] + [1200, 2000, 6000]
    assert len(sizes) >= 100
    for i, n in enumerate(sizes):
        assert n <= 10_000
        docs = random_token_docs(rng, n, vocab=50)
        shard = int_docs_to_shard(docs, source=f"c{i}")
        stream = build_stream([shard])
        index = build_suffix_index(stream)
        rep_oracle = {mm: oracle_doc_spans(docs, mm)[1] for mm in (2, 5, 10)}
        for mm in (2, 5, 10):
            flagged = {s.doc_id for s in find_duplicates(index, stream, mm)}
            expected = {f"c{i}-{d}" for d in rep_oracle[mm]}
            assert flagged == expected, f"corpus {i} (n={n}), min_match={mm}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(1, f"dedup oracle equivalence, {len(sizes)} corpora in {elapsed:.1f}s")


def test_criterion_02_dedup_fixed_point():
    rng = random.Random(77)

    def rescan_is_empty(shards, min_match):
        out, _ = staged_dedup([("g", shards)], min_match, "remove_all")
        stream = build_stream(out)
        if stream.tokens.size == 0:
            return True
        index = build_suffix_index(stream)
        return find_duplicates(index, stream, min_match) == []

    # constructed fixtures: intra-document repeat, intra-group pair, cross-doc chains
    passage = [rng.randrange(30) for _ in range(40)]
    fixtures = [
        [passage + [rng.randrange(30)] + passage],
        [passage + [99], [98] + passage],
        [passage, passage, passage],
        [[rng.randrange(5) for _ in range(200)]],
    ]
    for docs in fixtures:
        assert rescan_is_empty([int_docs_to_shard(docs)], 10)
    for trial in range(50):
        docs = random_token_docs(rng, rng.randrange(100, 700), vocab=rng.choice([4, 8, 16]))
        assert rescan_is_empty([int_docs_to_shard(docs, source=f"r{trial}")], 4), trial
    _report(2, "remove_all dedup is a fixed point on fixtures and 50 random corpora")


def test_criterion_03_planted_duplicate_reproduction():
    rng = random.Random(5150)
    passage = [rng.randrange(50) for _ in range(150)]
    docs = []
    for i in range(100):
        docs.append([rng.randrange(50) for _ in range(rng.randrange(80, 200))])
    docs[17] = docs[17][:40] + passage + docs[17][40:]
    docs[71] = passage + docs[71][:60]
    shard = int_docs_to_shard(docs, source="plant")
    stream = build_stream([shard])
    index = build_suffix_index(stream)

    spans = find_duplicates(index, stream, 100)
    out, report = apply_policy([shard], spans, "remove_all", stage="plant")
    removed = {d.id for d in shard.documents} - {d.id for d in out[0].documents}
    assert removed == {"plant-17", "plant-71"}
    assert report.duplicate_tokens >= 300

    spans_151 = find_duplicates(index, stream, 151)
    _, report_151 = apply_policy([shard], spans_151, "remove_all", stage="plant151")
    assert report_151.removed_docs == 0
    _report(3, "planted 150-token passage removed at min_match=100, kept at 151")


def test_criterion_04_duplicate_ratio_arithmetic():
    def rep(dups, total):
        from korpus.dedup import DedupReport
        return DedupReport(input_tokens=total, duplicate_tokens=dups,
                           removed_docs=0, removed_tokens=0, spans=0, stage="x")

    assert duplicate_ratio(rep(int(35.3e9), int(74.6e9))) == pytest.approx(0.4732, abs=1e-4)
    assert duplicate_ratio(rep(int(9.3e9), int(16e9))) == pytest.approx(0.5813, abs=1e-4)
    _report(4, "duplicate ratios 0.4732 and 0.5813 within 1e-4")


def test_criterion_05_kneser_ney_correctness():
    texts = ["a b a c", "b a a"]  # 11 tokens with paddings, <= 20
    docs = [Document(id=f"t{i}", source="toy", domain="formal", text=t)
            for i, t in enumerate(texts)]
    model = train_ngram([CorpusShard.from_documents(docs, source="toy")], order=2, min_count=1)

    # hand-computed anchors (unigram D1=0.2, bigram D1=7/9, D2/D3+ clamped below 1)
    assert model.conditional("a", ()) == pytest.approx(0.33000000005, abs=1e-9)
    assert model.conditional("a", ("b",)) == pytest.approx(0.6650000003600001, abs=1e-9)
    assert model.conditional("a", (BOS,)) == pytest.approx(0.3677777778166667, abs=1e-9)

    prob, pred = oracle_model(texts, order=2, min_count=1)
    # the contexts with a backoff weight: at order 2, a unigram's index is its id
    contexts = [()] + [(w,) for w, i in model.vocab.items() if not np.isnan(model.backoff[i])]
    for ctx in contexts:
        total = 0.0
        for w in model.predictable_vocab():
            p = model.conditional(w, ctx)
            assert p == pytest.approx(prob(w, ctx), abs=1e-9), (w, ctx)
            total += p
        assert abs(total - 1.0) <= 1e-9, ctx

    rng = random.Random(8)
    tokens = [f"tok{i}" for i in range(40)] * 25
    rng.shuffle(tokens)
    uniform_docs = [" ".join(tokens[i:i + 40]) for i in range(0, len(tokens), 40)]
    uni = train_ngram([make_shard(uniform_docs)], order=1, min_count=1)
    v = len(uni.predictable_vocab())
    sample = " ".join(rng.choice(tokens) for _ in range(400))
    pp = score_perplexity(uni, make_doc("u", sample)).perplexity
    assert abs(pp - v) / v <= 0.10
    _report(5, "order-2 KN matches oracle at 1e-9; contexts normalize; uniform pp ~ |V|")


def test_criterion_06_perplexity_ordering_and_selection():
    rng = random.Random(606)
    reference = make_shard([de_sentence(rng) for _ in range(600)], prefix="ref")
    model = train_ngram([reference], order=5, min_count=1)
    wins = 0
    for i in range(100):
        doc = reference.documents[rng.randrange(len(reference.documents))]
        toks = doc.text.split()
        rng.shuffle(toks)
        pp_orig = score_perplexity(model, doc).perplexity
        pp_shuf = score_perplexity(model, make_doc("s", " ".join(toks))).perplexity
        wins += pp_orig < pp_shuf
    assert wins >= 95, f"only {wins}/100 favored the original ordering"

    scores = [
        PerplexityScore(f"d{i:04d}", -rng.random() * 200, 11, rng.uniform(1.0, 900.0))
        for i in range(1000)
    ]
    got = select_top_k(scores, 250)
    want = [s.doc_id for s in sorted(scores, key=lambda s: (s.perplexity, s.doc_id))[:250]]
    assert got == want
    _report(6, f"original beats shuffle in {wins}/100 trials; top-k equals sort oracle")


def test_criterion_07_langid_accuracy_and_monotonicity():
    rng = random.Random(707)
    de = [de_sentence(rng) for _ in range(1000)]
    en = [en_sentence(rng) for _ in range(1000)]
    model = train_langid(
        {"de": make_shard(de[:800], source="de", prefix="de"),
         "en": make_shard(en[:800], source="en", prefix="en")},
        epochs=10, seed=7,
    )
    correct = sum(score(model, t).label == "de" for t in de[800:])
    correct += sum(score(model, t).label == "en" for t in en[800:])
    accuracy = correct / 400
    assert accuracy >= 0.99, f"held-out accuracy {accuracy}"

    mixed = CorpusShard.from_documents(
        [make_doc(f"de-{i}", t, source="mix") for i, t in enumerate(de[800:850])]
        + [make_doc(f"en-{i}", t, source="mix") for i, t in enumerate(en[800:850])],
        source="mix")
    previous = None
    for t in (0.0, 0.5, 0.9, 0.99):
        kept = {d.id for d in filter_language(model, mixed, "de", t).documents}
        if previous is not None:
            assert kept <= previous, f"monotonicity violated at threshold {t}"
        previous = kept
    _report(7, f"held-out accuracy {accuracy:.3f}; threshold subsets monotone")


def test_criterion_08_chunker_invariants():
    from korpus.chunker import chunk_document, split_sentences
    rng = random.Random(808)
    from conftest import de_text
    budgets = (32, 64, 128, 256)
    for i in range(1000):
        doc = make_doc(f"c{i}", de_text(rng, rng.randrange(1, 10)))
        counts = []
        for budget in budgets:
            chunks = chunk_document(doc, budget)
            counts.append(len(chunks))
            if budget == 128:
                for c in chunks:
                    if not c.oversized:
                        assert c.token_count <= 128
                    else:
                        assert len(c.sentences) == 1
                assert [s for c in chunks for s in c.sentences] == split_sentences(doc.text)
        assert all(counts[j + 1] <= counts[j] for j in range(len(counts) - 1))
    _report(8, "1000 docs: budgets respected, lossless, chunk count monotone")


def test_criterion_09_mixer_budget():
    text = " ".join(f"w{i}" for i in range(100))
    docs = [make_doc(f"d{i}", text, source="gc4") for i in range(10)]
    shard = CorpusShard.from_documents(docs, source="gc4")
    out = trim_to_budget([shard], "gc4", 600, seed=31)
    assert out[0].manifest.doc_count == 6  # exactly 4 removed
    assert out[0].manifest.token_count == 600
    again = trim_to_budget([shard], "gc4", 600, seed=31)
    assert [d.id for d in again[0].documents] == [d.id for d in out[0].documents]
    _report(9, "10x100-token fixture trimmed to 600 removes exactly 4, seed-stable")


def test_criterion_10_end_to_end_determinism(tmp_path):
    cfg_a = build_pipeline_fixture(tmp_path / "a")
    cfg_b = build_pipeline_fixture(tmp_path / "b")
    run_pipeline(cfg_a, tmp_path / "a" / "ws")
    run_pipeline(cfg_b, tmp_path / "b" / "ws")
    digest_a = workspace_digest(tmp_path / "a" / "ws")
    digest_b = workspace_digest(tmp_path / "b" / "ws")
    assert digest_a == digest_b and digest_a, "fresh runs differ"

    cfg_c = build_pipeline_fixture(tmp_path / "c")
    run_pipeline(cfg_c, tmp_path / "c" / "ws", stop_after="dedup")  # interrupt
    run_pipeline(cfg_c, tmp_path / "c" / "ws")  # resume
    digest_c = workspace_digest(tmp_path / "c" / "ws")
    assert digest_c == digest_a, "interrupted-and-resumed run differs"
    _report(10, f"byte-identical workspaces across {len(digest_a)} files, resume included")
