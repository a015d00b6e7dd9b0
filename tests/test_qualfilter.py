import hashlib
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from korpus.core import CorpusShard, Document
from korpus import qualfilter
from korpus.errors import ConfigError, UnscorableError
from korpus.qualfilter import (
    BOS, EOS, UNK, NgramModel, filter_top_k, read_arpa, score_perplexity,
    select_top_k, train_ngram, write_arpa, PerplexityScore,
)

from conftest import de_sentence, make_doc, make_shard, med_sentence
from kn_oracle import oracle_model, oracle_perplexity
from oracles import oracle_read_arpa, oracle_write_arpa

TOY_TEXTS = ["a b a c", "b a a"]


def zipf_texts(seed: int, docs: int) -> list[str]:
    """Documents over a Zipf vocabulary of word-like tokens, the shape of the
    pipeline's reference corpus."""
    rng = random.Random(seed)
    syllables = ["an", "be", "dor", "ek", "fu", "gal", "hin", "ist", "ker", "lu", "men",
                 "or", "pa", "sch", "ten", "ung"]
    words = ["".join(rng.choices(syllables, k=rng.randint(2, 4))) for _ in range(3000)]
    weights = [1 / (i + 1) for i in range(len(words))]
    return [" ".join(rng.choices(words, weights, k=rng.randint(5, 40))) for _ in range(docs)]


def toy_model(order=2):
    docs = [Document(id=f"t{i}", source="toy", domain="formal", text=t)
            for i, t in enumerate(TOY_TEXTS)]
    return train_ngram([CorpusShard.from_documents(docs, source="toy")], order=order, min_count=1)


class TestKneserNeyToyCorpus:
    """Order-2 model on an 11-token corpus, checked against hand arithmetic.

    With counts a:3 b:2 c:1 </s>:2 (continuation) and bigrams all count 1
    except (b,a)=2: unigram discounts are D1=0.2, D2/D3 clamp to 1-1e-9;
    bigram D1 = 7/9 (n1=7, n2=1), D2/D3 clamp. denom(unigrams)=8, V=5.
    """

    # frozen from the hand computation (e.g. p(a) = (3-(1-1e-9))/8 + 0.4/5)
    EXPECTED = {
        ("a", ()): 0.33000000005,
        ("b", ()): 0.20500000005,
        ("c", ()): 0.179999999925,
        (EOS, ()): 0.20500000005,
        (UNK, ()): 0.079999999925,
        ("a", ("b",)): 0.6650000003600001,  # (2-D2)/2 + (D2/2) * p(a)
        ("a", (BOS,)): 0.3677777778166667,  # 1/9 + (7/9) * p(a)
        (EOS, ("c",)): 0.3816666667055556,  # 2/9 + (7/9) * p(</s>)
    }

    def test_frozen_hand_values(self):
        model = toy_model()
        for (w, ctx), expected in self.EXPECTED.items():
            assert model.conditional(w, ctx) == pytest.approx(expected, abs=1e-9)

    def test_matches_independent_oracle_everywhere(self):
        model = toy_model()
        prob, pred = oracle_model(TOY_TEXTS, order=2, min_count=1)
        contexts = [(), ("a",), ("b",), ("c",), (BOS,), (EOS,), ("zzz",), ("a", "b")]
        for ctx in contexts:
            for w in pred + ["zzz"]:
                assert model.conditional(w, ctx) == pytest.approx(prob(w, ctx), abs=1e-9), (w, ctx)

    def test_every_context_normalizes(self):
        model = toy_model()
        pred = model.predictable_vocab()
        contexts = {()} | {(w,) for w in model.vocab} | {("nie", "gesehen")}
        for ctx in contexts:
            total = sum(model.conditional(w, ctx) for w in pred)
            assert abs(total - 1.0) <= 1e-9, ctx

    def test_order3_against_oracle(self):
        texts = ["a b a c a b", "b a a c", "c a b a"]
        docs = [Document(id=f"t{i}", source="toy", domain="formal", text=t)
                for i, t in enumerate(texts)]
        model = train_ngram([CorpusShard.from_documents(docs, source="toy")], order=3, min_count=1)
        prob, pred = oracle_model(texts, order=3, min_count=1)
        for ctx in [(), ("a",), ("a", "b"), (BOS, BOS), (BOS, "a"), ("c", "a"), ("x", "y")]:
            total = 0.0
            for w in pred:
                p = model.conditional(w, ctx)
                assert p == pytest.approx(prob(w, ctx), abs=1e-9), (w, ctx)
                total += p
            assert abs(total - 1.0) <= 1e-9


# Tokens around "<" in string order: digits and punctuation sort before the
# special symbols, letters and umlauts after them.
SPECIAL_TOKENS = ["<s>", "<unk>", "</s>", "0", "42", "!", "#", "'", ",", "(", "Z", "a", "ü", "~"]


def random_corpus(rng, n_words, n_docs, max_len):
    words = [f"w{i}" for i in range(n_words)] + SPECIAL_TOKENS
    weights = [1.0 / (i + 1) for i in range(len(words))]
    rng.shuffle(weights)
    return [" ".join(rng.choices(words, weights, k=rng.randint(1, max_len)))
            for _ in range(n_docs)]


def arpa_sections(text):
    """ARPA order -> the n-grams of its section as tuples of strings, in file order."""
    sections, k = {}, 0
    for line in text.splitlines():
        if line.startswith("\\") and line.endswith("-grams:"):
            k = int(line[1:-7])
            sections[k] = []
        elif line.startswith("\\") or not line:
            k = 0
        elif k:
            sections[k].append(tuple(line.split("\t")[1].split(" ")))
    return sections


class TestKneserNeyProperties:
    """Seeded random corpora against the plain-dictionary oracle."""

    @staticmethod
    def check(texts, order, min_count, rng, tmp_path, n_contexts=8, events=None):
        model = train_ngram([make_shard(texts)], order=order, min_count=min_count)
        prob, pred = oracle_model(texts, order=order, min_count=min_count)
        assert sorted(model.predictable_vocab()) == pred
        # Contexts from the padded documents, so that every order is reached,
        # plus unseen tokens and literal specials.
        windows = []
        for t in texts:
            seq = [BOS] * (order - 1) + t.split() + [EOS]
            windows += [tuple(seq[i - order + 1:i]) if order > 1 else ()
                        for i in range(order - 1, len(seq))]
        contexts = rng.sample(windows, min(n_contexts, len(windows)))
        contexts += [(), ("nie", "gesehen"), (BOS, UNK), (UNK, BOS, "0")]
        words = pred + ["nie", BOS] if events is None else events
        for ctx in contexts:
            for w in words:
                assert model.conditional(w, ctx) == pytest.approx(prob(w, ctx), rel=1e-12), (w, ctx)

        path = tmp_path / f"o{order}m{min_count}.arpa"
        write_arpa(model, path)
        sections = arpa_sections(path.read_text(encoding="utf-8"))
        assert sorted(sections) == list(range(1, order + 1))
        for grams in sections.values():
            assert grams == sorted(set(grams))
        loaded = read_arpa(path)
        for i, text in enumerate(texts[:40] + [random_corpus(rng, 30, 1, 12)[0], "nie gesehen"]):
            doc = make_doc(f"d{i}", text)
            want = score_perplexity(model, doc).perplexity
            assert score_perplexity(loaded, doc).perplexity == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("min_count", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_random_corpus_matches_oracle(self, tmp_path, order, min_count):
        rng = random.Random(1000 * order + min_count)
        texts = random_corpus(rng, n_words=25, n_docs=40, max_len=12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sparse count-of-counts
            self.check(texts, order, min_count, rng, tmp_path)

    def test_order5_with_more_than_8192_ids(self, tmp_path):
        # 5 ids of 14 bits need 70 bits: a flat packed key would overflow int64
        rng = random.Random(8193)
        tokens = [f"w{i}" for i in range(9000)] + SPECIAL_TOKENS
        tokens += rng.choices(tokens[:200], k=6000)  # repeats, so long n-grams recur
        rng.shuffle(tokens)
        texts = []
        while tokens:
            n = rng.randint(1, 40)
            texts.append(" ".join(tokens[:n]))
            tokens = tokens[n:]
        model = train_ngram([make_shard(texts)], order=5, min_count=1)
        assert len(model.vocab) > 8192
        events = rng.sample(model.predictable_vocab(), 4) + [EOS, UNK]
        self.check(texts, 5, 1, rng, tmp_path, n_contexts=6, events=events)


class TestTraining:
    def test_unigram_normalization_with_eos(self):
        # "a a b": a=2, b=1, plus the sentence-final </s> event and <unk> mass
        shard = make_shard(["a a b"])
        model = train_ngram([shard], order=1, min_count=1)
        pred = model.predictable_vocab()
        assert set(pred) == {"a", "b", EOS, UNK}
        total = sum(model.conditional(w, ()) for w in pred)
        assert abs(total - 1.0) <= 1e-9
        assert all(model.conditional(w, ()) > 0 for w in pred)

    def test_min_count_maps_to_unk(self):
        shard = make_shard(["oft oft oft selten"])
        model = train_ngram([shard], order=1, min_count=2)
        assert "selten" not in model.vocab
        assert model.conditional("selten", ()) == model.conditional(UNK, ())

    def test_sparse_counts_fall_back_with_warning(self):
        # every token occurs exactly 3 times: n1 = n2 = 0 at the unigram level
        shard = make_shard(["x x x y y y"])
        with pytest.warns(RuntimeWarning, match="0.75") as record:
            train_ngram([shard], order=1, min_count=1)
        assert record[0].filename == __file__  # the warning names the caller's line

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_peak_near_what_the_model_keeps(self, min_count):
        """The token lists and the counts are freed before the model builds its
        scorer tables, so training peaks near the model's own size."""
        shard = make_shard(zipf_texts(18, 500))
        tracemalloc.start()
        try:
            model = train_ngram([shard], order=5, min_count=min_count)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.keys.size > 40_000
        assert peak < 1.7 * kept, (peak, kept)

    def test_shard_order_invariance(self):
        rng = random.Random(3)
        texts = [de_sentence(rng) for _ in range(30)]
        a = make_shard(texts[:15], prefix="a")
        b = make_shard(texts[15:], prefix="b")
        m1 = train_ngram([a, b], order=2, min_count=1)
        m2 = train_ngram([b, a], order=2, min_count=1)
        assert np.array_equal(m1.keys, m2.keys)
        assert np.array_equal(m1.prob, m2.prob, equal_nan=True)
        assert np.array_equal(m1.backoff, m2.backoff, equal_nan=True)

    def test_empty_reference_rejected(self):
        with pytest.raises(ConfigError):
            train_ngram([make_shard([])], order=2)

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError):
            train_ngram([make_shard(["a b"])], order=0)


class TestPerplexity:
    def test_uniform_closed_form(self):
        # hand-built uniform model: every event carries probability 1/V
        vocab = {EOS: 0, BOS: 1, UNK: 2, "a": 3, "b": 4, "c": 5}
        pred = [w for w in vocab if w != BOS]
        v = len(pred)
        ids = np.arange(len(vocab))
        model = NgramModel(order=1, vocab=vocab, keys=ids - len(vocab),
                           prob=np.where(ids == vocab[BOS], np.nan, 1.0 / v),
                           backoff=np.full(len(vocab), np.nan))
        for text in ("a b c", "a", "c c c c c c c"):
            score = score_perplexity(model, make_doc("x", text))
            assert score.perplexity == pytest.approx(v, abs=1e-6)
            assert score.token_count == len(text.split()) + 1

    @pytest.mark.parametrize("vocab", [
        {UNK: 0, BOS: 1, EOS: 2, "a": 3, "b": 4, "c": 5},
        {EOS: 0, BOS: 1, UNK: 2, "a": 3, "b": 5, "c": 4},
        {EOS: 0, BOS: 1, UNK: 2, "a": 3, "b": 4, "c": 6},
        {EOS: 0, UNK: 1, "a": 2, "b": 3, "c": 4, "d": 5},
    ], ids=["specials-first", "swapped", "gap", "no-bos"])
    def test_vocabulary_numbered_in_string_order(self, vocab):
        ids = np.arange(len(vocab))
        with pytest.raises(ValueError, match="0..V-1 in string order"):
            NgramModel(order=1, vocab=vocab, keys=ids - len(vocab), prob=np.full(ids.size, 0.2),
                       backoff=np.full(ids.size, np.nan))

    def test_trained_uniform_perplexity_close_to_vocab_size(self):
        rng = random.Random(8)
        vocab_size = 40
        tokens = [f"tok{i}" for i in range(vocab_size)] * 25
        rng.shuffle(tokens)
        docs = [" ".join(tokens[i:i + 40]) for i in range(0, len(tokens), 40)]
        model = train_ngram([make_shard(docs)], order=1, min_count=1)
        v = len(model.predictable_vocab())
        sample = " ".join(rng.choice(tokens) for _ in range(300))
        pp = score_perplexity(model, make_doc("s", sample)).perplexity
        assert abs(pp - v) / v <= 0.10

    def test_empty_document_unscorable(self):
        model = toy_model()
        with pytest.raises(UnscorableError):
            score_perplexity(model, make_doc("e", ""))

    def test_matches_oracle_perplexity(self):
        model = toy_model()
        prob, pred = oracle_model(TOY_TEXTS, order=2, min_count=1)
        for text in ("a b a", "c c b", "a a a b"):
            got = score_perplexity(model, make_doc("x", text)).perplexity
            want = oracle_perplexity(prob, set(pred), text, order=2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_training_sentence_beats_shuffles(self):
        rng = random.Random(5)
        reference = make_shard([de_sentence(rng) for _ in range(400)], prefix="ref")
        model = train_ngram([reference], order=5, min_count=1)
        wins = 0
        trials = 40
        for i in range(trials):
            doc = reference.documents[rng.randrange(len(reference.documents))]
            toks = doc.text.split()
            rng.shuffle(toks)
            shuffled = make_doc("shuf", " ".join(toks))
            pp_orig = score_perplexity(model, doc).perplexity
            pp_shuf = score_perplexity(model, shuffled).perplexity
            wins += pp_orig < pp_shuf
        assert wins >= trials * 0.95

    def test_short_document_scored_via_padding(self):
        model = train_ngram([make_shard([de_sentence(random.Random(2))])], order=5, min_count=1)
        score = score_perplexity(model, make_doc("one", "der"))
        assert math.isfinite(score.perplexity) and score.perplexity >= 1.0


class TestSelection:
    def test_k_zero(self):
        """k >= 1, as `quality_top_k` in the config schema."""
        with pytest.raises(ConfigError, match="k must be >= 1"):
            select_top_k([], 0)

    def test_ordering_with_ties_on_id(self):
        scores = [
            PerplexityScore("A", -10.0, 5, 10.0),
            PerplexityScore("B", -10.0, 5, 5.0),
            PerplexityScore("C", -10.0, 5, 20.0),
        ]
        assert select_top_k(scores, 2) == ["B", "A"]
        assert select_top_k(scores, 99) == ["B", "A", "C"]

    def test_matches_full_sort_oracle(self, rng):
        scores = [
            PerplexityScore(f"d{i:04d}", -rng.random() * 100, 10, rng.uniform(1, 500))
            for i in range(1000)
        ]
        got = select_top_k(scores, 100)
        want = [s.doc_id for s in sorted(scores, key=lambda s: (s.perplexity, s.doc_id))[:100]]
        assert got == want

    def test_rescaling_logprobs_keeps_selection(self, rng):
        scores = [
            PerplexityScore(f"d{i}", -rng.uniform(1, 50), 7, 0.0)
            for i in range(200)
        ]
        scores = [
            PerplexityScore(s.doc_id, s.log_prob_sum, s.token_count,
                            math.exp(-s.log_prob_sum / s.token_count))
            for s in scores
        ]
        scaled = [
            PerplexityScore(s.doc_id, 3.0 * s.log_prob_sum, s.token_count,
                            math.exp(-3.0 * s.log_prob_sum / s.token_count))
            for s in scores
        ]
        assert select_top_k(scores, 50) == select_top_k(scaled, 50)

    def test_filter_top_k_drops_unscorable(self):
        model = toy_model()
        shard = CorpusShard.from_documents(
            [make_doc("good", "a b a"), make_doc("empty", "")])
        kept, scores = filter_top_k(shard, model, 10)
        assert [d.id for d in kept.documents] == ["good"]
        assert [s.doc_id for s in scores] == ["good"]

    def test_filter_top_k_checks_k_before_scoring(self, monkeypatch):
        def fail(*args):
            raise AssertionError("scored before the argument check")
        monkeypatch.setattr(qualfilter, "score_shard", fail)
        shard = CorpusShard.from_documents([make_doc("good", "a b a")])
        for k in (-1, 0):
            with pytest.raises(ConfigError, match="k must be >= 1"):
                filter_top_k(shard, toy_model(), k)


def thin_arpa(text, rng, share):
    """The ARPA text with each row of order >= 2 deleted at rate `share` and,
    at rate `share`, one word's unigram probability set to -99; the header
    counts follow."""
    blocks = text.split("\n\n")  # the header, one block per section, then \\end\\
    counts = []
    for k, block in enumerate(blocks[1:-1], 1):
        title, *rows = block.split("\n")
        if k == 1 and rng.random() < share:
            words = [i for i, r in enumerate(rows) if r.split("\t")[1] not in SPECIAL_TOKENS]
            if words:
                i = rng.choice(words)
                rows[i] = "-99" + rows[i][rows[i].index("\t"):]
        elif k > 1:
            rows = [r for r in rows if rng.random() >= share]
        blocks[k] = "\n".join([title, *rows])
        counts.append(f"ngram {k}={len(rows)}")
    blocks[0] = "\n".join(["\\data\\", *counts])
    return "\n\n".join(blocks)


class TestArpa:
    def test_round_trip_scores(self, tmp_path):
        rng = random.Random(4)
        reference = make_shard([med_sentence(rng) for _ in range(60)], prefix="r")
        model = train_ngram([reference], order=3, min_count=1)
        path = tmp_path / "m.arpa"
        write_arpa(model, path)
        loaded = read_arpa(path)
        assert loaded.order == model.order
        docs = [make_doc(f"q{i}", med_sentence(rng)) for i in range(20)]
        for doc in docs:
            a = score_perplexity(model, doc)
            b = score_perplexity(loaded, doc)
            assert b.perplexity == pytest.approx(a.perplexity, rel=1e-10)

    def test_arpa_bytes_pinned(self, tmp_path):
        # Digest of the parent's output for an order-4 model with <unk> and a
        # literal <s> in the text; an ARPA writer rewrite must not move a byte.
        rng = random.Random(4)
        texts = [" ".join(med_sentence(rng) for _ in range(2)) for _ in range(60)]
        texts.append("Die Kontrolle <s> zeigte stabile Werte <s>")
        model = train_ngram([make_shard(texts, prefix="r")], order=4, min_count=2)
        path = tmp_path / "m.arpa"
        write_arpa(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "31a50acdd3e61d8aded7472c3c02fa87ce45a506ea72725ef6c2a068e09e1085"
        )

    def test_write_deterministic(self, tmp_path):
        model = toy_model()
        a, b = tmp_path / "a.arpa", tmp_path / "b.arpa"
        write_arpa(model, a)
        write_arpa(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_counts_match_sections(self, tmp_path):
        model = toy_model()
        path = tmp_path / "m.arpa"
        write_arpa(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        counts = {int(l.split()[1].split("=")[0]): int(l.split("=")[1])
                  for l in lines if l.startswith("ngram ")}
        for k, n in counts.items():
            in_section = 0
            active = False
            for l in lines:
                if l == f"\\{k}-grams:":
                    active = True
                    continue
                if l.startswith("\\"):
                    active = False
                if active and l.strip():
                    in_section += 1
            assert in_section == n

    def test_bos_has_placeholder_probability(self, tmp_path):
        model = toy_model()
        path = tmp_path / "m.arpa"
        write_arpa(model, path)
        text = path.read_text(encoding="utf-8")
        assert f"-99\t{BOS}" in text

    @pytest.mark.parametrize("old,new", [
        ("ngram 1=", "ngram 1=x"),  # count
        ("ngram 2=", "ngram="),  # count without an order
        ("\\2-grams:", "\\zwei-grams:"),  # section header
        (f"\t{EOS}\n", f"\t{EOS}\tnull\n"),  # backoff weight
        ("\n-", "\nminus"),  # log probability
    ], ids=["count", "count-order", "section", "backoff", "logprob"])
    def test_unparsable_line_names_file_and_line(self, tmp_path, old, new):
        path = tmp_path / "m.arpa"
        write_arpa(toy_model(), path)
        text = path.read_text(encoding="utf-8")
        assert old in text
        text = text.replace(old, new, 1)
        lineno = text[:text.index(new)].count("\n") + 1 + new.startswith("\n")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{lineno}: cannot parse"):
            read_arpa(path)

    @pytest.mark.parametrize("min_count", [1, 2])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_oracle_reader(self, tmp_path, order, min_count):
        """Against the reader with its own top-down closure that `read_arpa`
        replaced, on trained models and on files that lack rows."""
        rng = random.Random(9000 + 10 * order + min_count)
        path = tmp_path / "m.arpa"
        added = 0  # n-grams of order >= 2 with neither value: pieces the file does not list
        for _ in range(8):
            texts = random_corpus(rng, n_words=rng.randint(5, 40), n_docs=rng.randint(1, 40),
                                  max_len=rng.randint(1, 12))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # sparse count-of-counts
                model = train_ngram([make_shard(texts)], order=order, min_count=min_count)
            write_arpa(model, path)
            if rng.random() < 0.7:
                path.write_text(thin_arpa(path.read_text(encoding="utf-8"), rng, 0.3),
                                encoding="utf-8")
            new, old = read_arpa(path), oracle_read_arpa(path)
            assert (new.order, new.vocab) == (old.order, old.vocab)
            for name in ("keys", "prob", "backoff"):  # NaN equals NaN here
                np.testing.assert_array_equal(getattr(new, name), getattr(old, name), name)
            v = len(new.vocab)
            added += np.count_nonzero(np.isnan(new.prob[v:]) & np.isnan(new.backoff[v:]))
        assert added > 0 or order < 3

    HAND_ARPA = """\\data\\
ngram 1=7
ngram 2=2
ngram 3=2

\\1-grams:
-1\t</s>
-99\t<s>\t-0.3
-1\t<unk>
-0.5\ta\t-0.1
-0.5\tb\t-0.2
-0.6\tc
-99\tzz\t-0.4

\\2-grams:
-0.2\tb c
-0.3\ta zz

\\3-grams:
-0.1\ta b c
-0.7\tb c a

\\end\\
"""

    def test_foreign_arpa_keeps_dictionary_semantics(self, tmp_path):
        # (a b), the prefix of (a b c), and (c a), the suffix of (b c a), are
        # missing; zz has no probability, so it is no vocabulary word and
        # (a zz) can never be looked up. Expected values follow the backoff rule.
        path = tmp_path / "hand.arpa"
        path.write_text(self.HAND_ARPA, encoding="utf-8")
        model = read_arpa(path)
        assert "zz" not in model.vocab
        e = lambda x: 10.0 ** x
        assert model.conditional("c", ("a", "b")) == e(-0.1)
        assert model.conditional("c", ("x", "b")) == e(-0.2)
        assert model.conditional("a", ("a", "b")) == e(-0.2) * e(-0.5)
        assert model.conditional("a", ("b", "c")) == e(-0.7)
        assert model.conditional("b", ("c", "a")) == e(-0.1) * e(-0.5)
        assert model.conditional("zz", ("a",)) == e(-0.1) * e(-1)
        doc = make_doc("d", "b c a b")
        want = [e(-0.3) * e(-0.5), e(-0.2), e(-0.7), e(-0.1) * e(-0.5), e(-0.2) * e(-1)]
        assert score_perplexity(model, doc).log_prob_sum == pytest.approx(
            sum(math.log(p) for p in want), rel=1e-12)

    @pytest.mark.parametrize("old,new,message", [
        ("-0.3\ta zz", "-0.3\tb c", "duplicate n-gram"),
        ("-1\t<unk>", "-99\t<unk>", "no unigram probability"),
        ("\\data\\", "vorab\n\\data\\", "unexpected line outside any section: 'vorab'"),
        ("-0.1\ta b c", "-0.1\ta b", r"short line in \\3-grams section"),
        (HAND_ARPA[HAND_ARPA.index("\\1-grams:"):HAND_ARPA.index("\\end\\")], "",
         "no n-gram sections found"),
        ("ngram 2=2", "ngram 2=3", "header promises 3 2-grams, found 2"),
    ], ids=["duplicate", "no-unk", "before-data", "short-row", "no-sections", "count"])
    def test_unusable_arpa_rejected(self, tmp_path, old, new, message):
        assert old in self.HAND_ARPA
        path = tmp_path / "hand.arpa"
        path.write_text(self.HAND_ARPA.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            read_arpa(path)

    def test_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_bytes("\\data\\\nngram 1=1\n\n\\1-grams:\n-1\tGrüße\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read_arpa(path)

    def test_normalization_survives_round_trip(self, tmp_path):
        model = toy_model()
        path = tmp_path / "m.arpa"
        write_arpa(model, path)
        loaded = read_arpa(path)
        pred = [w for w in loaded.vocab if w != BOS]
        for ctx in [(), ("a",), ("b",), (BOS,)]:
            total = sum(loaded.conditional(w, ctx) for w in pred)
            assert abs(total - 1.0) <= 1e-9


class TestArpaWriterOracle:
    """The streaming `write_arpa` against the whole-file writer it replaced, byte for byte."""

    @staticmethod
    def same_bytes(model, tmp_path) -> str:
        new, old = tmp_path / "new.arpa", tmp_path / "old.arpa"
        write_arpa(model, new)
        oracle_write_arpa(model, old)
        assert new.read_bytes() == old.read_bytes()
        return new.read_text(encoding="utf-8")

    @pytest.mark.parametrize("min_count", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_random_corpus(self, tmp_path, order, min_count):
        rng = random.Random(7000 + 10 * order + min_count)
        texts = random_corpus(rng, n_words=rng.randint(5, 60), n_docs=rng.randint(1, 60),
                              max_len=rng.randint(1, 15))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sparse count-of-counts
            model = train_ngram([make_shard(texts)], order=order, min_count=min_count)
        text = self.same_bytes(model, tmp_path)
        assert f"\n-99\t{BOS}" in text

    def test_edited_values(self, tmp_path):
        """Values training does not produce: -99 rows with a backoff, rows with
        neither value, repeated values, exponents and a top-order backoff."""
        rng = random.Random(17)
        model = train_ngram([make_shard(random_corpus(rng, 25, 40, 12))], order=3, min_count=1)
        prob, backoff = model.prob.copy(), model.backoff.copy()
        bigrams, top = slice(model.offsets[1], model.offsets[2]), slice(model.offsets[2], None)
        prob[bigrams][::5] = np.nan  # a -99 row that keeps its backoff
        backoff[bigrams][::10] = np.nan  # and one with neither, which is not listed
        prob[bigrams][1::7] = 1 - 1e-6  # log10 is about -4.3e-07
        backoff[bigrams][2::9] = 1.0  # log10 is 0
        backoff[top] = 0.5  # never written: the top order has no backoff column
        edited = NgramModel(order=3, vocab=model.vocab, keys=model.keys, prob=prob,
                            backoff=backoff)
        text = self.same_bytes(edited, tmp_path)
        sections = text.split("\n\n")
        bigram_rows = sections[2].splitlines()[1:]
        either = ~(np.isnan(prob[bigrams]) & np.isnan(backoff[bigrams]))
        assert len(bigram_rows) == np.count_nonzero(either) < either.size
        assert any(r.startswith("-99\t") and r.count("\t") == 2 for r in bigram_rows)
        assert sum(r.startswith("-4.3429") and "e-07" in r for r in bigram_rows) > 1
        assert any(r.endswith("\t0") for r in bigram_rows)
        assert all(r.count("\t") == 1 for r in sections[3].splitlines()[1:])

    def test_peak_below_twice_the_file(self, tmp_path):
        model = train_ngram([make_shard(zipf_texts(18, 500))], order=5, min_count=1)
        path = tmp_path / "m.arpa"
        tracemalloc.start()
        try:
            write_arpa(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 1 << 20
        assert peak < 2 * size, (peak, size)
