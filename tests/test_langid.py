import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from korpus import langid
from korpus.core import CorpusShard
from korpus.errors import ConfigError, UnscorableError
from korpus.langid import (
    extract_features, filter_language, load_model, save_model, score, score_probs, train_langid,
)

from conftest import de_sentence, en_sentence, make_doc, make_shard
from oracles import oracle_extract_features

# Umlauts and ß, emoji (the flag is two codepoints), CJK, a combining acute,
# and whitespace that normalization folds: tab, newline, no-break and
# ideographic spaces.
_ALPHABET = "abcdeäöüßÄÖÜ😀🇩🇪中文字e\u0301 \t\n\u00a0\u3000"
_TEXTS = st.lists(
    st.one_of(st.text(_ALPHABET, max_size=40), st.sampled_from(["", " \t ", "ab", "ü", "😀x"])),
    max_size=12,
)


@pytest.fixture(scope="module")
def de_en_model():
    rng = random.Random(42)
    de = make_shard([de_sentence(rng) for _ in range(300)], source="de", prefix="de")
    en = make_shard([en_sentence(rng) for _ in range(300)], source="en", prefix="en")
    return train_langid({"de": de, "en": en}, epochs=12, learning_rate=3.0, seed=7)


class TestTraining:
    def test_disjoint_alphabets_separable(self):
        a = make_shard(["αλφα βητα γαμμα δελτα"], source="greek", prefix="g")
        b = make_shard(["alpha beta gamma delta"], source="latin", prefix="l")
        model = train_langid({"el": a, "la": b}, epochs=5, learning_rate=1.0, seed=1)
        assert score(model, "αλφα βητα").label == "el"
        assert score(model, "alpha beta").label == "la"

    def test_single_language_rejected(self):
        with pytest.raises(ConfigError):
            train_langid({"de": make_shard(["hallo welt"])}, epochs=1, learning_rate=0.1)

    def test_all_empty_documents_rejected(self):
        empty = make_shard(["", "   "], source="de", prefix="e")
        other = make_shard(["text"], source="en", prefix="o")
        with pytest.raises(ConfigError):
            train_langid({"de": empty, "en": other}, epochs=1, learning_rate=0.1)

    def test_holdout_accuracy(self):
        rng = random.Random(17)
        de = [de_sentence(rng) for _ in range(500)]
        en = [en_sentence(rng) for _ in range(500)]
        model = train_langid(
            {"de": make_shard(de[:400], source="de", prefix="de"),
             "en": make_shard(en[:400], source="en", prefix="en")},
            epochs=12, learning_rate=3.0, seed=3,
        )
        correct = sum(score(model, t).label == "de" for t in de[400:])
        correct += sum(score(model, t).label == "en" for t in en[400:])
        assert correct / 200 >= 0.99

    def test_identical_corpora_near_chance(self):
        rng = random.Random(23)
        texts = [de_sentence(rng) for _ in range(200)]
        model = train_langid(
            {"x": make_shard(texts[:160], source="x", prefix="x"),
             "y": make_shard(texts[:160], source="y", prefix="y")},
            epochs=5, learning_rate=1.0, seed=9,
        )
        correct = sum(score(model, t).label == "x" for t in texts[160:])
        correct += sum(score(model, t).label == "y" for t in texts[160:])
        accuracy = correct / 80
        assert abs(accuracy - 0.5) <= 0.1

    def test_loss_non_increasing(self, de_en_model):
        losses = de_en_model.loss_history
        assert all(losses[i + 1] <= losses[i] for i in range(len(losses) - 1))

    def test_input_order_does_not_matter(self):
        rng = random.Random(31)
        de_texts = [de_sentence(rng) for _ in range(40)]
        en_texts = [en_sentence(rng) for _ in range(40)]
        m1 = train_langid(
            {"de": make_shard(de_texts, source="de", prefix="d"),
             "en": make_shard(en_texts, source="en", prefix="e")},
            epochs=3, learning_rate=1.0, seed=5,
        )
        m2 = train_langid(
            {"de": make_shard(list(reversed(de_texts)), source="de", prefix="d"),
             "en": make_shard(list(reversed(en_texts)), source="en", prefix="e")},
            epochs=3, learning_rate=1.0, seed=5,
        )
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)


class TestFeatures:
    @settings(max_examples=200, deadline=None)
    @given(texts=_TEXTS, buckets=st.sampled_from([2**18, 1000, 97, 1]),
           batch_chars=st.sampled_from([None, 1, 16]))
    def test_batch_matches_per_ngram_oracle(self, texts, buckets, batch_chars):
        bound = langid._BATCH_CHARS if batch_chars is None else batch_chars
        with mock.patch.object(langid, "_BATCH_CHARS", bound):
            got = extract_features(texts, buckets)
        assert len(got) == len(texts)
        for text, (idx, vals) in zip(texts, got):
            want_idx, want_vals = oracle_extract_features(text, buckets)
            assert idx.dtype == want_idx.dtype and idx.tolist() == want_idx.tolist()
            assert vals.dtype == want_vals.dtype and vals.tobytes() == want_vals.tobytes()

    def test_model_bytes_pinned(self, de_en_model, tmp_path):
        # Digest of the model trained on features hashed one n-gram at a time
        # (oracle_extract_features); the batched hashing must not move a bit.
        path = tmp_path / "model.bin"
        save_model(de_en_model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e3f26d34bde9f6b0ddf9d82d621dc0ce87c7746be5f50dfce8872001e9b12dd5"
        )


class TestScoring:
    def test_german_scores_high(self, de_en_model):
        rng = random.Random(77)
        s = score(de_en_model, de_sentence(rng) + " " + de_sentence(rng))
        assert s.label == "de" and s.prob > 0.9

    def test_reference_softmax_agreement(self, de_en_model):
        # slow reference: recompute the softmax from raw feature extraction
        text = "die kluge Lehrerin liest im Garten"
        (idx, vals), = extract_features([text], de_en_model.feature_buckets)
        logits = de_en_model.weights[:, idx] @ vals + de_en_model.bias
        z = np.exp(logits - logits.max())
        reference = z / z.sum()
        got = score_probs(de_en_model, text)
        assert np.allclose(got, reference, atol=1e-12)

    def test_empty_text_unscorable(self, de_en_model):
        with pytest.raises(UnscorableError):
            score(de_en_model, "")
        with pytest.raises(UnscorableError):
            score(de_en_model, " \t ")

    def test_probs_sum_to_one(self, de_en_model, rng):
        for _ in range(25):
            text = de_sentence(rng) if rng.random() < 0.5 else en_sentence(rng)
            probs = score_probs(de_en_model, text)
            assert abs(float(probs.sum()) - 1.0) <= 1e-9
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


class TestFiltering:
    @pytest.fixture(scope="class")
    def mixed_shard(self):
        rng = random.Random(55)
        docs = [make_doc(f"de-{i}", de_sentence(rng), source="mix") for i in range(20)]
        docs += [make_doc(f"en-{i}", en_sentence(rng), source="mix") for i in range(20)]
        docs += [make_doc("leer", "", source="mix")]
        return CorpusShard.from_documents(docs, source="mix")

    def test_below_threshold_excluded(self, de_en_model, mixed_shard):
        kept = filter_language(de_en_model, mixed_shard, "de", 0.9)
        ids = {d.id for d in kept.documents}
        assert ids and all(i.startswith("de-") for i in ids)
        for d in kept.documents:
            assert score(de_en_model, d.text).prob >= 0.9

    def test_zero_threshold_keeps_all_target_labeled(self, de_en_model, mixed_shard):
        kept = filter_language(de_en_model, mixed_shard, "de", 0.0)
        expected = []
        for d in mixed_shard.documents:
            try:
                if score(de_en_model, d.text).label == "de":
                    expected.append(d.id)
            except UnscorableError:
                pass
        assert [d.id for d in kept.documents] == expected

    def test_matches_per_document_oracle(self, de_en_model, mixed_shard):
        kept = filter_language(de_en_model, mixed_shard, "de", 0.9)
        expected = []
        for d in mixed_shard.documents:
            try:
                s = score(de_en_model, d.text)
            except UnscorableError:
                continue
            if s.label == "de" and s.prob >= 0.9:
                expected.append(d.id)
        assert [d.id for d in kept.documents] == expected

    def test_threshold_monotonicity(self, de_en_model, mixed_shard):
        previous = None
        for t in (0.0, 0.5, 0.9, 0.99):
            kept = {d.id for d in filter_language(de_en_model, mixed_shard, "de", t).documents}
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_batch_bound_does_not_change_kept(self, de_en_model, mixed_shard, monkeypatch):
        kept = filter_language(de_en_model, mixed_shard, "de", 0.5)
        monkeypatch.setattr(langid, "_BATCH_CHARS", 100)  # a few documents per batch
        assert filter_language(de_en_model, mixed_shard, "de", 0.5).documents == kept.documents

    def test_unscorable_excluded(self, de_en_model, mixed_shard):
        kept = filter_language(de_en_model, mixed_shard, "de", 0.0)
        assert "leer" not in {d.id for d in kept.documents}

    def test_unknown_target_rejected(self, de_en_model, mixed_shard):
        with pytest.raises(ConfigError):
            filter_language(de_en_model, mixed_shard, "fr", 0.9)


class TestSerialization:
    def test_round_trip(self, de_en_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(de_en_model, path)
        back = load_model(path)
        assert back.labels == de_en_model.labels
        assert back.feature_buckets == de_en_model.feature_buckets
        assert np.array_equal(back.weights, de_en_model.weights)
        assert np.array_equal(back.bias, de_en_model.bias)

    def test_write_deterministic(self, de_en_model, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(de_en_model, a)
        save_model(de_en_model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ConfigError):
            load_model(path)
