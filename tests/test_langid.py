import copy
import hashlib
import json
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from korpus import langid
from korpus.core import CorpusShard
from korpus.errors import ConfigError, UnscorableError
from korpus.langid import (
    LangIdModel, extract_features, filter_language, load_model, save_model, score, score_probs,
    train_langid,
)

from conftest import (
    KERNEL_SETTINGS, de_sentence, en_sentence, make_doc, make_shard, run_under_kernels,
)
from oracles import oracle_extract_features, oracle_train_langid

# Umlauts and ß, emoji (the flag is two codepoints), CJK, a combining acute,
# and whitespace that normalization folds: tab, newline, no-break and
# ideographic spaces.
_ALPHABET = "abcdeäöüßÄÖÜ😀🇩🇪中文字e\u0301 \t\n\u00a0\u3000"
_TEXTS = st.lists(
    st.one_of(st.text(_ALPHABET, max_size=40), st.sampled_from(["", " \t ", "ab", "ü", "😀x"])),
    max_size=12,
)
# Training corpora: each language has one text with an n-gram, then short,
# empty and mixed-script ones (umlauts, Cyrillic, Greek, CJK, emoji).
_TRAIN_ALPHABET = "abcäöüßÄжёлλόγ中文😀é "
_CONTENT = st.text(_TRAIN_ALPHABET.replace(" ", ""), min_size=3, max_size=30)
_TRAIN_TEXTS = st.lists(
    st.one_of(st.text(_TRAIN_ALPHABET, max_size=30),
              st.sampled_from(["", " ", "ab", "ü", "中文字"])),
    max_size=6,
)

_TRAIN_DIGESTS = """
import hashlib, json, sys, tempfile
from pathlib import Path
args = json.load(sys.stdin)
sys.path.insert(0, args["tests"])
from oracles import oracle_train_langid
from korpus.core import CorpusShard, Document
from korpus.langid import save_model, train_langid
corpora = {label: CorpusShard.from_documents(
               [Document(id=f"{label}-{i}", source=label, domain="formal", text=t)
                for i, t in enumerate(texts)], source=label)
           for label, texts in args["corpora"].items()}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.bin"
    for train in (train_langid, oracle_train_langid):
        save_model(train(corpora, epochs=3, seed=5, feature_buckets=4096), path)
        print(hashlib.sha256(path.read_bytes()).hexdigest())
"""


_FEATURE_DIGEST = """
import hashlib, json, sys
from korpus.langid import extract_features
digest = hashlib.sha256()
for idx, vals in extract_features(json.load(sys.stdin)):
    digest.update(idx.tobytes() + vals.tobytes() + b"|")
print(digest.hexdigest())
"""


def _dense(model: LangIdModel) -> np.ndarray:
    """The weights over every bucket: the model's columns, zeros elsewhere."""
    dense = np.zeros((len(model.labels), model.feature_buckets))
    dense[:, model.columns] = model.weights[:, :-1]
    return dense


def _dense_file(model: LangIdModel, path: Path) -> bytes:
    """The model in korpus 0.2.0's layout: its magic, this version's header
    line, then the dense weights and the bias (little-endian float64)."""
    save_model(model, path)
    header = path.read_bytes()[len(langid._MAGIC):].split(b"\n", 1)[0]
    return (b"KORPUSLID\x01" + header + b"\n" + _dense(model).astype("<f8").tobytes()
            + model.bias.astype("<f8").tobytes())


def _full_model(buckets: int = 1 << 18) -> LangIdModel:
    """A model with a column for every bucket."""
    weights = np.random.default_rng(0).standard_normal((2, buckets + 1))
    weights[:, -1] = 0.0
    return LangIdModel(labels=("de", "en"), feature_buckets=buckets,
                       touched=np.ones(buckets, dtype=bool), weights=weights,
                       bias=np.array([0.5, -0.5]))


@pytest.fixture(scope="module")
def de_en_model():
    rng = random.Random(42)
    de = make_shard([de_sentence(rng) for _ in range(300)], source="de", prefix="de")
    en = make_shard([en_sentence(rng) for _ in range(300)], source="en", prefix="en")
    return train_langid({"de": de, "en": en}, epochs=12, seed=7)


@pytest.fixture(scope="module")
def de_en_dense(de_en_model):
    return _dense(de_en_model)


class TestTraining:
    def test_disjoint_alphabets_separable(self):
        a = make_shard(["αλφα βητα γαμμα δελτα"], source="greek", prefix="g")
        b = make_shard(["alpha beta gamma delta"], source="latin", prefix="l")
        model = train_langid({"el": a, "la": b}, epochs=5, seed=1)
        assert score(model, "αλφα βητα").label == "el"
        assert score(model, "alpha beta").label == "la"

    def test_single_language_rejected(self):
        with pytest.raises(ConfigError):
            train_langid({"de": make_shard(["hallo welt"])}, epochs=1)

    def test_all_empty_documents_rejected(self):
        empty = make_shard(["", "   "], source="de", prefix="e")
        other = make_shard(["text"], source="en", prefix="o")
        with pytest.raises(ConfigError):
            train_langid({"de": empty, "en": other}, epochs=1)

    @pytest.mark.parametrize("option,value,rule", [
        ("epochs", 0, "epochs must be >= 1"),
        ("epochs", -3, "epochs must be >= 1"),
        ("feature_buckets", 0, "feature_buckets must be >= 1"),
        ("feature_buckets", 2**31, r"feature_buckets must be <= 2\*\*31 - 1"),
        ("feature_buckets", 2**62, r"feature_buckets must be <= 2\*\*31 - 1"),
        ("seed", -1, "seed must lie in"),
        ("seed", 2**64, "seed must lie in"),
    ])
    def test_bad_argument_rejected_before_features(self, monkeypatch, option, value, rule):
        """The rules of the config schema, checked before any document is hashed
        and before any array over the buckets is allocated."""
        monkeypatch.setattr(langid, "extract_features", mock.Mock(side_effect=AssertionError))
        corpora = {"de": make_shard(["hallo welt"], source="de", prefix="d"),
                   "en": make_shard(["hello world"], source="en", prefix="e")}
        with pytest.raises(ConfigError, match=rule):
            train_langid(corpora, **{option: value})

    def test_holdout_accuracy(self):
        rng = random.Random(17)
        de = [de_sentence(rng) for _ in range(500)]
        en = [en_sentence(rng) for _ in range(500)]
        model = train_langid(
            {"de": make_shard(de[:400], source="de", prefix="de"),
             "en": make_shard(en[:400], source="en", prefix="en")},
            epochs=12, seed=3,
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
            epochs=5, seed=9,
        )
        correct = sum(score(model, t).label == "x" for t in texts[160:])
        correct += sum(score(model, t).label == "y" for t in texts[160:])
        accuracy = correct / 80
        assert abs(accuracy - 0.5) <= 0.1

    def test_input_order_does_not_matter(self):
        rng = random.Random(31)
        de_texts = [de_sentence(rng) for _ in range(40)]
        en_texts = [en_sentence(rng) for _ in range(40)]
        m1 = train_langid(
            {"de": make_shard(de_texts, source="de", prefix="d"),
             "en": make_shard(en_texts, source="en", prefix="e")},
            epochs=3, seed=5,
        )
        m2 = train_langid(
            {"de": make_shard(list(reversed(de_texts)), source="de", prefix="d"),
             "en": make_shard(list(reversed(en_texts)), source="en", prefix="e")},
            epochs=3, seed=5,
        )
        assert np.array_equal(m1.columns, m2.columns)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_columns_are_the_touched_buckets(self, de_en_model):
        """A column for each bucket that a training text hashes to, and only
        those; the zero column is last."""
        rng = random.Random(42)  # the texts of de_en_model, as its fixture draws them
        texts = [de_sentence(rng) for _ in range(300)] + [en_sentence(rng) for _ in range(300)]
        touched = np.unique(np.concatenate([idx for idx, _ in extract_features(texts)]))
        assert de_en_model.columns.tolist() == touched.tolist()
        assert de_en_model.weights.shape == (2, touched.size + 1)
        assert de_en_model.weights.flags.c_contiguous
        assert not de_en_model.weights[:, -1].any()
        assert de_en_model.column.dtype == np.int32
        assert de_en_model.column[touched].tolist() == list(range(touched.size))
        untouched = np.setdiff1d(np.arange(de_en_model.feature_buckets), touched)
        assert (de_en_model.column[untouched] == touched.size).all()

    def test_peak_is_the_features_the_model_and_one_working_copy(self):
        """Training holds its features, the model with its bool mask of touched
        buckets, and one row-major copy of the weights; a second copy fails."""
        rng = random.Random(5)
        texts = {label: ["".join(chr(0x4E00 + rng.randrange(4000)) for _ in range(200))
                         for _ in range(100)] for label in "abcd"}
        corpora = {label: make_shard(t, source=label, prefix=label) for label, t in texts.items()}
        buckets = 1 << 20
        features = sum(idx.nbytes + vals.nbytes for idx, vals in
                       extract_features([t for label in "abcd" for t in texts[label]], buckets))
        tracemalloc.start()
        try:
            model = train_langid(corpora, epochs=1, seed=0, feature_buckets=buckets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = model.weights.nbytes
        kept = features + weights + model.column.nbytes + model.bias.nbytes + buckets
        assert weights > 6_000_000  # every text touches about 600 buckets of its own
        # Measured: 1.25 MB over `kept + weights`.
        assert peak <= kept + weights + weights // 4 + buckets, (peak, kept, weights)

    @settings(max_examples=60, deadline=None)
    @given(corpora=st.integers(2, 4).flatmap(
               lambda n: st.lists(st.tuples(_CONTENT, _TRAIN_TEXTS), min_size=n, max_size=n)),
           buckets=st.sampled_from([1, 97, 4096]), epochs=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1))
    def test_steps_equal_the_column_major_oracle(self, corpora, buckets, epochs, seed,
                                                 tmp_path_factory):
        """The row-major steps write the bytes of the column-major ones: every
        float operation is the same, in the same order, on the same operands."""
        shards = {label: make_shard([content, *texts], source=label, prefix=label)
                  for label, (content, texts) in zip(("de", "en", "fr", "ru"), corpora)}
        path = tmp_path_factory.mktemp("model") / "model.bin"
        model = train_langid(shards, epochs=epochs, seed=seed, feature_buckets=buckets)
        assert model.weights.flags.c_contiguous and not model.weights[:, -1].any()
        save_model(model, path)
        got = path.read_bytes()
        save_model(oracle_train_langid(shards, epochs, seed, buckets), path)
        assert got == path.read_bytes()

    @KERNEL_SETTINGS
    def test_steps_equal_the_oracle_under_other_kernels(self, setting):
        """Under each kernel setting, in one child process, the steps and the
        oracle write the same bytes, whatever the pinned digests read there."""
        rng = random.Random(8)
        corpora = {"de": [de_sentence(rng) for _ in range(60)] + [_ALPHABET, ""],
                   "en": [en_sentence(rng) for _ in range(60)] + ["жёлтый λόγος 中文", "ab"]}
        stdin = json.dumps({"tests": str(Path(__file__).parent), "corpora": corpora})
        new, oracle = run_under_kernels(_TRAIN_DIGESTS, setting, stdin).split()
        assert new == oracle


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
        # (oracle_extract_features), over all buckets, in korpus 0.2.0's dense
        # layout: neither the batched hashing nor the compact columns may move
        # a bit.
        assert hashlib.sha256(_dense_file(de_en_model, tmp_path / "model.bin")).hexdigest() == (
            "1e0de84cd8205010ba570446f7bc407244681c0782cc990ec35d33c2b671c2be"
        )

    def test_compact_model_bytes_pinned(self, de_en_model, tmp_path):
        # The same model in this version's layout (model.bin of korpus 0.3.0).
        path = tmp_path / "model.bin"
        save_model(de_en_model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ad9a2e6dfe1b82844d5506a8c76841cb535e489e9cf3845ef63333c803dc1df2"
        )

    @pytest.fixture(scope="class")
    def kernel_texts(self):
        rng = random.Random(42)
        texts = [de_sentence(rng) for _ in range(100)] + [en_sentence(rng) for _ in range(100)]
        return texts + [" ".join(texts), _ALPHABET, "", "ab"]

    @KERNEL_SETTINGS
    def test_features_equal_under_other_kernels(self, kernel_texts, setting):
        """The features, the L2 norm's dot product included, do not depend on
        which SIMD kernels numpy and OpenBLAS pick at run time."""
        stdin = json.dumps(kernel_texts)
        default = run_under_kernels(_FEATURE_DIGEST, {}, stdin)
        assert run_under_kernels(_FEATURE_DIGEST, setting, stdin) == default



class TestScoring:
    def test_german_scores_high(self, de_en_model):
        rng = random.Random(77)
        s = score(de_en_model, de_sentence(rng) + " " + de_sentence(rng))
        assert s.label == "de" and s.prob > 0.9

    def test_reference_softmax_agreement(self, de_en_model, de_en_dense):
        # slow reference: recompute the softmax from raw feature extraction
        text = "die kluge Lehrerin liest im Garten"
        (idx, vals), = extract_features([text], de_en_model.feature_buckets)
        logits = de_en_dense[:, idx] @ vals + de_en_model.bias
        z = np.exp(logits - logits.max())
        reference = z / z.sum()
        got = score_probs(de_en_model, text)
        assert np.allclose(got, reference, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(_ALPHABET + "ghilmnrstw", max_size=40))
    def test_scores_equal_the_dense_product(self, de_en_model, de_en_dense, text):
        """Buckets that training never touched score through the zero column,
        with the terms and the order of the product over every bucket."""
        text = "中文字 " + text  # buckets that the German and English texts never hash to
        (idx, vals), = extract_features([text], de_en_model.feature_buckets)
        assert (de_en_model.column[idx] == len(de_en_model.columns)).any()
        logits = de_en_dense[:, idx] @ vals + de_en_model.bias
        z = logits - logits.max()
        e = np.exp(z)
        assert score_probs(de_en_model, text).tobytes() == (e / e.sum()).tobytes()

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
        assert back.columns.tolist() == de_en_model.columns.tolist()
        assert np.array_equal(back.column, de_en_model.column)
        assert np.array_equal(back.weights, de_en_model.weights)
        assert np.array_equal(back.bias, de_en_model.bias)

    def test_save_writes_without_copying_the_weights(self, tmp_path):
        model = _full_model()
        weights = model.weights
        path = tmp_path / "model.bin"
        tracemalloc.start()
        try:
            save_model(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weights.nbytes / 2, (peak, weights.nbytes)
        assert np.array_equal(load_model(path).weights, weights)

    def test_load_reads_the_weights_without_a_copy(self, tmp_path):
        model = _full_model()
        weights = model.weights
        path = tmp_path / "model.bin"
        save_model(model, path)
        tracemalloc.start()
        try:
            back = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The weights once, and the model's bucket-to-column map.
        assert peak < 1.25 * weights.nbytes + back.column.nbytes, (peak, weights.nbytes)
        assert np.array_equal(back.weights, weights) and back.weights.flags.writeable
        assert np.array_equal(back.bias, model.bias)

    @pytest.mark.parametrize("buckets", [1, 7, 8, 9, 1 << 12])
    def test_file_is_the_dense_file_less_the_untouched_columns(self, de_en_model, tmp_path,
                                                                buckets):
        """The dense file, less 8 bytes per label for each bucket without a
        column, plus the bitmap: smaller whenever more than a bitmap's worth of
        buckets has none, larger by the bitmap alone when every bucket has one."""
        path = tmp_path / "model.bin"
        for model in (_full_model(buckets), de_en_model):
            save_model(model, path)
            untouched = model.feature_buckets - len(model.columns)
            assert path.stat().st_size == (len(_dense_file(model, tmp_path / "d.bin"))
                                           - 8 * len(model.labels) * untouched
                                           + -(-model.feature_buckets // 8))
        assert path.stat().st_size < len(_dense_file(de_en_model, tmp_path / "d.bin")) / 50

    def test_header_with_loss_history_loads(self, de_en_model, tmp_path):
        """A header key that this version does not write, such as the epoch
        losses of version 0.1.0, is ignored: the file loads and scores as the
        model it holds."""
        path = tmp_path / "model.bin"
        save_model(de_en_model, path)
        head, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(head[len(langid._MAGIC):])
        header["loss_history"] = [0.0055, 0.0029, 0.0021]
        path.write_bytes(langid._MAGIC + json.dumps(header, ensure_ascii=False, sort_keys=True)
                         .encode("utf-8") + b"\n" + body)
        old = load_model(path)
        rng = random.Random(5)
        texts = [de_sentence(rng) for _ in range(10)] + [en_sentence(rng) for _ in range(10)]
        assert [score(old, t) for t in texts] == [score(de_en_model, t) for t in texts]
        assert old.weights.tobytes() == de_en_model.weights.tobytes()
        assert old.bias.tobytes() == de_en_model.bias.tobytes()

    def test_write_deterministic(self, de_en_model, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(de_en_model, a)
        save_model(de_en_model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_save_keeps_earlier_file(self, de_en_model, tmp_path):
        class Unwritable:  # fails after the header and the weights are written
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        path = tmp_path / "model.bin"
        save_model(de_en_model, path)
        earlier = path.read_bytes()
        model = copy.copy(de_en_model)
        model.bias = Unwritable()
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("key,value", [("ngram_min", 2), ("ngram_max", 6)])
    def test_other_ngram_range_rejected(self, de_en_model, tmp_path, key, value):
        path = tmp_path / "model.bin"
        save_model(de_en_model, path)
        head, body = path.read_bytes().split(b"\n", 1)  # magic and JSON header, then weights
        stored = f'"{key}": {getattr(langid, key.upper())}'.encode()
        assert stored in head
        path.write_bytes(head.replace(stored, f'"{key}": {value}'.encode()) + b"\n" + body)
        with pytest.raises(ConfigError, match="grams"):
            load_model(path)

    @pytest.mark.parametrize("corrupt", [
        lambda head, body: head + b"\n" + body[:-8],  # truncated bias
        lambda head, body: head + b"\n" + body[:-3],  # truncated mid-value
        lambda head, body: head + b"\n" + body + bytes(8),  # trailing value
        lambda head, body: head[:-5] + b"\n" + body,  # header cut short: not JSON
        lambda head, body: head.replace(b'"labels"', b'"namen"') + b"\n" + body,
        lambda head, body: head.replace(b'"feature_buckets": ', b'"feature_buckets": -') + b"\n" + body,
        lambda head, body: langid._MAGIC + b"[1, 2]\n" + body,
        lambda head, body: head + b"\n",  # no bitmap
        lambda head, body: head + b"\n" + bytes([body[0] | 2]) + body[1:],  # one more column
        lambda head, body: head + b"\n" + bytes([body[0] & ~4]) + body[1:],  # one column fewer
        lambda head, body: head + b"\n" + bytes([body[0] | 0x10]) + body[1:],  # past bucket 3
    ], ids=["bias-truncated", "value-truncated", "trailing-bytes", "header-cut", "labels-missing",
            "negative-buckets", "header-not-object", "bitmap-missing", "bitmap-extra-column",
            "bitmap-missing-column", "bitmap-padding-bit"])
    def test_corrupt_model_names_file(self, tmp_path, corrupt):
        model = langid.LangIdModel(("de", "en"), 4, np.array([True, False, True, False]),
                                   np.array([[0.0, 1.0, 0.0], [2.0, 3.0, 0.0]]), np.ones(2))
        path = tmp_path / "model.bin"
        save_model(model, path)
        head, body = path.read_bytes().split(b"\n", 1)
        path.write_bytes(corrupt(head, body))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_model(path)

    def test_dense_file_of_0_2_0_asks_for_a_retrain(self, de_en_model, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(_dense_file(de_en_model, tmp_path / "model.bin"))
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(path))}: .*korpus 0.2.0.*train it again"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ConfigError):
            load_model(path)
