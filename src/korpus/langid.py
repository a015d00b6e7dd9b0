"""Character-n-gram language identification with threshold filtering.

A linear softmax classifier over hashed character 3-5-grams (FNV-1a modulo a
fixed bucket count), trained by per-example SGD whose step decays linearly
from 1 towards 0 over all updates (`train_langid`). Text is lowercased and
whitespace-normalized before n-gram extraction. Training sorts the examples
canonically before applying its own seeded shuffle, so the resulting model is
independent of input document order.

Hashed features are sparse: training touches a small share of the buckets.
The model keeps a weight column only for each bucket that some training
example hashes to, in bucket order; an int32 map (`LangIdModel.column`) gives
each bucket its column. Every other bucket maps to one more column, the
last, which is all zeros: a document scores with the terms, in the order,
of a dense matrix over every bucket. `save_model` writes `model.bin`: the
magic bytes, one line of JSON with the keys `labels`, `feature_buckets`,
`ngram_min` and `ngram_max`, a bitmap of the buckets that have a column
(`np.packbits`, little bit order, ceil(buckets / 8) bytes), then the weights
without the zero column, one row per label, and the bias, as little-endian
float64.

`extract_features` hashes many texts at once. It normalizes them, encodes
their concatenation to UTF-8 once and runs 64-bit FNV-1a over every n-gram
together, in wrapping uint64 array arithmetic. A batch holds about 8k
characters (`_BATCH_CHARS`, fixed): as fast as 32k, with a quarter of the
temporary memory, which the allocator may keep resident after the batch;
`filter_language` passes a shard one such batch of documents at a time, so
the features it holds (about 40 bytes per character) stay bounded too.
Each text's buckets come out in the order a per-n-gram loop would first meet
them, with the same counts, so the features are bit-identical to hashing one
n-gram at a time. Logits stay one `weights[:, column[idx]] @ vals` per
document, with a term for every bucket of the document, a zero one for a
bucket without a column: a sparse product over a whole shard, or one that
skipped the zero terms, would sum in another order and change the
probabilities in the last bits.

Training steps on a row-major copy of the weights, `[columns + 1, labels]`:
each step gathers the rows of its example's columns, one contiguous run of
`labels` floats each, and writes them back whole through a void view of the
copy, one element per row, where a column gather and scatter on `weights`
moves one float at a time. The layout of the gather fixes the BLAS call of
the logits, and so the bytes of `model.bin`: the gathered rows, transposed,
are the F-ordered array that `weights[:, idx]` gives, the same buffer in the
same gemv call. Every other float operation of the step is the one of the
column-major loop (`tests/oracles.py::oracle_train_langid`), in its order.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

# fnv1a_bytes is unused here; bench/test_bench.py checks that tracing leaves this binding alone.
from .core import CorpusShard, atomic_write, batches, fnv1a_bytes
from .errors import ConfigError, UnscorableError
from .rng import SplitMix64

DEFAULT_BUCKETS = 2**18
NGRAM_MIN = 3
NGRAM_MAX = 5

_MAGIC = b"KORPUSLID\x02"
_DENSE_MAGIC = b"KORPUSLID\x01"  # korpus 0.2.0: weights over every bucket
MAX_BUCKETS = 2**31 - 1  # the column map holds int32

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_BATCH_CHARS = 1 << 13  # characters hashed per array pass


@dataclass
class LangIdModel:
    labels: tuple[str, ...]
    feature_buckets: int
    touched: InitVar[np.ndarray]  # bool per bucket: True if it has a weight column
    weights: np.ndarray  # [labels, touched.sum() + 1]; the last column is zero
    bias: np.ndarray  # [labels]
    # Bucket -> its column in weights; a bucket without one -> the zero column.
    column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, touched: np.ndarray):
        self.column = touched.astype(np.int32)
        np.cumsum(self.column, out=self.column)  # from bool it would cast through a copy
        self.column -= 1
        self.column[~touched] = self.weights.shape[1] - 1

    @property
    def columns(self) -> np.ndarray:
        """The sorted ids of the buckets that have a weight column."""
        return np.flatnonzero(self.column < self.weights.shape[1] - 1)


@dataclass(frozen=True)
class LangScore:
    label: str
    prob: float


def _normalize(text: str) -> str:
    return " ".join(text.split()).lower()


def extract_features(texts: Sequence[str],
                     buckets: int = DEFAULT_BUCKETS) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hashed n-gram counts of each text, L2-normalized so the per-example SGD
    step size is independent of text length.

    Returns one (bucket_ids, values) pair per text; a text without an n-gram
    gets two empty arrays. Bucket ids are in order of first occurrence: every
    NGRAM_MIN-gram by position, then the longer n-grams.
    """
    return [pair for norms in batches(map(_normalize, texts), len, _BATCH_CHARS)
            for pair in _hash_batch(norms, buckets)]


def _hash_batch(norms: list[str], buckets: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Features of normalized texts: one FNV-1a pass over all their n-grams."""
    lens = np.fromiter(map(len, norms), dtype=np.int64, count=len(norms))
    data = np.frombuffer("".join(norms).encode("utf-8"), dtype=np.uint8)
    starts = np.flatnonzero((data & 0xC0) != 0x80)  # first byte of each character
    width = np.diff(starts, append=data.size)  # UTF-8 bytes per character
    doc = np.repeat(np.arange(len(norms)), lens)  # document of each character
    doc_start = np.cumsum(lens) - lens
    doc_end = np.repeat(doc_start + lens, lens)  # per character, its document's end
    # Each n-gram gets a slot: documents in turn, each one's NGRAM_MIN-grams by
    # position, then its longer n-grams, the order a loop over one text takes.
    per_n = [np.maximum(lens - n + 1, 0) for n in range(NGRAM_MIN, NGRAM_MAX + 1)]
    grams = sum(per_n, np.zeros_like(lens))  # n-grams per document
    n_slots = max(int(grams.sum()), 1)  # a divisor below
    slot_base = np.cumsum(grams) - grams
    n_chars = starts.size
    h = np.full(n_chars, _FNV_OFFSET, dtype=np.uint64)
    keys = [np.empty(0, dtype=np.int64)]
    for n in range(1, NGRAM_MAX + 1):
        # h[c] holds the hash of characters c .. c+n-2; extend it by character c+n-1.
        h = h[:max(n_chars - n + 1, 0)]
        at, w = starts[n - 1:], width[n - 1:]
        h ^= data[at]
        h *= _FNV_PRIME
        for j in range(1, int(w.max(initial=1))):
            sel = np.flatnonzero(w > j)
            h[sel] = (h[sel] ^ data[at[sel] + j]) * _FNV_PRIME
        if n >= NGRAM_MIN:
            c = np.flatnonzero(np.arange(h.size) + n <= doc_end[:h.size])  # inside its document
            slot = slot_base[doc[c]] + c - doc_start[doc[c]]
            slot_base = slot_base + per_n[n - NGRAM_MIN]
            keys.append((h[c] % np.uint64(buckets)).astype(np.int64) * n_slots + slot)
    # Keys (below buckets * n_slots, far inside int64) are distinct, so an
    # unstable sort groups each bucket's n-grams by slot; a group that starts a
    # new (document, bucket) holds its first slot.
    bucket, slot = np.divmod(np.sort(np.concatenate(keys)), n_slots)
    slot_doc = np.repeat(np.arange(len(norms)), grams)[slot]
    new = np.ones(slot.size, dtype=bool)
    new[1:] = (bucket[1:] != bucket[:-1]) | (slot_doc[1:] != slot_doc[:-1])
    heads = np.flatnonzero(new)
    # Put the groups in order of their first slots, which are distinct.
    by_first = np.full(n_slots, -1)
    by_first[slot[heads]] = np.arange(heads.size)
    order = by_first[by_first >= 0]
    idx = bucket[heads][order]
    vals = np.diff(heads, append=slot.size)[order].astype(np.float64)
    ends = np.cumsum(np.bincount(slot_doc[heads], minlength=len(norms))).tolist()
    pairs = [(idx[a:b], vals[a:b]) for a, b in zip([0, *ends], ends)]
    for _, v in pairs:
        if v.size:
            v /= np.sqrt(v @ v)
    return pairs


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def train_langid(
    corpora: dict[str, CorpusShard],
    epochs: int = 10,
    seed: int = 0,
    feature_buckets: int = DEFAULT_BUCKETS,
) -> LangIdModel:
    """Train a softmax classifier by per-example SGD; deterministic for a given seed.

    Each epoch visits the examples in a seeded shuffle of their canonical order.
    Update number `done` (counted from 0 over all epochs) takes the step
    `1.0 - done / total_updates`, a linear decay from 1 towards 0, where
    `total_updates` is `epochs` times the number of non-empty documents.

    The model has a column for each bucket that an example hashes to, and the
    steps run on those columns alone: the weights of every other bucket stay
    zero, as they would over all buckets.

    The steps run on a row-major copy of the weights, `[columns + 1, labels]`,
    which is written back into `weights` once at the end. The layout of each
    step's gather fixes the BLAS call of the logits, and with it the bytes of
    `model.bin`: the gathered rows, transposed, are the F-ordered `(labels, k)`
    array of the column gather `weights[:, idx]`. A C-ordered `(labels, k)`
    gather picks another gemv kernel, whose sums round differently.
    """
    if len(corpora) < 2:
        raise ConfigError("language identification needs at least 2 languages")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if feature_buckets < 1:
        raise ConfigError("feature_buckets must be >= 1")
    if feature_buckets > MAX_BUCKETS:
        raise ConfigError("feature_buckets must be <= 2**31 - 1")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64)")
    labels = tuple(sorted(corpora))
    features = iter(extract_features(
        [doc.text for label in labels for doc in corpora[label].documents], feature_buckets,
    ))
    examples = []
    touched = np.zeros(feature_buckets, dtype=bool)
    for li, label in enumerate(labels):
        non_empty = 0
        for doc, (idx, vals) in zip(corpora[label].documents, features):
            if idx.size == 0:
                continue
            non_empty += 1
            touched[idx] = True
            examples.append((label, doc.text, li, idx, vals))
        if non_empty == 0:
            raise ConfigError(f"language {label!r} has no non-empty documents")
    model = LangIdModel(labels=labels, feature_buckets=feature_buckets, touched=touched,
                        weights=np.zeros((len(labels), np.count_nonzero(touched) + 1),
                                         dtype=np.float64),
                        bias=np.zeros(len(labels), dtype=np.float64))
    for _, _, _, idx, _ in examples:
        idx[:] = model.column[idx]  # in place: a copy of all of them would raise the peak
    # Canonical order first, then the seeded shuffle: input permutation cannot
    # change the model.
    examples.sort(key=lambda e: (e[0], e[1]))
    rng = SplitMix64(seed)
    rows = np.ascontiguousarray(model.weights.T)  # [columns + 1, labels]
    slots = rows.view(np.dtype((np.void, rows.strides[0])))[:, 0]  # one element per row
    bias = model.bias
    total_updates = epochs * len(examples)
    done = 0
    for _ in range(epochs):
        rng.shuffle(examples)
        for _, _, li, idx, vals in examples:
            lr = 1.0 - done / total_updates
            done += 1
            w = rows.take(idx, axis=0)
            grad = _softmax(w.T @ vals + bias)  # w.T: the F-ordered weights[:, idx]
            grad[li] -= 1.0
            step = np.multiply.outer(vals, grad)  # then * lr: the bits of lr * outer(grad, vals)
            step *= lr
            np.subtract(w, step, out=w)
            slots[idx] = w.view(slots.dtype)[:, 0]
            bias -= lr * grad
    model.weights[...] = rows.T
    return model


def _probs(model: LangIdModel, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if idx.size == 0:
        raise UnscorableError("no character n-grams extracted; text is unscorable")
    return _softmax(model.weights[:, model.column[idx]] @ vals + model.bias)


def score_probs(model: LangIdModel, text: str) -> np.ndarray:
    """Full softmax distribution over labels; raises UnscorableError on no features."""
    return _probs(model, *extract_features([text], model.feature_buckets)[0])


def _score(model: LangIdModel, idx: np.ndarray, vals: np.ndarray) -> LangScore:
    probs = _probs(model, idx, vals)
    best = int(np.argmax(probs))
    return LangScore(label=model.labels[best], prob=float(probs[best]))


def score(model: LangIdModel, text: str) -> LangScore:
    return _score(model, *extract_features([text], model.feature_buckets)[0])


def filter_language(
    model: LangIdModel,
    shard: CorpusShard,
    target: str,
    threshold: float,
) -> CorpusShard:
    """Keep documents scored as `target` with probability >= threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("threshold must lie in [0, 1]")
    if target not in model.labels:
        raise ConfigError(f"target language {target!r} not among model labels {model.labels}")
    kept = []
    # One batch of documents at a time, so the features held stay bounded.
    for docs in batches(shard.documents, lambda doc: len(doc.text), _BATCH_CHARS):
        features = extract_features([d.text for d in docs], model.feature_buckets)
        for doc, (idx, vals) in zip(docs, features):
            try:
                s = _score(model, idx, vals)
            except UnscorableError:
                continue
            if s.label == target and s.prob >= threshold:
                kept.append(doc)
    return CorpusShard.from_documents(kept, source=shard.manifest.source)


def save_model(model: LangIdModel, path: str | Path) -> None:
    """Byte-deterministic binary serialization, written atomically: the magic,
    the JSON header line, the bitmap of the buckets that have a column, the
    weights row by row without the zero column, and the bias (little-endian
    float64). That is the 0.2.0 file of the dense weights less 8 bytes per
    label for each bucket without a column, plus the bitmap's
    ceil(buckets / 8) bytes.

    The arrays are written from their own memory, without a bytes copy: on a
    little-endian host `np.ascontiguousarray` of a row of a C-ordered float64
    array is the row itself."""
    header = json.dumps({
        "labels": list(model.labels),
        "feature_buckets": model.feature_buckets,
        "ngram_min": NGRAM_MIN,
        "ngram_max": NGRAM_MAX,
    }, ensure_ascii=False, sort_keys=True)
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.packbits(model.column < model.weights.shape[1] - 1, bitorder="little"))
        for row in model.weights[:, :-1]:
            fh.write(np.ascontiguousarray(row, dtype="<f8"))
        fh.write(np.ascontiguousarray(model.bias, dtype="<f8"))


def _read_into(fh, array: np.ndarray) -> None:
    """Fill the array from the file; ValueError if the file ends first."""
    if fh.readinto(array) != array.nbytes:
        raise ValueError("file ends early")


def load_model(path: str | Path) -> LangIdModel:
    """Read a `save_model` file; raises ConfigError naming the file if it is not one.

    Only the header keys that `save_model` writes are read; any other key, such
    as one that an older version wrote, is ignored. A file of korpus 0.2.0,
    which held the weights of every bucket, is refused: it asks for a retrain.
    The bitmap gives the number of columns, and a bit set past the last bucket
    makes the file corrupt; each row of weights is read straight into the
    model's array, and the body must end with the bias."""
    with open(path, "rb") as fh:
        magic, header = fh.read(len(_MAGIC)), fh.readline()
        if magic == _DENSE_MAGIC:
            raise ConfigError(f"{path}: a language-id model of korpus 0.2.0, which this "
                              "version does not read; train it again")
        if magic != _MAGIC:
            raise ConfigError(f"{path}: not a language-id model file")
        try:
            header = json.loads(header)
            grams = (header["ngram_min"], header["ngram_max"])
            labels = tuple(header["labels"])
            buckets = int(header["feature_buckets"])
            if not 1 <= buckets <= MAX_BUCKETS or len(labels) < 2:
                raise ValueError(f"{len(labels)} labels and {buckets} feature buckets")
            bitmap = np.empty(-(-buckets // 8), dtype=np.uint8)
            _read_into(fh, bitmap)
            if buckets % 8 and bitmap[-1] >> buckets % 8:
                raise ValueError("bitmap bits set past the last bucket")
            touched = np.unpackbits(bitmap, count=buckets, bitorder="little").view(bool)
            weights = np.zeros((len(labels), np.count_nonzero(touched) + 1), dtype="<f8")
            for row in weights[:, :-1]:
                _read_into(fh, row)
            bias = np.empty(len(labels), dtype="<f8")
            _read_into(fh, bias)
            if fh.read(1):
                raise ValueError("bytes after the bias")
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: corrupt language-id model ({exc})") from None
    if grams != (NGRAM_MIN, NGRAM_MAX):
        raise ConfigError(f"{path}: model hashes {grams[0]}-{grams[1]}-grams; "
                          f"this version reads only {NGRAM_MIN}-{NGRAM_MAX}-grams")
    return LangIdModel(
        labels=labels,
        feature_buckets=buckets,
        touched=touched,
        # A copy only on a big-endian host.
        weights=weights.astype(np.float64, copy=False),
        bias=bias.astype(np.float64, copy=False),
    )
