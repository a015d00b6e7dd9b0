"""Character-n-gram language identification with threshold filtering.

A linear softmax classifier over hashed character 3-5-grams (FNV-1a modulo a
fixed bucket count), trained by per-example SGD. Text is lowercased and
whitespace-normalized before n-gram extraction. Training sorts the examples
canonically before applying its own seeded shuffle, so the resulting model is
independent of input document order.

`extract_features` hashes many texts at once. It normalizes them, encodes
their concatenation to UTF-8 once and runs 64-bit FNV-1a over every n-gram
together, in wrapping uint64 array arithmetic. A batch holds about 8k
characters (`_BATCH_CHARS`, fixed): as fast as 32k, with a quarter of the
temporary memory, which the allocator may keep resident after the batch;
`filter_language` passes a shard one such batch of documents at a time, so
the features it holds (about 40 bytes per character) stay bounded too.
Each text's buckets come out in the order a per-n-gram loop would first meet
them, with the same counts, so the features are bit-identical to hashing one
n-gram at a time. Logits stay one `weights[:, idx] @ vals` per document: a
sparse product over a whole shard would sum in another order and change the
probabilities in the last bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# fnv1a_bytes is unused here; bench/test_bench.py checks that tracing leaves this binding alone.
from .core import CorpusShard, fnv1a_bytes
from .errors import ConfigError, UnscorableError
from .rng import SplitMix64

DEFAULT_BUCKETS = 2**18
NGRAM_MIN = 3
NGRAM_MAX = 5

_MAGIC = b"KORPUSLID\x01"

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_BATCH_CHARS = 1 << 13  # characters hashed per array pass


@dataclass
class LangIdModel:
    labels: tuple[str, ...]
    feature_buckets: int
    weights: np.ndarray  # [labels, buckets]
    bias: np.ndarray  # [labels]
    ngram_min: int = NGRAM_MIN
    ngram_max: int = NGRAM_MAX
    loss_history: tuple[float, ...] = ()


@dataclass(frozen=True)
class LangScore:
    label: str
    prob: float


def _normalize(text: str) -> str:
    return " ".join(text.split()).lower()


def extract_features(texts: Sequence[str], buckets: int = DEFAULT_BUCKETS,
                     ngram_min: int = NGRAM_MIN, ngram_max: int = NGRAM_MAX,
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hashed n-gram counts of each text, L2-normalized so the per-example SGD
    step size is independent of text length.

    Returns one (bucket_ids, values) pair per text; a text without an n-gram
    gets two empty arrays. Bucket ids are in order of first occurrence: every
    `ngram_min`-gram by position, then the longer n-grams.
    """
    return [pair for norms in _batches(map(_normalize, texts), len)
            for pair in _hash_batch(norms, buckets, ngram_min, ngram_max)]


def _batches(items: Iterable, chars: Callable[..., int]) -> Iterator[list]:
    """Consecutive runs of items with at most _BATCH_CHARS characters in all,
    or one item that alone has more."""
    batch = []
    total = 0
    for item in items:
        n = chars(item)
        if batch and total + n > _BATCH_CHARS:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += n
    if batch:
        yield batch


def _hash_batch(norms: list[str], buckets: int, ngram_min: int, ngram_max: int,
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Features of normalized texts: one FNV-1a pass over all their n-grams."""
    lens = np.fromiter(map(len, norms), dtype=np.int64, count=len(norms))
    data = np.frombuffer("".join(norms).encode("utf-8"), dtype=np.uint8)
    starts = np.flatnonzero((data & 0xC0) != 0x80)  # first byte of each character
    width = np.diff(starts, append=data.size)  # UTF-8 bytes per character
    doc = np.repeat(np.arange(len(norms)), lens)  # document of each character
    doc_start = np.cumsum(lens) - lens
    doc_end = np.repeat(doc_start + lens, lens)  # per character, its document's end
    # Each n-gram gets a slot: documents in turn, each one's ngram_min-grams by
    # position, then its longer n-grams, the order a loop over one text takes.
    per_n = [np.maximum(lens - n + 1, 0) for n in range(ngram_min, ngram_max + 1)]
    grams = sum(per_n, np.zeros_like(lens))  # n-grams per document
    n_slots = max(int(grams.sum()), 1)  # a divisor below
    slot_base = np.cumsum(grams) - grams
    n_chars = starts.size
    h = np.full(n_chars, _FNV_OFFSET, dtype=np.uint64)
    keys = [np.empty(0, dtype=np.int64)]
    for n in range(1, ngram_max + 1):
        # h[c] holds the hash of characters c .. c+n-2; extend it by character c+n-1.
        h = h[:max(n_chars - n + 1, 0)]
        at, w = starts[n - 1:], width[n - 1:]
        h ^= data[at]
        h *= _FNV_PRIME
        for j in range(1, int(w.max(initial=1))):
            sel = np.flatnonzero(w > j)
            h[sel] = (h[sel] ^ data[at[sel] + j]) * _FNV_PRIME
        if n >= ngram_min:
            c = np.flatnonzero(np.arange(h.size) + n <= doc_end[:h.size])  # inside its document
            slot = slot_base[doc[c]] + c - doc_start[doc[c]]
            slot_base = slot_base + per_n[n - ngram_min]
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
    bounds = np.cumsum(np.bincount(slot_doc[heads], minlength=len(norms)))[:-1]
    pairs = list(zip(np.split(idx, bounds), np.split(vals, bounds)))
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
    learning_rate: float = 1.0,
    seed: int = 0,
    feature_buckets: int = DEFAULT_BUCKETS,
) -> LangIdModel:
    """Train a softmax classifier; deterministic for a given seed."""
    if len(corpora) < 2:
        raise ConfigError("language identification needs at least 2 languages")
    labels = tuple(sorted(corpora))
    features = iter(extract_features(
        [doc.text for label in labels for doc in corpora[label].documents], feature_buckets,
    ))
    examples = []
    for li, label in enumerate(labels):
        non_empty = 0
        for doc, (idx, vals) in zip(corpora[label].documents, features):
            if idx.size == 0:
                continue
            non_empty += 1
            examples.append((label, doc.text, li, idx, vals))
        if non_empty == 0:
            raise ConfigError(f"language {label!r} has no non-empty documents")
    # Canonical order first, then the seeded shuffle: input permutation cannot
    # change the model.
    examples.sort(key=lambda e: (e[0], e[1]))
    rng = SplitMix64(seed)
    weights = np.zeros((len(labels), feature_buckets), dtype=np.float64)
    bias = np.zeros(len(labels), dtype=np.float64)

    def mean_loss() -> float:
        total = 0.0
        for _, _, li, idx, vals in examples:
            probs = _softmax(weights[:, idx] @ vals + bias)
            total -= float(np.log(max(probs[li], 1e-300)))
        return total / len(examples)

    losses = []
    best = mean_loss()
    total_updates = max(1, max(0, epochs) * len(examples))
    done = 0
    for _ in range(max(0, epochs)):
        rng.shuffle(examples)
        prev_w = weights.copy()
        prev_b = bias.copy()
        for _, _, li, idx, vals in examples:
            lr = learning_rate * (1.0 - done / total_updates)  # linear decay
            done += 1
            logits = weights[:, idx] @ vals + bias
            probs = _softmax(logits)
            grad = probs.copy()
            grad[li] -= 1.0
            weights[:, idx] -= lr * np.outer(grad, vals)
            bias -= lr * grad
        loss = mean_loss()
        if loss > best:
            # Backtrack: an epoch that worsened the evaluated loss is dropped,
            # keeping the recorded epoch losses non-increasing.
            weights = prev_w
            bias = prev_b
            loss = best
        best = loss
        losses.append(loss)
    return LangIdModel(
        labels=labels,
        feature_buckets=feature_buckets,
        weights=weights,
        bias=bias,
        loss_history=tuple(losses),
    )


def _model_features(model: LangIdModel, texts: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    return extract_features(texts, model.feature_buckets, model.ngram_min, model.ngram_max)


def _probs(model: LangIdModel, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if idx.size == 0:
        raise UnscorableError("no character n-grams extracted; text is unscorable")
    return _softmax(model.weights[:, idx] @ vals + model.bias)


def score_probs(model: LangIdModel, text: str) -> np.ndarray:
    """Full softmax distribution over labels; raises UnscorableError on no features."""
    return _probs(model, *_model_features(model, [text])[0])


def _score(model: LangIdModel, idx: np.ndarray, vals: np.ndarray) -> LangScore:
    probs = _probs(model, idx, vals)
    best = int(np.argmax(probs))
    return LangScore(label=model.labels[best], prob=float(probs[best]))


def score(model: LangIdModel, text: str) -> LangScore:
    return _score(model, *_model_features(model, [text])[0])


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
    for docs in _batches(shard.documents, lambda doc: len(doc.text)):
        for doc, (idx, vals) in zip(docs, _model_features(model, [d.text for d in docs])):
            try:
                s = _score(model, idx, vals)
            except UnscorableError:
                continue
            if s.label == target and s.prob >= threshold:
                kept.append(doc)
    return CorpusShard.from_documents(kept, source=shard.manifest.source)


def save_model(model: LangIdModel, path: str | Path) -> None:
    """Byte-deterministic binary serialization (little-endian float64)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = json.dumps({
        "labels": list(model.labels),
        "feature_buckets": model.feature_buckets,
        "ngram_min": model.ngram_min,
        "ngram_max": model.ngram_max,
        "loss_history": list(model.loss_history),
    }, ensure_ascii=False, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.weights.astype("<f8").tobytes())
        fh.write(model.bias.astype("<f8").tobytes())


def load_model(path: str | Path) -> LangIdModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ConfigError(f"{path}: not a language-id model file")
        header = json.loads(fh.readline().decode("utf-8"))
        labels = tuple(header["labels"])
        buckets = int(header["feature_buckets"])
        weights = np.frombuffer(
            fh.read(len(labels) * buckets * 8), dtype="<f8"
        ).reshape(len(labels), buckets).astype(np.float64)
        bias = np.frombuffer(fh.read(len(labels) * 8), dtype="<f8").astype(np.float64)
    return LangIdModel(
        labels=labels,
        feature_buckets=buckets,
        weights=weights,
        bias=bias,
        ngram_min=int(header["ngram_min"]),
        ngram_max=int(header["ngram_max"]),
        loss_history=tuple(header.get("loss_history", ())),
    )
