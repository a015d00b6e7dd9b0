"""N-gram perplexity quality filtering.

The model is an interpolated modified Kneser-Ney n-gram LM. Conventions,
which the scorer and the ARPA serialization share exactly:

* Every document is one sentence: (order-1) leading "<s>" plus a terminal
  "</s>". Tokens below min_count map to "<unk>"; a literal "<s>" in running
  text also maps to "<unk>" so the padding symbol is never a predicted event.
* Raw counts at every order are sliding windows over the padded sequence.
  Below the top order, counts are continuation counts (number of distinct
  single-token left extensions), except that n-grams starting with "<s>"
  keep their raw counts, since nothing can precede them.
* Per-order discounts D1/D2/D3+ follow the count-of-counts estimates
  Y = n1/(n1+2*n2), D1 = 1-2*Y*n2/n1, D2 = 2-3*Y*n3/n2, D3+ = 3-4*Y*n4/n3,
  clamped into [1e-4, 1-1e-9] so that interpolation mass stays strictly
  positive and discounted counts stay positive. If n1 or n2 is zero at some
  order, that order falls back to a fixed 0.75 with a warning.
* The unigram distribution interpolates with the uniform distribution over
  the predictable vocabulary (everything except "<s>"), which gives "<unk>"
  strictly positive probability even when nothing mapped to it.

Perplexity of a document is exp(-logprob/events) where the events are the
document's tokens plus the terminal "</s>".

Layout, after KenLM's sorted n-gram arrays (Heafield, WMT 2011). Tokens are
int ids 0..V-1 in string order, with "<unk>", "<s>" and "</s>" sorted among
the others, so id tuples sort as the tuples of strings they stand for. Every
n-gram of every order has a global index into three parallel arrays, `keys`,
`prob` and `backoff`. Unigram i has index i; the n-grams of order k follow
those of order k-1. An n-gram's key is V * (index of its (k-1)-prefix) + (its
last id), and a unigram's key is id - V, so `keys` is sorted, each order is a
contiguous run in the order of its ARPA section, and every prefix of an n-gram
is itself in the model; so is every suffix. `prob` is p(last | prefix) and
`backoff` the n-gram's interpolation weight as a context; NaN marks "none" in
both. A flat key of k packed ids would overflow int64 at order 5 with 2^13
ids; this one stays below V * (number of n-grams).

Training and ARPA I/O work on whole arrays. `_count_ngrams` numbers the
n-grams for both: those of the padded documents, or every contiguous piece of
each n-gram an ARPA file lists. The scorer walks a document left to right, as
KenLM does: its state is the longest n-gram that ends the text so far, and
each token is a binary search among the children of the state (a run of
`keys`), backing off along (k-1)-suffixes. A walk in Python costs less than
the fixed cost of the dozens of numpy calls a vectorised document needs.

Bit identity with the per-n-gram definition: discounts, probabilities and
backoffs are elementwise numpy float64 ops in the scalar formulas' operand
order (integer sums are exact), each distinct ARPA value of a section goes
through `math.log10` and "%.17g" once and every row with that float shares its
string, and each scored event multiplies its backoffs from the longest context
down, then the probability, and adds its `math.log` to the document's sum left
to right. A context the model lacks has backoff 1.0, so skipping it changes no
bit.
"""

from __future__ import annotations

import io
import math
import warnings
from bisect import bisect_left
from collections import Counter
from itertools import repeat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import CorpusShard, Document, atomic_write, tokenize
from .errors import CapacityError, ConfigError, UnscorableError

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

_D_MIN = 1e-4
_D_MAX = 1.0 - 1e-9
_NONE = np.nan
_ARPA_BATCH = 1 << 12  # rows whose n-gram texts `write_arpa` builds together


@dataclass(eq=False)
class NgramModel:
    """The n-gram arrays of the module docstring's layout, and their scorer."""

    order: int
    vocab: dict[str, int]  # token -> id, numbered 0..V-1 in string order
    keys: np.ndarray  # int64, sorted: V * prefix index + last id; unigram: id - V
    prob: np.ndarray  # float64 p(last | prefix) per n-gram; NaN: none
    backoff: np.ndarray  # float64 interpolation weight as a context; NaN: none
    offsets: list[int] = field(init=False)  # order k holds indices offsets[k-1]:offsets[k]

    def __post_init__(self) -> None:
        v, n = len(self.vocab), self.keys.size
        words = sorted(self.vocab)
        if self.vocab != dict(zip(words, range(v))) or not {UNK, BOS, EOS} <= self.vocab.keys():
            raise ValueError(f"the vocabulary must number its tokens, {UNK}, {BOS} and {EOS} "
                             "among them, 0..V-1 in string order")
        self._unk, self._bos, self._eos = self.vocab[UNK], self.vocab[BOS], self.vocab[EOS]
        if (n + 1) * v >= 2 ** 63:
            raise CapacityError(f"{n} n-grams over {v} ids overflow the int64 keys")
        self.offsets = [0, v]
        for _ in range(2, self.order + 1):  # order k+1 keys start at V * offsets[k]
            self.offsets.append(int(self.keys.searchsorted(self.offsets[-1] * v)))
        # The scorer's tables: where each n-gram's children start in `keys`, and
        # each n-gram's (k-1)-suffix (-1: the empty context).
        children = np.concatenate([[v], v + np.cumsum(np.bincount(self.keys[v:] // v,
                                                                  minlength=n))])
        suffix = np.full(n, -1, dtype=np.int64)
        for k in range(2, self.order + 1):
            lo, hi = self.offsets[k - 1], self.offsets[k]
            prefix, last = np.divmod(self.keys[lo:hi], v)
            if k == 2:
                suffix[lo:hi] = last
                continue
            key = suffix[prefix] * v + last  # the suffix is an n-gram of order k-1
            sort = key.argsort()  # sorted needles search several times faster
            below = self.offsets[k - 2]
            suffix[lo + sort] = below + self.keys[below:lo].searchsorted(key[sort])
            if not np.array_equal(self.keys[suffix[lo:hi]], key):
                raise ValueError(f"an n-gram of order {k} has no (k-1)-suffix in the model")
        self._children = memoryview(children)
        self._suffix = memoryview(suffix)
        self._keys = memoryview(self.keys)
        self._prob = memoryview(self.prob)
        self._bo = memoryview(np.where(np.isnan(self.backoff), 1.0, self.backoff))
        self._top = self.offsets[-2]
        self._event_ids = {w: i for w, i in self.vocab.items() if w != BOS}
        probs: list[float] = []
        self._start = self._walk(-1, [self._bos] * (self.order - 1), probs)

    def predictable_vocab(self) -> list[str]:
        return [w for w in self.vocab if w != BOS]

    def conditional(self, token: str, context: tuple[str, ...]) -> float:
        """p(token | context) with backoff; strictly positive for any input."""
        keep = self.order - 1  # context tokens the model conditions on
        ctx = tuple(context)[-keep:] if keep else ()
        probs: list[float] = []
        state = self._walk(-1, [self.vocab.get(t, self._unk) for t in ctx], probs)
        self._walk(state, [self._event_ids.get(token, self._unk)], probs)
        return probs[-1]

    def _walk(self, state: int, ids: list[int], probs: list[float]) -> int:
        """Append p(id | the ids before it) for each id; return the state after the last.

        A state is the longest n-gram (at most order-1 ids) that ends the ids
        seen so far, -1 for none. Each event backs off from the state along
        (k-1)-suffixes, multiplying backoffs from the longest context down,
        until an n-gram ending in the id has a probability. Contexts the model
        lacks are skipped: their backoff is 1.0 and they have no children.
        """
        v, top = len(self.vocab), self._top
        keys, children, suffix = self._keys, self._children, self._suffix
        prob, bo = self._prob, self._bo
        for w in ids:
            ctx, coef, state = state, 1.0, -1
            while ctx >= 0:
                key = ctx * v + w
                hi = children[ctx + 1]
                j = bisect_left(keys, key, children[ctx], hi)
                if j < hi and keys[j] == key:
                    if state < 0:
                        state = j  # the longest n-gram ending in w
                    p = prob[j]
                    if p == p:
                        break
                coef *= bo[ctx]
                ctx = suffix[ctx]
            else:
                if state < 0:
                    state = w
                p = prob[w]
            if state >= top:  # a context holds at most order-1 ids
                state = suffix[state]
            probs.append(coef * p)
        return state


@dataclass(frozen=True)
class PerplexityScore:
    doc_id: str
    log_prob_sum: float  # natural log over all events
    token_count: int  # events scored: document tokens plus terminal </s>
    perplexity: float


def _estimate_discounts(counts: np.ndarray, order_k: int) -> np.ndarray:
    """Discount per count bucket [0, D1, D2, D3+] from the counts of predictable n-grams."""
    n1, n2, n3, n4 = np.bincount(counts[counts <= 4], minlength=5)[1:5].tolist()
    if n1 == 0 or n2 == 0:
        warnings.warn(
            f"count-of-counts too sparse at order {order_k} (n1={n1}, n2={n2}); "
            "falling back to a fixed discount of 0.75",
            RuntimeWarning,
            stacklevel=4,  # the caller of train_ngram
        )
        return np.array([0.0, 0.75, 0.75, 0.75])
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3 if n3 > 0 else 3.0
    clamp = lambda v: min(max(v, _D_MIN), _D_MAX)
    return np.array([0.0, clamp(d1), clamp(d2), clamp(d3)])


def _count_ngrams(seq: np.ndarray, depth: np.ndarray, v: int, order: int,
                  bos: int) -> list[tuple]:
    """Each order's distinct n-grams in the concatenated sequences `seq`, unigrams first.

    `depth` is each position's offset in its sequence: a padded document in
    training, a listed n-gram in `read_arpa`. An n-gram counts where it fits
    in its sequence, and every id of the vocabulary is a unigram. Per order:
    the sorted keys, the raw counts, each n-gram's (k-1)-suffix as an index
    into the order below (None for unigrams), and whether it starts with <s>,
    whose id is `bos`.
    """
    ids = np.arange(v)
    levels = [(ids - v, np.bincount(seq, minlength=v), None, ids == bos)]
    gidx = seq.copy()  # global index of the (k-1)-gram ending at each position
    below, n = 0, v  # where order k-1 starts, and the n-grams counted so far
    for k in range(2, order + 1):
        ends = np.flatnonzero(depth >= k - 1)  # the k-grams that fit in their document
        keys, inv, raw = np.unique(gidx[ends - 1] * v + seq[ends], return_inverse=True,
                                   return_counts=True)
        at = np.empty_like(keys)
        at[inv] = ends  # one end position of each distinct k-gram
        levels.append((keys, raw, gidx[at] - below, seq[at - k + 1] == bos))
        gidx[ends] = n + inv
        below, n = n, n + keys.size
    return levels


def train_ngram(
    reference: list[CorpusShard],
    order: int = 5,
    min_count: int = 2,
) -> NgramModel:
    """Estimate an interpolated modified-KN model from the reference shards."""
    if order < 1:
        raise ConfigError("order must be >= 1")
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    vocab, seq, depth = _padded_documents(reference, order, min_count)
    levels = _count_ngrams(seq, depth, len(vocab), order, vocab[BOS])
    del seq, depth
    arrays = _kn_estimates(levels, len(vocab), vocab[BOS])
    # The counts would otherwise sit beside the scorer tables that NgramModel
    # builds, and set the peak.
    del levels
    return NgramModel(order, vocab, *arrays)


def _padded_documents(reference: list[CorpusShard], order: int,
                      min_count: int) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """The vocabulary, and the documents as one sequence of ids: each is order-1
    <s>, its tokens, </s>. Also each position's offset in its document."""
    freq: Counter[str] = Counter()
    all_docs: list[list[str]] = []
    for shard in reference:
        for doc in shard.documents:
            toks = tokenize(doc.text)
            if toks:
                all_docs.append(toks)
                freq.update(toks)
    if not all_docs:
        raise ConfigError("reference corpus is empty")
    kept = {t for t, c in freq.items() if c >= min_count}
    vocab = {w: i for i, w in enumerate(sorted(kept | {UNK, BOS, EOS}))}
    unk, bos = vocab[UNK], vocab[BOS]
    event_id = {w: i for w, i in vocab.items() if w != BOS}.get
    tokens = np.array([event_id(t, unk) for toks in all_docs for t in toks], dtype=np.int64)
    lengths = np.array([len(toks) for toks in all_docs])
    del all_docs  # a string per token: more room than the arrays below
    before = np.arange(lengths.size) * order + order - 1  # padding before each document's tokens
    seq = np.full(tokens.size + lengths.size * order, bos, dtype=np.int64)
    seq[np.arange(tokens.size) + np.repeat(before, lengths)] = tokens
    seq[np.cumsum(lengths) + before] = vocab[EOS]
    lengths += order
    depth = np.arange(seq.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return vocab, seq, depth


def _kn_estimates(levels: list[tuple], v: int, bos: int) -> tuple[np.ndarray, ...]:
    """`NgramModel`'s keys, prob and backoff from `_count_ngrams`' levels."""
    order = len(levels)
    # Adjusted counts: raw at the top order and for n-grams starting with <s>,
    # else the number of distinct left extensions, one per (k+1)-gram suffix.
    adj = [raw for _, raw, _, _ in levels]
    for (_, _, _, starts), (_, _, suffix, _), k in zip(levels, levels[1:], range(order - 1)):
        adj[k] = np.where(starts, adj[k], np.bincount(suffix, minlength=starts.size))

    # Each order writes its rows of prob and backoff in place: lists of
    # per-order arrays, joined at the end, would double them at the peak.
    offsets = np.cumsum([0] + [keys.size for keys, _, _, _ in levels])
    prob = np.full(offsets[-1], _NONE)
    backoff = np.full(offsets[-1], _NONE)

    # Unigrams interpolate with the uniform distribution over predictable tokens.
    a = adj[0]
    pred = ~levels[0][3]
    seen = pred & (a > 0)
    d = _estimate_discounts(a[seen], 1)
    denom = int(a[pred].sum())
    n_b = np.bincount(np.minimum(a[seen], 3), minlength=4).tolist()
    gamma_eps = (d[1] * n_b[1] + d[2] * n_b[2] + d[3] * n_b[3]) / denom
    prob[:offsets[1]] = np.where(pred, np.maximum(a - d[np.minimum(a, 3)], 0.0) / denom
                                 + gamma_eps / int(pred.sum()), _NONE)
    for k in range(2, order + 1):
        keys, _, suffix, _ = levels[k - 1]
        below, lo, hi = offsets[k - 2:k + 1]  # orders k-1 and k
        a = adj[k - 1]
        ctx = keys // v - below
        pred = keys % v != bos
        d = _estimate_discounts(a[pred], k)
        bucket = np.minimum(a, 3)
        n_ctx = lo - below
        denom = np.bincount(ctx[pred], weights=a[pred], minlength=n_ctx)
        n_b = [np.bincount(ctx[pred & (bucket == b)], minlength=n_ctx) for b in (1, 2, 3)]
        with np.errstate(invalid="ignore"):  # 0/0: a context with no predictable child
            gamma = (d[1] * n_b[0] + d[2] * n_b[1] + d[3] * n_b[2]) / denom
        backoff[below:lo] = gamma
        prob[lo:hi] = np.where(pred, np.maximum(a - d[bucket], 0.0) / denom[ctx]
                               + gamma[ctx] * prob[below:lo][suffix], _NONE)
    return np.concatenate([keys for keys, _, _, _ in levels]), prob, backoff


def score_perplexity(model: NgramModel, doc: Document) -> PerplexityScore:
    """Per-token perplexity of a document (tokens plus terminal </s>)."""
    toks = tokenize(doc.text)
    if not toks:
        raise UnscorableError(f"document {doc.id!r} has no tokens; unscorable")
    event_id, unk = model._event_ids.get, model._unk
    ids = [event_id(t, unk) for t in toks]
    ids.append(model._eos)
    probs: list[float] = []
    model._walk(model._start, ids, probs)
    log_sum = 0.0
    for p in probs:
        log_sum += math.log(p)
    events = len(toks) + 1
    return PerplexityScore(
        doc_id=doc.id,
        log_prob_sum=log_sum,
        token_count=events,
        perplexity=math.exp(-log_sum / events),
    )


def _check_k(k: int) -> None:
    if k < 1:  # as `quality_top_k` in the config schema
        raise ConfigError("k must be >= 1")


def select_top_k(scores: list[PerplexityScore], k: int) -> list[str]:
    """Ids of the k lowest-perplexity documents; ties break on ascending doc_id."""
    _check_k(k)
    ranked = sorted(scores, key=lambda s: (s.perplexity, s.doc_id))
    return [s.doc_id for s in ranked[:k]]


def score_shard(model: NgramModel, shard: CorpusShard) -> list[PerplexityScore]:
    """Scores of the shard's documents in order; unscorable documents are skipped."""
    scores = []
    for doc in shard.documents:
        try:
            scores.append(score_perplexity(model, doc))
        except UnscorableError:
            continue
    return scores


def filter_top_k(
    shard: CorpusShard,
    model: NgramModel,
    k: int,
) -> tuple[CorpusShard, list[PerplexityScore]]:
    """Score every document and keep the k best; unscorable documents are dropped."""
    _check_k(k)
    scores = score_shard(model, shard)
    chosen = set(select_top_k(scores, k))
    kept = CorpusShard.from_documents(
        (d for d in shard.documents if d.id in chosen), source=shard.manifest.source)
    return kept, scores


# ---------------------------------------------------------------------------
# ARPA serialization
# ---------------------------------------------------------------------------

def write_arpa(model: NgramModel, path: str | Path) -> None:
    """Standard ARPA text format, 17 significant digits (lossless round-trip).

    A section lists all of the vocabulary (unigrams) or the order's n-grams
    that have a probability or a backoff, in key order, which is their order
    as tuples of strings because the ids are numbered in string order. The
    header counts come from the NaN masks, and the sections are streamed: in
    memory are a few numbers per n-gram and one batch of rows, never the file.
    An n-gram's text is built with its batch by following `keys // V`, the
    global index of its prefix, down to its unigram. Each distinct value of a
    section is formatted once (`_log10_texts`).
    """
    v, keys = len(model.vocab), model.keys
    first = np.array(sorted(model.vocab), dtype=object)  # each id's word
    later = " " + first
    listed = [np.ones(v, dtype=bool)]  # per order, in key order: the n-grams its section lists
    for k in range(2, model.order + 1):
        lo, hi = model.offsets[k - 1], model.offsets[k]
        has = ~np.isnan(model.prob[lo:hi])
        if k < model.order:  # the top order has no backoff column
            has |= ~np.isnan(model.backoff[lo:hi])
        listed.append(has)

    def names(k: int, rows: np.ndarray) -> Iterator[str]:
        """The texts of the order-k n-grams at the global indices `rows`."""
        for at in range(0, rows.size, _ARPA_BATCH):
            place = rows[at:at + _ARPA_BATCH]
            text = (later if k > 1 else first)[keys[place] % v]
            for j in range(k - 1, 0, -1):  # the prefix of order j
                place = keys[place] // v
                text = (later if j > 1 else first)[keys[place] % v] + text
            yield from text

    with atomic_write(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as fh:
        fh.write("\\data\\\n")
        fh.writelines(f"ngram {k}={np.count_nonzero(has)}\n" for k, has in enumerate(listed, 1))
        for k, has in enumerate(listed, 1):
            rows = model.offsets[k - 1] + np.flatnonzero(has)
            fh.write(f"\n\\{k}-grams:\n")
            fh.writelines(f"{p}\t{g}{b}\n" for p, g, b in zip(
                _log10_texts(model.prob[rows], "-99", ""), names(k, rows),
                _log10_texts(model.backoff[rows], "", "\t") if k < model.order
                else repeat("")))
        fh.write("\n\\end\\\n")


def _log10_texts(values: np.ndarray, none: str, lead: str) -> np.ndarray:
    """Per value: `lead` and its log10 in "%.17g" form, or `none` for NaN. Each
    distinct value is formatted once; equal floats give equal strings."""
    real = ~np.isnan(values)
    distinct, where = np.unique(values[real], return_inverse=True)
    texts = np.array([lead + f"{math.log10(x):.17g}" for x in distinct.tolist()] + [none],
                     dtype=object)
    codes = np.full(values.size, distinct.size)
    codes[real] = where
    return texts[codes]


def read_arpa(path: str | Path) -> NgramModel:
    """Parse an ARPA file. Tokens contain no whitespace, so plain splitting is safe.

    An n-gram with a word outside the vocabulary (the unigrams with a
    probability) can never be looked up and is left out. The model holds the
    listed n-grams closed under prefixes and suffixes, which is every
    contiguous piece of each listed n-gram: `_count_ngrams` numbers them,
    reading each listed n-gram as a sequence of its own. A piece that is not
    listed has no probability or backoff, which the scorer treats as absent.
    """
    path = Path(path)
    sections: dict[int, tuple[list, list, list]] = {}  # order -> words, p, backoff
    expected: dict[int, int] = {}
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
    order = max(sections, default=0)
    if order < 1:
        raise ConfigError(f"{path}: no n-gram sections found")
    for k, n in expected.items():
        found = len(sections.get(k, ((), (), ()))[1])
        if found != n:
            raise ConfigError(f"{path}: header promises {n} {k}-grams, found {found}")

    words, probs, _ = sections.get(1, ([], [], []))
    known = {w for w, p in zip(words, probs) if p == p}
    vocab = {w: i for i, w in enumerate(sorted(known | {UNK, BOS, EOS}))}
    v = len(vocab)
    listed = []  # per order: the id rows that can be looked up, their probs and backoffs
    for k in range(1, order + 1):
        words, probs, backoffs = sections.pop(k, ([], [], []))
        ids = np.fromiter(map(vocab.get, words, repeat(-1)), dtype=np.int64,
                          count=len(words)).reshape(-1, k)
        kept = (ids >= 0).all(axis=1)
        listed.append((ids[kept], np.array(probs)[kept], np.array(backoffs)[kept]))
    del words, probs, backoffs  # free the last section's lists before the arrays grow
    seq = np.concatenate([ids.ravel() for ids, _, _ in listed])
    depth = np.concatenate([np.tile(np.arange(ids.shape[1]), len(ids)) for ids, _, _ in listed])
    keys = np.concatenate([keys for keys, _, _, _ in
                           _count_ngrams(seq, depth, v, order, vocab[BOS])])
    prob, backoff = np.full(keys.size, _NONE), np.full(keys.size, _NONE)
    for k, (ids, p, b) in enumerate(listed, 1):
        at = ids[:, 0]  # global index of each row's first j + 1 ids; a unigram's is its id
        for j in range(1, k):
            at = keys.searchsorted(at * v + ids[:, j])
        if np.unique(at).size < at.size:
            raise ConfigError(f"{path}: duplicate n-gram in the \\{k}-grams section")
        prob[at] = p
        if k < order:  # a top-order backoff is never used
            backoff[at] = b
    if np.isnan(prob[[vocab[UNK], vocab[EOS]]]).any():
        raise ConfigError(f"{path}: no unigram probability for {UNK!r} or {EOS!r}")
    return NgramModel(order=order, vocab=vocab, keys=keys, prob=prob, backoff=backoff)
