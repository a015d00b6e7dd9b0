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
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from .core import CorpusShard, Document, atomic_write, tokenize
from .errors import ConfigError, UnscorableError

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

_D_MIN = 1e-4
_D_MAX = 1.0 - 1e-9


@dataclass
class NgramModel:
    order: int
    vocab: dict[str, int]  # token -> id; <unk>=0, <s>=1, </s>=2
    probs: dict[tuple[str, ...], float]  # ngram -> p(last | rest)
    backoffs: dict[tuple[str, ...], float]  # context -> interpolation weight

    def predictable_vocab(self) -> list[str]:
        return [w for w in self.vocab if w != BOS]

    def _map_event(self, token: str) -> str:
        if token == BOS or token not in self.vocab:
            return UNK
        return token

    def _map_context(self, token: str) -> str:
        return token if token in self.vocab else UNK

    def conditional(self, token: str, context: tuple[str, ...]) -> float:
        """p(token | context) with backoff; strictly positive for any input."""
        w = self._map_event(token)
        keep = self.order - 1  # context tokens the model conditions on
        ctx = tuple(self._map_context(t) for t in context)[-keep:] if keep else ()
        coef = 1.0
        while True:
            p = self.probs.get(ctx + (w,))
            if p is not None:
                return coef * p
            if not ctx:
                raise KeyError(f"no unigram probability for {w!r}")
            coef *= self.backoffs.get(ctx, 1.0)
            ctx = ctx[1:]


@dataclass(frozen=True)
class PerplexityScore:
    doc_id: str
    log_prob_sum: float  # natural log over all events
    token_count: int  # events scored: document tokens plus terminal </s>
    perplexity: float


def _discount_for(count: int, d: tuple[float, float, float]) -> float:
    return d[min(count, 3) - 1] if count > 0 else 0.0


def _estimate_discounts(table: dict[tuple[str, ...], int], order_k: int) -> tuple[float, float, float]:
    cc = Counter()
    for g, c in table.items():
        if g[-1] != BOS and c <= 4:
            cc[c] += 1
    n1, n2, n3, n4 = cc[1], cc[2], cc[3], cc[4]
    if n1 == 0 or n2 == 0:
        warnings.warn(
            f"count-of-counts too sparse at order {order_k} (n1={n1}, n2={n2}); "
            "falling back to a fixed discount of 0.75",
            RuntimeWarning,
            stacklevel=3,
        )
        return (0.75, 0.75, 0.75)
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3 if n3 > 0 else 3.0
    clamp = lambda v: min(max(v, _D_MIN), _D_MAX)
    return (clamp(d1), clamp(d2), clamp(d3))


def _raw_counts(docs_tokens: list[list[str]], order: int) -> list[dict[tuple[str, ...], int]]:
    tables: list[dict[tuple[str, ...], int]] = [defaultdict(int) for _ in range(order)]
    for toks in docs_tokens:
        seq = [BOS] * (order - 1) + toks + [EOS]
        for k in range(1, order + 1):
            table = tables[k - 1]
            for i in range(len(seq) - k + 1):
                table[tuple(seq[i:i + k])] += 1
    return [dict(t) for t in tables]


def _adjusted_counts(raw: list[dict[tuple[str, ...], int]]) -> list[dict[tuple[str, ...], int]]:
    order = len(raw)
    adj: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
    adj[order - 1] = dict(raw[order - 1])
    for k in range(order - 1, 0, -1):
        table: dict[tuple[str, ...], int] = {}
        for g, c in raw[k - 1].items():
            if g[0] == BOS:
                table[g] = c
        for h in raw[k]:
            g = h[1:]
            if g[0] == BOS:
                continue
            table[g] = table.get(g, 0) + 1
        adj[k - 1] = table
    return adj


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
    vocab: dict[str, int] = {UNK: 0, BOS: 1, EOS: 2}
    for tok in sorted(t for t, c in freq.items() if c >= min_count):
        if tok not in vocab:
            vocab[tok] = len(vocab)
    mapped = [[t if t in vocab and t != BOS else UNK for t in toks] for toks in all_docs]

    raw = _raw_counts(mapped, order)
    adj = _adjusted_counts(raw)
    discounts = [_estimate_discounts(adj[k], k + 1) for k in range(order)]

    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    pred_vocab = [w for w in vocab if w != BOS]
    v_pred = len(pred_vocab)

    # Unigrams interpolate with the uniform distribution over predictable tokens.
    d_uni = discounts[0]
    uni = adj[0]
    denom = sum(c for g, c in uni.items() if g[0] != BOS)
    n_by_bucket = [0, 0, 0]
    for g, c in uni.items():
        if g[0] == BOS:
            continue
        n_by_bucket[min(c, 3) - 1] += 1
    gamma_eps = (d_uni[0] * n_by_bucket[0] + d_uni[1] * n_by_bucket[1]
                 + d_uni[2] * n_by_bucket[2]) / denom
    for w in pred_vocab:
        a = uni.get((w,), 0)
        probs[(w,)] = max(a - _discount_for(a, d_uni), 0.0) / denom + gamma_eps / v_pred

    for k in range(2, order + 1):
        d_k = discounts[k - 1]
        children: dict[tuple[str, ...], list[tuple[str, int]]] = defaultdict(list)
        for g, a in adj[k - 1].items():
            children[g[:-1]].append((g[-1], a))
        for ctx, kids in children.items():
            pred_kids = [(w, a) for w, a in kids if w != BOS]
            if not pred_kids:
                continue
            denom = sum(a for _, a in pred_kids)
            buckets = [0, 0, 0]
            for _, a in pred_kids:
                buckets[min(a, 3) - 1] += 1
            gamma = (d_k[0] * buckets[0] + d_k[1] * buckets[1] + d_k[2] * buckets[2]) / denom
            backoffs[ctx] = gamma
            for w, a in pred_kids:
                lower = probs[ctx[1:] + (w,)]
                probs[ctx + (w,)] = max(a - _discount_for(a, d_k), 0.0) / denom + gamma * lower

    return NgramModel(order=order, vocab=vocab, probs=probs, backoffs=backoffs)


def score_perplexity(model: NgramModel, doc: Document) -> PerplexityScore:
    """Per-token perplexity of a document (tokens plus terminal </s>)."""
    toks = tokenize(doc.text)
    if not toks:
        raise UnscorableError(f"document {doc.id!r} has no tokens; unscorable")
    seq = [BOS] * (model.order - 1) + [model._map_event(t) for t in toks] + [EOS]
    start = model.order - 1
    log_sum = 0.0
    for i in range(start, len(seq)):
        ctx = tuple(seq[max(0, i - model.order + 1):i])
        log_sum += math.log(model.conditional(seq[i], ctx))
    events = len(toks) + 1
    return PerplexityScore(
        doc_id=doc.id,
        log_prob_sum=log_sum,
        token_count=events,
        perplexity=math.exp(-log_sum / events),
    )


def select_top_k(scores: list[PerplexityScore], k: int) -> list[str]:
    """Ids of the k lowest-perplexity documents; ties break on ascending doc_id."""
    if k < 0:
        raise ConfigError("k must be >= 0")
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
    if k < 0:
        raise ConfigError("k must be >= 0")
    scores = score_shard(model, shard)
    chosen = set(select_top_k(scores, k))
    kept = CorpusShard.from_documents(
        (d for d in shard.documents if d.id in chosen), source=shard.manifest.source)
    return kept, scores


# ---------------------------------------------------------------------------
# ARPA serialization
# ---------------------------------------------------------------------------

def _arpa_entries(model: NgramModel, k: int) -> list[tuple[str, ...]]:
    if k == 1:
        return sorted((w,) for w in model.vocab)
    grams = {g for g in model.probs if len(g) == k}
    grams.update(g for g in model.backoffs if len(g) == k)
    return sorted(grams)


def write_arpa(model: NgramModel, path: str | Path) -> None:
    """Standard ARPA text format, 17 significant digits (lossless round-trip)."""
    per_order = [_arpa_entries(model, k) for k in range(1, model.order + 1)]
    lines = ["\\data\\"]
    for k, entries in enumerate(per_order, start=1):
        lines.append(f"ngram {k}={len(entries)}")
    for k, entries in enumerate(per_order, start=1):
        lines += ["", f"\\{k}-grams:"]
        for g in entries:
            p = model.probs.get(g)
            logp = "-99" if p is None else f"{math.log10(p):.17g}"
            row = f"{logp}\t{' '.join(g)}"
            if k < model.order and g in model.backoffs:
                row += f"\t{math.log10(model.backoffs[g]):.17g}"
            lines.append(row)
    lines += ["", "\\end\\"]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_arpa(path: str | Path) -> NgramModel:
    """Parse an ARPA file. Tokens contain no whitespace, so plain splitting is safe."""
    path = Path(path)
    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
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
                gram = tuple(parts[1:1 + section])
                rest = parts[1 + section:]
                seen[section] += 1
                logp = float(parts[0])
                if logp > -98.0:  # -99 marks placeholder entries such as <s>
                    probs[gram] = 10.0 ** logp
                if rest:
                    backoffs[gram] = 10.0 ** float(rest[0])
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (ValueError, IndexError, OverflowError):  # a number, count or header
        raise ConfigError(f"{path}:{lineno}: cannot parse {raw_line.strip()!r}") from None
    if order == 0:
        raise ConfigError(f"{path}: no n-gram sections found")
    for k, n in expected.items():
        if seen.get(k, 0) != n:
            raise ConfigError(f"{path}: header promises {n} {k}-grams, found {seen.get(k, 0)}")
    vocab: dict[str, int] = {UNK: 0, BOS: 1, EOS: 2}
    for g in sorted(g for g in probs if len(g) == 1):
        if g[0] not in vocab:
            vocab[g[0]] = len(vocab)
    return NgramModel(order=order, vocab=vocab, probs=probs, backoffs=backoffs)
