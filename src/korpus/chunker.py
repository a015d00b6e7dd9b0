"""Sentence segmentation and token-budget chunking ahead of translation.

Splitting operates on whitespace-normalized text: a boundary is sentence-final
punctuation (. ! ? or an ellipsis) followed by a space and an uppercase letter
or digit, unless the word ending at the punctuation is a known German
abbreviation. Chunks are packed greedily in order; a single sentence larger
than the budget becomes its own chunk flagged oversized rather than being cut
mid-sentence.

`translate_shard` chunks every document, then translates the chunks of
consecutive documents in one translator call, up to _TRANSLATE_BATCH_CHARS
characters of chunk text. A document is never split across calls; one longer
than that is a call of its own. A line-protocol translator such as an MT
decoder loads its model once per start, so a source takes a few starts, not
one per document. If any chunk of a call over two or more documents fails,
those documents are translated again one call each, and those results stand:
every result, failure and translated document is the one that one call per
document gives.

Failure policy: a translator failure is recorded per chunk, never raised. A
document with any failed chunk is dropped from the translated shard and listed
among the failures (`chunk/<source>.failures.json` in a pipeline workspace)
with the index and error of each failed chunk; its chunks are still listed.
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import CorpusShard, Document, batches, tokenize
from .errors import ConfigError

# Lowercased, with trailing period; matched against the word before a split candidate.
GERMAN_ABBREVIATIONS = frozenset({
    "z.b.", "dr.", "bzw.", "ca.", "nr.", "usw.", "etc.", "prof.", "d.h.",
    "u.a.", "vgl.", "bspw.", "ggf.", "evtl.", "inkl.", "mio.", "mrd.",
    "abs.", "art.", "hr.", "fr.", "st.", "s.", "o.ä.", "u.ä.", "z.t.",
})

_TRANSLATE_BATCH_CHARS = 1 << 18  # chunk text characters per translator call


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    index: int
    sentences: tuple[str, ...]
    token_count: int
    oversized: bool = False

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


@dataclass(frozen=True)
class TranslationResult:
    chunk: Chunk
    text: str | None
    error: str | None


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence split; joining the result with spaces reproduces the
    whitespace-normalized input exactly."""
    norm = " ".join(text.split())
    if not norm:
        return []
    sentences = []
    start = 0
    for m in re.finditer(r"(?<=[.!?…]) ", norm):
        i = m.start()
        nxt = norm[i + 1]
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if norm[norm.rfind(" ", 0, i) + 1:i].lower() in GERMAN_ABBREVIATIONS:
            continue
        sentences.append(norm[start:i])
        start = i + 1
    sentences.append(norm[start:])
    return sentences


def chunk_sentences(
    sentences: Sequence[str],
    budget: int,
    token_counter: Callable[[str], int] | None = None,
    doc_id: str = "",
) -> list[Chunk]:
    """Greedy first-fit packing in order; lossless over the input sentences."""
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    counter = token_counter or (lambda s: len(tokenize(s)))
    groups: list[list] = []  # [sentences, tokens]; one group becomes one chunk
    for sentence in sentences:
        n = counter(sentence)
        # An oversized group already exceeds the budget, so it takes no more sentences.
        if groups and groups[-1][1] + n <= budget:
            groups[-1][0].append(sentence)
            groups[-1][1] += n
        else:
            groups.append([[sentence], n])
    return [Chunk(doc_id=doc_id, index=i, sentences=tuple(group), token_count=tokens,
                  oversized=tokens > budget) for i, (group, tokens) in enumerate(groups)]


def chunk_document(doc: Document, budget: int) -> list[Chunk]:
    return chunk_sentences(split_sentences(doc.text), budget, doc_id=doc.id)


class Translator:
    """Applies a text -> text callable to each chunk text."""

    def __init__(self, fn: Callable[[str], str]):
        self._fn = fn

    def translate_many(self, texts: Sequence[str]) -> list[str | Exception]:
        out: list[str | Exception] = []
        for t in texts:
            try:
                out.append(self._fn(t))
            except Exception as exc:  # per-chunk failures are recorded, not raised
                out.append(exc)
        return out


def identity_translator() -> Translator:
    return Translator(lambda s: s)


class SubprocessTranslator(Translator):
    """Line protocol: one chunk text per stdin line, one translation per stdout line,
    both in UTF-8 whatever the locale. A "\r" ends a stdout line as "\n" does.
    Output line i must be the translation of input line i alone, whatever the
    other lines of the call: `translate_shard` sends the chunks of many
    documents in one call. A call whose stdout has more lines than texts fails
    every text, since no line can be matched to its text; one with fewer fails
    the texts after them.

    A list command is exec'd as given, and a string command runs through
    `sh -c`. A translator that cannot start fails every chunk, as a nonzero
    exit does.
    """

    def __init__(self, command: str | list[str]):
        self._command = command

    def translate_many(self, texts: Sequence[str]) -> list[str | Exception]:
        if not texts:
            return []
        payload = "\n".join(t.replace("\n", " ") for t in texts) + "\n"
        try:
            proc = subprocess.run(self._command, input=payload, capture_output=True,
                                  encoding="utf-8", shell=isinstance(self._command, str))
        except UnicodeError as exc:  # its output, or a lone surrogate in the input
            return [RuntimeError(f"translator text is not UTF-8: {exc}")] * len(texts)
        except OSError as exc:  # a list command that is not found or not executable
            return [RuntimeError(f"translator did not start: {exc}")] * len(texts)
        if proc.returncode != 0:
            err = RuntimeError(f"translator exited {proc.returncode}: {proc.stderr.strip()}")
            return [err] * len(texts)
        lines = proc.stdout.split("\n")
        if not lines[-1]:  # the newline that ends the last line
            lines.pop()
        if len(lines) > len(texts):  # which line belongs to which text is lost
            return [RuntimeError(f"translator wrote {len(lines)} lines for {len(texts)} texts")
                    ] * len(texts)
        return [lines[i] if i < len(lines)
                else RuntimeError(f"translator produced no output for chunk {i}")
                for i in range(len(texts))]


def translate_chunks(chunks: Sequence[Chunk], translator: Translator) -> list[TranslationResult]:
    """One result per chunk, in order; failures are recorded per chunk."""
    outputs = translator.translate_many([c.text for c in chunks])
    return [TranslationResult(chunk, None, str(out)) if isinstance(out, Exception)
            else TranslationResult(chunk, out, None) for chunk, out in zip(chunks, outputs)]


def chunk_record(chunk: Chunk) -> dict:
    """The JSON record of a chunk, as the chunk listings write it."""
    return {
        "doc_id": chunk.doc_id, "index": chunk.index, "text": chunk.text,
        "token_count": chunk.token_count, "oversized": chunk.oversized,
    }


def translate_shard(
    shard: CorpusShard,
    budget: int,
    translator: Translator,
) -> tuple[list[TranslationResult], CorpusShard, list[dict]]:
    """Chunk every document and translate the chunks in batches of
    consecutive documents (see the module docstring).

    Returns the result of every chunk in order, the shard of translated
    documents, and one failure record per document with a failed chunk, which
    is left out of that shard (see the module's failure policy).
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    doc_chunks = [chunk_document(doc, budget) for doc in shard.documents]
    results: list[TranslationResult] = []
    for batch in batches(doc_chunks, lambda chunks: sum(len(c.text) for c in chunks),
                         _TRANSLATE_BATCH_CHARS):
        # translate_chunks is looked up here at each call, so a wrapper bound in its place sees it.
        batch_results = translate_chunks([c for chunks in batch for c in chunks], translator)
        if len(batch) > 1 and any(r.error is not None for r in batch_results):
            batch_results = [r for chunks in batch for r in translate_chunks(chunks, translator)]
        results += batch_results
    translated: list[Document] = []
    failures: list[dict] = []
    end = 0
    for doc, chunks in zip(shard.documents, doc_chunks):
        doc_results = results[end:end + len(chunks)]
        end += len(chunks)
        bad = [r for r in doc_results if r.error is not None]
        if bad:
            failures.append({
                "doc_id": doc.id,
                "errors": [{"index": r.chunk.index, "error": r.error} for r in bad],
            })
        else:
            translated.append(Document(id=doc.id, source=doc.source, domain=doc.domain,
                                       text=" ".join(r.text for r in doc_results)))
    return results, CorpusShard.from_documents(translated, source=shard.manifest.source), failures
