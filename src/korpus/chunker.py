"""Sentence segmentation and token-budget chunking ahead of translation.

Splitting operates on whitespace-normalized text: a boundary is sentence-final
punctuation (. ! ? or an ellipsis) followed by a space and an uppercase letter
or digit, unless the word ending at the punctuation is a known German
abbreviation. Chunks are packed greedily in order; a single sentence larger
than the budget becomes its own chunk flagged oversized rather than being cut
mid-sentence.

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

from .core import CorpusShard, Document, tokenize
from .errors import ConfigError

# Lowercased, with trailing period; matched against the word before a split candidate.
GERMAN_ABBREVIATIONS = frozenset({
    "z.b.", "dr.", "bzw.", "ca.", "nr.", "usw.", "etc.", "prof.", "d.h.",
    "u.a.", "vgl.", "bspw.", "ggf.", "evtl.", "inkl.", "mio.", "mrd.",
    "abs.", "art.", "hr.", "fr.", "st.", "s.", "o.ä.", "u.ä.", "z.t.",
})

# Characters that mean nothing to sh but themselves; blanks only separate words.
_PLAIN_COMMAND = re.compile(r"[A-Za-z0-9_./,:+@ \t-]*")
# Builtins of POSIX sh and dash: sh runs these itself, even where PATH holds a
# program of the name (`echo`, `test`, `kill`).
_SH_BUILTINS = frozenset(
    ". : alias bg break cd chdir command continue echo eval exec exit export false fc fg"
    " getopts hash jobs kill local printf pwd read readonly return set shift test times"
    " trap true type ulimit umask unalias unset wait".split())


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
    A call whose stdout has more lines than texts fails every text, since no
    line can be matched to its text; one with fewer fails the texts after them.

    A list command is exec'd as given. A string command with no shell syntax
    (see `_PLAIN_COMMAND`) whose first word is not a builtin of sh is exec'd as
    `command.split()`, which is the argv `sh -c` would run for it, without the
    shell's own fork and exec. Any other string runs through `sh -c`. If exec
    fails (a script with no `#!` line, a name that is not or no longer on PATH),
    the string runs through `sh -c` from then on, so the results are sh's,
    `exited 127` for an unknown name included. One difference shows: a
    translator killed by signal N is reported as `exited -N` when exec'd
    directly and as `exited 128+N` through sh. A translator that cannot start
    fails every chunk, as a nonzero exit does.
    """

    def __init__(self, command: str | list[str]):
        self._command = command
        self._direct = None  # the argv to exec, until exec fails to start it
        if isinstance(command, str) and _PLAIN_COMMAND.fullmatch(command):
            words = command.split()
            if words and words[0] not in _SH_BUILTINS:
                self._direct = words

    def _run(self, payload: str) -> subprocess.CompletedProcess:
        if self._direct is not None:
            try:
                return _start(self._direct, payload)
            except OSError:
                self._direct = None  # sh starts what exec could not
        return _start(self._command, payload)

    def translate_many(self, texts: Sequence[str]) -> list[str | Exception]:
        if not texts:
            return []
        payload = "\n".join(t.replace("\n", " ") for t in texts) + "\n"
        try:
            proc = self._run(payload)
        except UnicodeError as exc:  # its output, or a lone surrogate in the input
            return [RuntimeError(f"translator text is not UTF-8: {exc}")] * len(texts)
        except OSError as exc:  # not found or not executable, even by sh
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


def _start(args: str | list[str], payload: str) -> subprocess.CompletedProcess:
    return subprocess.run(args, input=payload, capture_output=True, encoding="utf-8",
                          shell=isinstance(args, str))


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
    """Chunk and translate every document, with one translator call per document.

    Returns the result of every chunk in order, the shard of translated
    documents, and one failure record per document with a failed chunk, which
    is left out of that shard (see the module's failure policy).
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    results: list[TranslationResult] = []
    translated: list[Document] = []
    failures: list[dict] = []
    for doc in shard.documents:
        doc_results = translate_chunks(chunk_document(doc, budget), translator)
        results += doc_results
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
