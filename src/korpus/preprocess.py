"""Text cleaning applied before language identification.

Order is fixed: HTML entity unescaping, URL removal, then the minimum-word
filter measured on the cleaned text. Cleaning never touches document ids,
sources, or domains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .core import CorpusShard, Document
from .errors import ConfigError

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
}

_ENTITY_RE = re.compile(r"&(#[0-9]+|#[xX][0-9a-fA-F]+|amp|lt|gt|quot|apos|nbsp);")

# Schemes match anywhere; bare "www." only at the start of a whitespace-delimited word.
_URL_RE = re.compile(r"(?:(?:https?|ftp)://|(?<!\S)www\.)\S*", re.IGNORECASE)


def _decode_entity(match: re.Match) -> str:
    body = match.group(1)
    if body[0] == "#":
        try:
            cp = int(body[2:], 16) if body[1] in "xX" else int(body[1:], 10)
        except ValueError:
            return match.group(0)
        # Refuse surrogates and out-of-range codepoints; they cannot round-trip UTF-8.
        if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF:
            return match.group(0)
        return chr(cp)
    return _NAMED_ENTITIES[body]


def unescape_html(text: str) -> str:
    """Decode the standard named entities plus numeric (decimal/hex) references.

    Malformed entities pass through unchanged. Like any entity decoder, the
    function is idempotent only on text whose output contains no further
    entities (decoding "&amp;lt;" twice would yield "<").
    """
    return _ENTITY_RE.sub(_decode_entity, text)


def strip_urls(text: str) -> tuple[str, int]:
    """Delete URL substrings up to the next whitespace; collapse the hole to one space.

    Covers http/https/ftp schemes anywhere and bare "www." word prefixes.
    Returns the cleaned text and the number of URLs removed. Whitespace not
    adjacent to a removed URL is preserved.
    """
    pieces = _URL_RE.split(text)
    if len(pieces) == 1:
        return text, 0
    result = pieces[0]
    for nxt in pieces[1:]:
        left = result.rstrip()
        right = nxt.lstrip()
        if left and right:
            result = left + " " + right
        else:
            result = left or right
    return result, len(pieces) - 1


@dataclass(frozen=True)
class CleanStats:
    input_docs: int
    unescaped_docs: int
    urls_removed: int
    dropped_short: int
    output_docs: int


def clean_document(doc: Document) -> tuple[Document, bool, int]:
    """Unescape entities, then strip URLs; a changed text recounts its tokens."""
    unescaped = unescape_html(doc.text)
    changed = unescaped != doc.text
    cleaned, n_urls = strip_urls(unescaped)
    if cleaned != doc.text:
        doc = replace(doc, text=cleaned)
    return doc, changed, n_urls


def clean_shard(shard: CorpusShard, min_words: int) -> tuple[CorpusShard, CleanStats]:
    """Full cleaning pass: unescape -> strip URLs -> min-word filter."""
    if min_words < 0:
        raise ConfigError("min_words must be >= 0")
    kept = []
    unescaped_docs = 0
    urls_removed = 0
    for doc in shard.documents:
        doc, changed, n_urls = clean_document(doc)
        unescaped_docs += int(changed)
        urls_removed += n_urls
        if doc.token_count >= min_words:
            kept.append(doc)
    stats = CleanStats(
        input_docs=len(shard.documents),
        unescaped_docs=unescaped_docs,
        urls_removed=urls_removed,
        dropped_short=len(shard.documents) - len(kept),
        output_docs=len(kept),
    )
    return CorpusShard.from_documents(kept, source=shard.manifest.source), stats
