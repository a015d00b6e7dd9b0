"""Spans around korpus's public functions, recorded from outside the package.

`Tracer.install` replaces each target function with a wrapper at every
attribute of a loaded korpus module that binds it (`read_shard` is bound in
`korpus`, `korpus.core`, `korpus.pipeline` and `korpus.mixer`), so every call
path is seen. `Tracer.restore` puts the originals back. Spans stay in memory;
the caller writes them out after the run.

Functions called per token or per n-gram are never wrapped: the wrapper would
cost more than the work. That excludes the `fnv1a_bytes` that `korpus.langid`
and `korpus.core` use and `NgramModel.conditional`; the marker checksums are
seen through the `fnv1a_bytes` bound in `korpus.pipeline` only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

STAGES = ("preprocess", "langid", "dedup", "qualfilter", "chunk", "mix", "report")


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, "<module>.<function>"
    module: str
    attr: str  # may be "Class.method"
    stats: tuple[str, ...] = ("self_s",)  # reported span statistics
    everywhere: bool = True  # also wrap every other korpus module attribute bound to it
    count: str | None = None  # add size(result) to this counter
    size: Callable = len
    span: bool = True  # False: only count calls, under `name`


TARGETS = (
    Target("pipeline.fnv1a_bytes", "korpus.pipeline", "fnv1a_bytes", ("self_s", "calls"),
           everywhere=False),
    Target("core.read_shard", "korpus.core", "read_shard", ("self_s", "calls")),
    Target("core.write_shard", "korpus.core", "write_shard"),
    Target("core.fnv1a_hex", "korpus.core", "fnv1a_hex"),
    Target("preprocess.clean_shard", "korpus.preprocess", "clean_shard"),
    Target("langid.extract_features", "korpus.langid", "extract_features", ("self_s", "calls")),
    Target("langid.train_langid", "korpus.langid", "train_langid"),
    Target("langid.filter_language", "korpus.langid", "filter_language"),
    Target("langid.save_model", "korpus.langid", "save_model"),
    Target("dedup.build_stream", "korpus.dedup", "build_stream", count="dedup.stream_tokens",
           size=lambda stream: int(stream.tokens.size)),
    Target("dedup.build_suffix_index", "korpus.dedup", "build_suffix_index"),
    Target("dedup.find_duplicates", "korpus.dedup", "find_duplicates", count="dedup.spans"),
    Target("dedup.apply_policy", "korpus.dedup", "apply_policy"),
    Target("qualfilter.train_ngram", "korpus.qualfilter", "train_ngram"),
    Target("qualfilter.write_arpa", "korpus.qualfilter", "write_arpa"),
    Target("qualfilter.score_perplexity", "korpus.qualfilter", "score_perplexity",
           ("self_s", "calls")),
    Target("qualfilter.filter_top_k", "korpus.qualfilter", "filter_top_k"),
    Target("chunker.chunk_document", "korpus.chunker", "chunk_document", count="chunker.chunks"),
    Target("chunker.translate_chunks", "korpus.chunker", "translate_chunks"),
    Target("chunker.translator_starts", "korpus.chunker", "SubprocessTranslator.translate_many",
           (), span=False),
    Target("mixer.assemble", "korpus.mixer", "assemble"),
    Target("mixer.trim_to_budget", "korpus.mixer", "trim_to_budget"),
    Target("report.render", "korpus.report", "render"),
)

LAYERS = tuple(dict.fromkeys(t.name.split(".")[0] for t in TARGETS))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the span list


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for "func" or "Class.method" in a module."""
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[target.name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(target.name, time.perf_counter(), 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if target.count:
                counts[target.count] += target.size(result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "korpus" or name.startswith("korpus."))]
        for target in self.targets:
            owner, name = _resolve(target.module, target.attr)
            fn = getattr(owner, name)
            wrapper = self._wrap(target, fn)
            sites = [(owner, name)]
            if target.everywhere:
                sites += [(m, a) for m in modules for a, v in vars(m).items()
                          if v is fn and (m, a) != (owner, name)]
            for site_owner, site_attr in sites:
                self._saved.append((site_owner, site_attr, fn))
                setattr(site_owner, site_attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, and self_s (duration minus direct children's)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = {}
    for s, covered in zip(spans, child_time):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - covered
    return out


def top_level_seconds(spans: list[Span]) -> float:
    """Time covered by spans without a parent; they never overlap."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Every per-layer metric of TARGETS from one traced run; absent spans read 0."""
    summary = summarize(spans)
    out: dict[str, float] = {}
    for t in TARGETS:
        for stat in t.stats:
            out[f"{t.name}.{stat}"] = summary.get(t.name, {}).get(stat, 0)
        if not t.span:
            out[t.name] = counts.get(t.name, 0)
        if t.count:
            out[t.count] = counts.get(t.count, 0)
    starts = counts.get("chunker.translator_starts", 0)
    out["chunker.chunks_per_start"] = counts.get("chunker.chunks", 0) / starts if starts else 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(row["self_s"] for name, row in summary.items()
                                          if name.startswith(layer + "."))
    return out
