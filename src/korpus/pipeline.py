"""Declarative pipeline runner.

Stages run in a fixed order: preprocess -> langid -> dedup -> qualfilter ->
chunk -> mix -> report. Every output file is written deterministically, so an
identical config over identical inputs yields a byte-identical workspace.

Resume contract. A completed stage writes `markers/<stage>.json` holding the
run key and a checksum of each output it wrote (no timestamps, no absolute
paths). An output checksum is `b2:` and the 8-byte blake2b hex digest of the
file's bytes (`core.fnv1a_bytes`), the form of a shard manifest's checksum.
The run key is a 32-byte blake2b over the korpus version, the parsed config
without its resolved paths, the seed override and the bytes of every raw
input file: source paths, langid training corpora and the KN reference. A
stage is cached only if its marker carries this run's key, so a change to any
of these reruns every stage. A cached stage re-checks every output checksum
its marker recorded; a missing or modified output raises IntegrityError (CLI
exit 4). --force reruns every stage whatever the markers say. An interrupted
run resumed later is indistinguishable from an uninterrupted one.

Each stage body is a generator of its outputs: it yields
`(path relative to the workspace, writer, value)` and writes nothing itself.
The runner calls `writer(value, path)` for each, in order, and records
exactly those paths in the stage's marker, so a marker lists every file its
stage wrote. Every writer takes `(value, path)`. A writer that hashes the bytes
as it writes them returns their checksum, and the marker records it as is;
every other output is read back and hashed once its stage is done.

After each stage, ran or cached, a source reads `<stage>/<name>.jsonl` if the
stage's outputs hold that path. Names have no dot (`$defs/name` in the schema),
so a side file such as `<name>.chunks.jsonl` is never another source's shard.

Mix parses only what it must. A dataset source whose shard is a stage output
(its checksum is in that stage's marker), and that is not the dataset's trim
source, is copied in blocks to `datasets/<ds>/<name>.jsonl`. The copy is hashed
as it is written, and a hash other than the marker's raises IntegrityError
with no file written. Its composition counts come from its manifest line. The
trim source loses documents, and a raw input's manifest may name another
source and its bytes need not be `write_shard`'s, so these two are parsed with
`read_shard` and re-written with `write_shard`, as `korpus mix --spec` does for
every source. A copy has the bytes of that re-write: every stage writes
`<stage>/<name>.jsonl` with `write_shard` and source `name`, and `write_shard`
gives a shard read from its own output the same bytes again.
"""

from __future__ import annotations

import glob as globmod
import json
import os
import sys
from dataclasses import dataclass, asdict
from importlib import resources
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

import jsonschema

# The interpreter's own blake2b, built in on every supported Python: importing
# hashlib maps OpenSSL, ~3 MB of RSS.
from _blake2 import blake2b

from . import __version__, chunker, dedup, langid, mixer, qualfilter, report as report_mod
from .core import (
    CorpusShard, PipelineConfig, atomic_write, fnv1a_bytes, merge_shards, read_manifest,
    read_shard, write_shard,
)
from .errors import ConfigError, IntegrityError, KorpusError, ShardFormatError, StageError
from .preprocess import clean_shard

STAGES = ("preprocess", "langid", "dedup", "qualfilter", "chunk", "mix", "report")

# What a stage body yields: (path relative to the workspace, writer, value).
Outputs = Iterator[tuple[str, Callable[[Any, Path], str | None], Any]]


@dataclass
class SourceConfig:
    name: str
    domain: str
    paths: list[str]
    dedup_group: str | None = None
    preprocess: bool = False
    langid: bool = False
    quality_filter: bool = False
    chunk_translate: bool = False


@dataclass
class DatasetConfig:
    name: str
    sources: list[str]
    budget_tokens: int | None = None
    trim_source: str | None = None
    seed: int | None = None


@dataclass
class RunConfig:
    params: PipelineConfig
    sources: list[SourceConfig]
    datasets: list[DatasetConfig]
    langid_cfg: dict | None
    quality_lm: dict | None
    translator: dict | None
    # The files of each source, language and the reference, resolved once.
    source_files: dict[str, list[Path]]
    langid_files: dict[str, list[Path]]
    reference_files: list[Path]


def load_schema() -> dict:
    with resources.files("korpus").joinpath("config_schema.json").open("rb") as fh:
        return json.load(fh)


def _is_json_integer(checker, instance) -> bool:
    return isinstance(instance, int) and not isinstance(instance, bool)


# The stock "integer" type also accepts floats with an integral value, such as
# 5.0; every integer setting must be a JSON integer.
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", _is_json_integer),
)(load_schema())


# A `korpus mix --spec` file: one dataset with its sources' domains and shard paths.
_MIX_SPEC_VALIDATOR = _VALIDATOR.evolve(schema={"$ref": "#/$defs/mix_spec"})


def _schema_diagnostics(obj, validator=_VALIDATOR) -> list[str]:
    out = []
    for err in sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path)):
        loc = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        out.append(f"{loc}: {err.message}")
    return out


class PatternError(ConfigError):
    """The problems of one `resolve_paths` call, each (index of its pattern, text,
    index of the pattern that matched the text's file first, or None). The
    message names that pattern by its text, `diagnostics(locs)` as locs[i]."""

    def __init__(self, patterns: list[str], problems: list[tuple[int, str, int | None]]):
        self.problems = problems
        super().__init__("; ".join(self._texts(lambda i: repr(patterns[i]))))

    def _texts(self, name: Callable[[int], str]) -> list[str]:
        return [text if first is None else f"{text} is a file that {name(first)} already matched"
                for _, text, first in self.problems]

    def diagnostics(self, locs: list[str]) -> list[str]:
        texts = self._texts(locs.__getitem__)
        return [f"{locs[j]}: {text}" for (j, _, _), text in zip(self.problems, texts)]


def resolve_paths(patterns: list[str], base: Path) -> list[Path]:
    """`resolve_each`, the matches of all patterns in one list."""
    return [p for matches in resolve_each(patterns, base) for p in matches]


def resolve_each(patterns: list[str], base: Path) -> list[list[Path]]:
    """The one rule for every input path: a relative glob pattern resolves against
    `base`, the directory of the config or mix spec that names it (the working
    directory for a CLI flag), and each pattern's matches are sorted.

    Every problem goes into one PatternError: a pattern that the file-system
    encoding cannot hold or that matches no file; a file that the list already
    matched, by the same or another path, compared by device and inode (its
    records would be read twice); and a file whose manifest line is missing or
    malformed (`read_manifest`, which reads the file's tail only). Returns
    each pattern's matches apart."""
    out: list[list[Path]] = [[] for _ in patterns]
    problems: list[tuple[int, str, int | None]] = []
    matched: dict[tuple[int, int], int] = {}  # (device, inode) -> the pattern that matched it
    base = Path(globmod.escape(str(base)))  # a directory such as run[1]/ is no pattern
    for j, pat in enumerate(patterns):
        try:
            os.fsencode(pat)
        except UnicodeEncodeError:  # e.g. an umlaut under an ASCII locale
            # !a: a console in that encoding cannot print the pattern as it is
            problems.append((j, f"{pat!a} cannot be encoded in the file-system encoding "
                                f"({sys.getfilesystemencoding()})", None))
            continue
        matches = sorted(m for m in globmod.glob(str(base / pat)) if Path(m).is_file())
        if not matches:
            problems.append((j, f"no files match {pat!r}", None))
        for p in map(Path, matches):
            st = p.stat()
            file = (st.st_dev, st.st_ino)
            if file in matched:
                problems.append((j, str(p), matched[file]))
                continue
            matched[file] = j
            try:
                read_manifest(p)
            except ShardFormatError as exc:
                problems.append((j, str(exc), None))
            out[j].append(p)
    if problems:
        raise PatternError(patterns, problems)
    return out


def _resolve_at(locs: list[str], lists: list[list[str]], base: Path,
                diags: list[str]) -> list[list[Path]]:
    """`resolve_paths` of each list of patterns, all resolved as one list, so a
    file that two lists name is a problem too. Problems go to `diags`, with
    pattern j of list i named locs[i][j]."""
    try:
        each = iter(resolve_each([pat for pats in lists for pat in pats], base))
    except PatternError as exc:
        diags += exc.diagnostics([f"{loc}[{j}]" for loc, pats in zip(locs, lists)
                                  for j in range(len(pats))])
        return [[] for _ in lists]
    return [[p for _ in pats for p in next(each)] for pats in lists]


def _load_json(path: Path, validator) -> tuple[object, list[str]]:
    """The JSON value in the file and its schema diagnostics."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return None, [f"$: cannot read {path}: {exc.strerror}"]
    except UnicodeDecodeError as exc:
        return None, [f"$: not UTF-8 text: {exc.reason} at byte {exc.start}"]
    except json.JSONDecodeError as exc:
        return None, [f"$: invalid JSON: {exc.msg} (line {exc.lineno})"]
    return obj, _schema_diagnostics(obj, validator)


def _dataset_diagnostics(loc: str, names: list[str], budget_tokens: int | None,
                         trim_source: str | None) -> list[str]:
    """The rules between a dataset's fields that the schema does not state."""
    diags = []
    if len(set(names)) != len(names):
        diags.append(f"{loc}.sources: source names must be unique")
    if trim_source is not None and trim_source not in names:
        diags.append(f"{loc}.trim_source: {trim_source!r} not among dataset sources")
    if (budget_tokens is None) != (trim_source is None):
        diags.append(f"{loc}: budget_tokens and trim_source must be set together")
    return diags


def parse_mix_spec(path: str | Path) -> dict:
    """The validated spec of `korpus mix --spec`, each source's `paths` resolved
    against the spec's directory; raises ConfigError naming each problem."""
    path = Path(path)
    obj, diags = _load_json(path, _MIX_SPEC_VALIDATOR)
    if not diags:
        diags = _dataset_diagnostics("$", [s["source"] for s in obj["sources"]],
                                     obj.get("budget_tokens"), obj.get("trim_source"))
        sources = obj["sources"]
        each = _resolve_at([f"$.sources[{i}].paths" for i in range(len(sources))],
                           [src["paths"] for src in sources], path.parent, diags)
        for src, paths in zip(sources, each):
            src["paths"] = paths
    if diags:
        raise ConfigError("; ".join(diags))
    return obj


def parse_config(path: str | Path) -> tuple[RunConfig | None, list[str]]:
    """Parse and validate; returns (config or None, diagnostics).

    Every raw input (source files, langid corpora, the KN reference) must have
    a well-formed manifest as its last line. Only that line is checked here; the
    records, counts and checksum are checked by the first stage that reads the
    file."""
    path = Path(path)
    obj, diags = _load_json(path, _VALIDATOR)
    if diags:
        return None, diags

    # The schema allows no other keys, so each object maps onto its dataclass.
    params = PipelineConfig(**obj.get("params", {}))
    sources = [
        SourceConfig(**{k: v for k, v in s.items() if k != "steps"}, **s.get("steps", {}))
        for s in obj["sources"]
    ]
    names = [s.name for s in sources]
    if len(set(names)) != len(names):
        diags.append("$.sources: source names must be unique")

    datasets = [DatasetConfig(**d) for d in obj["datasets"]]
    if len({ds.name for ds in datasets}) != len(datasets):
        diags.append("$.datasets: dataset names must be unique")
    for i, ds in enumerate(datasets):
        for srcname in ds.sources:
            if srcname not in names:
                diags.append(f"$.datasets[{i}].sources: unknown source {srcname!r}")
        diags += _dataset_diagnostics(f"$.datasets[{i}]", ds.sources, ds.budget_tokens,
                                      ds.trim_source)

    langid_cfg = obj.get("langid")
    if any(s.langid for s in sources) and langid_cfg is None:
        diags.append("$.langid: required because a source enables the langid step")
    if langid_cfg is not None and langid_cfg["target"] not in langid_cfg["train"]:
        diags.append("$.langid.target: target language missing from training corpora")

    quality_lm = obj.get("quality_lm")
    if any(s.quality_filter for s in sources) and quality_lm is None:
        diags.append("$.quality_lm: required because a source enables the quality_filter step")

    base = path.parent
    # The sources' lists are one list: a file of two sources would be read twice.
    source_files = dict(zip(names, _resolve_at(
        [f"$.sources[{i}].paths" for i in range(len(sources))], [s.paths for s in sources],
        base, diags)))
    langid_files, reference_files = {}, []
    if langid_cfg is not None:
        # One list too: a file of two languages would train under both labels.
        train = langid_cfg["train"]
        langid_files = dict(zip(train, _resolve_at(
            [f"$.langid.train.{lang}" for lang in train], list(train.values()), base, diags)))
    if quality_lm is not None:
        reference_files = _resolve_at(["$.quality_lm.reference"], [quality_lm["reference"]],
                                      base, diags)[0]

    if diags:
        return None, diags
    return RunConfig(
        params=params,
        sources=sources,
        datasets=datasets,
        langid_cfg=langid_cfg,
        quality_lm=quality_lm,
        translator=obj.get("translator"),
        source_files=source_files,
        langid_files=langid_files,
        reference_files=reference_files,
    ), []


def validate_config(path: str | Path) -> list[str]:
    """Empty list iff the config is runnable; diagnostics carry JSON paths."""
    _, diags = parse_config(path)
    return diags


def write_text(text: str, path: str | Path) -> None:
    """Write UTF-8 text atomically (see `core.atomic_write`)."""
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def write_json(payload, path: str | Path) -> None:
    write_text(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n", path)


def _given(settings: dict, *keys: str) -> dict:
    """The settings among `keys` that the config sets; the callee's defaults fill in the rest."""
    return {k: settings[k] for k in keys if k in settings}


# Checksums and the run key read files through this one reader, in blocks:
# a whole-file read raises the peak RSS by the size of the file. 1 MiB blocks
# raised the peak of a pipeline over sub-megabyte files by about 1 MB where
# 256 KiB did not.
_READ_BLOCK = 1 << 18


def _read_blocks(path: str | Path) -> Iterator[bytes]:
    with open(path, "rb") as fh:
        yield from iter(lambda: fh.read(_READ_BLOCK), b"")


def _checksum_file(path: Path, copy: BinaryIO | None = None) -> str:
    """The `b2:` blake2b checksum of the file's bytes (`fnv1a_bytes`, called through
    this module's binding); each block read is also written to `copy`, if given."""
    def blocks() -> Iterator[bytes]:
        for block in _read_blocks(path):
            if copy is not None:
                copy.write(block)
            yield block
    return fnv1a_bytes(blocks())


def _copy_checked(source: tuple[Path, str], path: Path) -> str:
    """Copy the file `source` names to `path`, unless its bytes no longer hash to
    the checksum its stage recorded: then IntegrityError, and nothing is written.
    Returns that checksum, which is also the copy's."""
    src, checksum = source
    with atomic_write(path) as fh:
        if _checksum_file(src, fh) != checksum:
            raise IntegrityError(
                f"{src} was modified after its stage recorded it; re-run with --force")
    return checksum


def _run_key(config: RunConfig, seed_override: int | None) -> str:
    """32-byte blake2b over the korpus version, the parsed config without its resolved file
    lists (their paths depend on where the config lives), the seed override and
    the bytes of every raw input file, in resolved order."""
    settings = {k: v for k, v in asdict(config).items()
                if k not in ("source_files", "langid_files", "reference_files")}
    key = blake2b(
        json.dumps([__version__, settings, seed_override], sort_keys=True).encode("utf-8"),
        digest_size=32)
    files = [p for paths in config.source_files.values() for p in paths]
    files += [p for paths in config.langid_files.values() for p in paths]
    for path in files + config.reference_files:
        digest = blake2b(digest_size=32)
        for block in _read_blocks(path):
            digest.update(block)
        key.update(digest.digest())
    return key.hexdigest()


class PipelineRun:
    """Stage executor bound to one config and workspace."""

    def __init__(self, config: RunConfig, workspace: str | Path,
                 force: bool = False, seed_override: int | None = None,
                 log=lambda msg: print(msg, file=sys.stderr)):
        self.cfg = config
        self.ws = Path(workspace)
        self.force = force
        self.log = log
        self.seed_override = seed_override
        self.key = _run_key(config, seed_override)
        self.state: dict[str, list[Path]] = dict(config.source_files)
        # The marker checksum of each source's shard that is a stage output.
        self.checksums: dict[str, str] = {}

    # -- marker bookkeeping ------------------------------------------------

    def _marker_path(self, stage: str) -> Path:
        return self.ws / "markers" / f"{stage}.json"

    def _cached_outputs(self, stage: str) -> dict[str, str] | None:
        """Output checksums of the stage if its marker carries this run's key; a
        marker that is not `{"key": str, "outputs": {str: str}}` counts as absent."""
        if self.force:
            return None
        try:  # ValueError: not JSON, or not UTF-8
            marker = json.loads(self._marker_path(stage).read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):
            return None
        if not (isinstance(marker, dict) and marker.get("key") == self.key
                and isinstance(outputs := marker.get("outputs"), dict)
                and all(isinstance(v, str) for v in outputs.values())):
            return None
        return outputs

    def _verify(self, stage: str, outputs: dict[str, str]) -> None:
        for rel, checksum in outputs.items():
            path = self.ws / rel
            if not path.is_file() or _checksum_file(path) != checksum:
                raise IntegrityError(
                    f"stage {stage} is marked complete but its output {rel} is missing "
                    f"or modified; re-run with --force"
                )

    def _finish_stage(self, stage: str, written: dict[Path, str | None]) -> dict[str, str]:
        """Write the stage's marker; returns the output checksums it records. An
        output whose writer returned no checksum is read back and hashed."""
        outputs = {
            str(p.relative_to(self.ws)): checksum or _checksum_file(p)
            for p, checksum in sorted(written.items())
        }
        write_json({"key": self.key, "outputs": outputs, "stage": stage},
                   self._marker_path(stage))
        return outputs

    # -- seeds ---------------------------------------------------------------

    def _mix_seed(self, dataset: DatasetConfig) -> int:
        if self.seed_override is not None:
            return self.seed_override
        if dataset.seed is not None:
            return dataset.seed
        return self.cfg.params.mix_seed

    # -- stages --------------------------------------------------------------

    def run(self, stop_after: str | None = None) -> dict:
        if stop_after is not None and stop_after not in STAGES:
            raise ConfigError(f"unknown stage {stop_after!r}")
        self.ws.mkdir(parents=True, exist_ok=True)
        for stage in STAGES:
            outputs = self._cached_outputs(stage)
            if outputs is not None:
                self.log(f"[pipeline] {stage}: cached")
                self._verify(stage, outputs)
            else:
                self.log(f"[pipeline] {stage}: running")
                try:
                    written = self._write_outputs(getattr(self, f"_stage_{stage}")())
                except KorpusError:
                    raise
                except Exception as exc:
                    raise StageError(f"stage {stage} failed: {exc}") from exc
                outputs = self._finish_stage(stage, written)
            for src in self.cfg.sources:
                rel = str(Path(stage, f"{src.name}.jsonl"))
                if rel in outputs:
                    self.state[src.name] = [self.ws / rel]
                    self.checksums[src.name] = outputs[rel]
            if stage == stop_after:
                self.log(f"[pipeline] stopped after {stage}")
                return {}
        return json.loads((self.ws / "report" / "summary.json").read_text(encoding="utf-8"))

    def _write_outputs(self, outputs: Outputs) -> dict[Path, str | None]:
        """Write each output a stage body yields, in order; returns each path with
        the checksum its last writer returned, if any. The last value written is
        freed on return, before the next stage runs."""
        written: dict[Path, str | None] = {}
        for rel, writer, value in outputs:
            path = self.ws / rel
            written[path] = writer(value, path)
        return written

    def _read_source(self, name: str) -> CorpusShard:
        return merge_shards([read_shard(p) for p in self.state[name]], source=name)

    def _stage_preprocess(self) -> Outputs:
        for src in self.cfg.sources:
            if src.preprocess:
                cleaned, stats = clean_shard(self._read_source(src.name), self.cfg.params.min_words)
                yield f"preprocess/{src.name}.jsonl", write_shard, cleaned
                yield f"preprocess/{src.name}.stats.json", write_json, asdict(stats)

    def _stage_langid(self) -> Outputs:
        cfg = self.cfg.langid_cfg
        flagged = [s for s in self.cfg.sources if s.langid]
        if not flagged:
            return
        corpora = {
            lang: merge_shards([read_shard(p) for p in paths], source=lang)
            for lang, paths in self.cfg.langid_files.items()
        }
        options = _given(cfg, "epochs", "seed", "feature_buckets")
        if self.seed_override is not None:
            options["seed"] = self.seed_override
        model = langid.train_langid(corpora, **options)
        yield "langid/model.bin", langid.save_model, model
        for src in flagged:
            yield f"langid/{src.name}.jsonl", write_shard, langid.filter_language(
                model, self._read_source(src.name), cfg["target"],
                self.cfg.params.langid_threshold,
            )

    def _dedup_groups(self) -> dict[str, list[str]]:
        """Dedup group -> its member sources, both in config order."""
        groups: dict[str, list[str]] = {}
        for src in self.cfg.sources:
            if src.dedup_group:
                groups.setdefault(src.dedup_group, []).append(src.name)
        return groups

    def _stage_dedup(self) -> Outputs:
        groups = self._dedup_groups()
        if not groups:
            return
        final, reports = dedup.staged_dedup(
            [(g, [self._read_source(name) for name in members]) for g, members in groups.items()],
            self.cfg.params.min_match_tokens,
            self.cfg.params.dedup_policy,
        )
        members = [name for names in groups.values() for name in names]
        for name, shard in zip(members, final):  # one shard per source, in stream order
            yield f"dedup/{name}.jsonl", write_shard, shard
        for rep in reports:
            yield f"dedup/report-{rep.stage}.json", write_text, report_mod.render(rep, "json")

    def _stage_qualfilter(self) -> Outputs:
        flagged = [s for s in self.cfg.sources if s.quality_filter]
        if not flagged:
            return
        model = qualfilter.train_ngram(
            [read_shard(p) for p in self.cfg.reference_files],
            order=self.cfg.params.ngram_order,
            **_given(self.cfg.quality_lm, "min_count"),
        )
        yield "qualfilter/model.arpa", qualfilter.write_arpa, model
        for src in flagged:
            kept, scores = qualfilter.filter_top_k(
                self._read_source(src.name), model, self.cfg.params.quality_top_k,
            )
            yield f"qualfilter/{src.name}.jsonl", write_shard, kept
            yield f"qualfilter/{src.name}.scores.json", write_json, [asdict(s) for s in scores]

    def _stage_chunk(self) -> Outputs:
        flagged = [s for s in self.cfg.sources if s.chunk_translate]
        if not flagged:
            return
        command = (self.cfg.translator or {}).get("command")
        translator = (chunker.SubprocessTranslator(command) if command
                      else chunker.identity_translator())
        budget = self.cfg.params.chunk_budget_tokens
        for src in flagged:
            results, translated, failures = chunker.translate_shard(
                self._read_source(src.name), budget, translator)
            yield f"chunk/{src.name}.chunks.jsonl", write_text, "".join(
                json.dumps(chunker.chunk_record(r.chunk), ensure_ascii=False) + "\n"
                for r in results)
            yield f"chunk/{src.name}.jsonl", write_shard, translated
            yield f"chunk/{src.name}.failures.json", write_json, failures

    def _stage_mix(self) -> Outputs:
        """A source whose shard is a stage output is copied, unless it is the
        dataset's trim source; see the module docstring."""
        domain = {s.name: s.domain for s in self.cfg.sources}
        for ds in self.cfg.datasets:
            shards, composition = mixer.assemble(
                [(name, domain[name], self.state[name]) for name in ds.sources],
                ds.budget_tokens, ds.trim_source, self._mix_seed(ds), unread=self.checksums,
            )
            for name, shard in zip(ds.sources, shards):
                rel = f"datasets/{ds.name}/{name}.jsonl"
                if isinstance(shard, mixer.PassThrough):
                    yield rel, _copy_checked, (self.state[name][0], self.checksums[name])
                else:
                    yield rel, write_shard, shard
            yield (f"datasets/{ds.name}/composition.json", write_text,
                   report_mod.render(composition, "json"))

    def _stage_report(self) -> Outputs:
        """Summarise what this config's stages wrote; other files in the
        workspace, left by an earlier config, are not read."""
        payload: dict = {"datasets": {}, "dedup": [], "preprocess": {}}
        md: list[str] = ["# Pipeline summary", ""]
        for src in self.cfg.sources:
            if src.preprocess:
                stats_path = self.ws / "preprocess" / f"{src.name}.stats.json"
                payload["preprocess"][src.name] = json.loads(
                    stats_path.read_text(encoding="utf-8"))
        groups = self._dedup_groups()
        if groups:
            md += ["## Deduplication", ""]
            # By file name, not group name: "report-a-b.json" sorts before "report-a.json".
            for name in sorted(f"report-{g}.json" for g in [*groups, dedup.COMBINED]):
                text = (self.ws / "dedup" / name).read_text(encoding="utf-8")
                payload["dedup"].append(json.loads(text))
                md.append(report_mod.render(report_mod.parse_report(text), "markdown"))
        for ds in self.cfg.datasets:
            text = (self.ws / "datasets" / ds.name / "composition.json").read_text(encoding="utf-8")
            payload["datasets"][ds.name] = json.loads(text)
            md += [f"## Dataset: {ds.name}", ""]
            md.append(report_mod.render(report_mod.parse_report(text), "markdown"))
        yield "report/summary.json", write_json, payload
        yield "report/summary.md", write_text, "\n".join(md) + "\n"


def run_pipeline(
    config_path: str | Path,
    workspace: str | Path,
    force: bool = False,
    stop_after: str | None = None,
    seed_override: int | None = None,
) -> dict:
    """Parse, validate, and execute; raises ConfigError on a bad config."""
    config, diags = parse_config(config_path)
    if config is None:
        raise ConfigError("; ".join(diags))
    run = PipelineRun(config, workspace, force=force, seed_override=seed_override)
    return run.run(stop_after=stop_after)
