"""korpus command line: one subcommand per pipeline stage plus the runner.

Input flags (--in, --lang, --group) take glob patterns relative to the working
directory, under a config's rule for a path list (`pipeline.resolve_paths`):
each pattern must match a file, its matches are read in sorted order, the
patterns of one list (--in, one --lang language, or all --group flags) may
not match one file twice, and each file must end in a manifest line.
`korpus pipeline --seed-override N` replaces every configured seed.

Exit codes: 0 success, 2 config error, 3 stage failure, 4 integrity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import chunker, dedup, langid, mixer, qualfilter, report as report_mod
from .core import PipelineConfig, merge_shards, read_shard, write_shard
from .errors import ConfigError, IntegrityError, KorpusError, ShardFormatError, StageError
from .pipeline import (
    _given, parse_mix_spec, resolve_each, resolve_paths, run_pipeline, validate_config,
    write_json, write_text,
)
from .preprocess import clean_shard


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_preprocess(args) -> int:
    shard = merge_shards([read_shard(p) for p in resolve_paths(args.inputs, Path())])
    cleaned, stats = clean_shard(shard, args.min_words)
    write_shard(cleaned, args.out)
    if args.stats:
        write_json(asdict(stats), args.stats)
    _log(f"[preprocess] kept {stats.output_docs}/{stats.input_docs} docs, "
         f"removed {stats.urls_removed} urls")
    return 0


def cmd_langid_train(args) -> int:
    patterns: dict[str, list[str]] = {}  # a repeated LANG adds files, as in a config's train.<lang>
    for spec in args.lang:
        lang, _, pattern = spec.partition("=")
        if not lang or not pattern:
            raise ConfigError(f"--lang expects LANG=GLOB, got {spec!r}")
        patterns.setdefault(lang, []).append(pattern)
    corpora = {lang: merge_shards([read_shard(p) for p in resolve_paths(pats, Path())], source=lang)
               for lang, pats in patterns.items()}
    model = langid.train_langid(corpora, **_given(vars(args), "epochs", "seed"))
    langid.save_model(model, args.model)
    documents = sum(shard.manifest.doc_count for shard in corpora.values())
    _log(f"[langid] trained on {sorted(corpora)} from {documents} documents")
    return 0


def cmd_langid_filter(args) -> int:
    model = langid.load_model(args.model)
    shard = merge_shards([read_shard(p) for p in resolve_paths(args.inputs, Path())])
    filtered = langid.filter_language(model, shard, args.target, args.threshold)
    write_shard(filtered, args.out)
    _log(f"[langid] kept {filtered.manifest.doc_count}/{shard.manifest.doc_count} docs")
    return 0


def cmd_dedup(args) -> int:
    names, patterns = [], []
    for spec in args.group:
        name, _, pattern = spec.partition("=")
        if not pattern:
            raise ConfigError(f"--group expects NAME=GLOB, got {spec!r}")
        names.append(name)
        patterns.append(pattern)
    # One list for all groups: a file in two groups would be read twice.
    stage_groups = [(name, [read_shard(p) for p in paths])
                    for name, paths in zip(names, resolve_each(patterns, Path()))]
    policy = args.policy.replace("-", "_")
    final, reports = dedup.staged_dedup(stage_groups, args.min_match, policy)
    outdir = Path(args.out_dir)  # created by the writes: there is always a combined report
    # One output file per surviving input shard, numbered in stream order.
    for i, shard in enumerate(final):
        write_shard(shard, outdir / f"shard-{i:04d}.jsonl")
    for rep in reports:
        write_text(report_mod.render(rep, "json"), outdir / f"report-{rep.stage}.json")
        _log(f"[dedup] stage {rep.stage}: {rep.duplicate_tokens}/{rep.input_tokens} "
             f"duplicate tokens, removed {rep.removed_docs} docs")
    return 0


def cmd_lm_train(args) -> int:
    reference = [read_shard(p) for p in resolve_paths(args.inputs, Path())]
    model = qualfilter.train_ngram(reference, order=args.order, **_given(vars(args), "min_count"))
    qualfilter.write_arpa(model, args.model)
    _log(f"[lm] trained order-{args.order} model over {len(model.vocab)} vocabulary entries")
    return 0


def cmd_lm_score(args) -> int:
    model = qualfilter.read_arpa(args.model)
    shard = merge_shards([read_shard(p) for p in resolve_paths(args.inputs, Path())])
    scores = [asdict(s) for s in qualfilter.score_shard(model, shard)]
    write_json(scores, args.out)
    _log(f"[lm] scored {len(scores)} documents")
    return 0


def cmd_quality_filter(args) -> int:
    model = qualfilter.read_arpa(args.model)
    shard = merge_shards([read_shard(p) for p in resolve_paths(args.inputs, Path())])
    kept, scores = qualfilter.filter_top_k(shard, model, args.top_k)
    write_shard(kept, args.out)
    if args.scores:
        write_json([asdict(s) for s in scores], args.scores)
    _log(f"[quality-filter] kept {kept.manifest.doc_count}/{shard.manifest.doc_count} docs")
    return 0


def cmd_chunk(args) -> int:
    shard = merge_shards([read_shard(p) for p in resolve_paths(args.inputs, Path())])
    translator = (chunker.SubprocessTranslator(args.translator_cmd) if args.translator_cmd
                  else chunker.identity_translator())
    results, _, _ = chunker.translate_shard(shard, args.budget, translator)
    lines = []
    for r in results:
        record = chunker.chunk_record(r.chunk)
        if args.translator_cmd:
            record["translation"] = r.text
            if r.error is not None:
                record["error"] = r.error
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    write_text("".join(lines), args.out)
    _log(f"[chunk] wrote {len(lines)} chunks at budget {args.budget}")
    return 0


def cmd_mix(args) -> int:
    spec = parse_mix_spec(args.spec)
    shards, composition = mixer.assemble(
        [(s["source"], s["domain"], s["paths"]) for s in spec["sources"]],
        **_given(spec, "budget_tokens", "trim_source", "seed"),
    )
    outdir = Path(args.out_dir)
    for src, shard in zip(spec["sources"], shards):
        write_shard(shard, outdir / f"{src['source']}.jsonl")
    if args.report:
        write_text(report_mod.render(composition, "json"), args.report)
    docs, tokens = composition.totals()
    _log(f"[mix] dataset {spec['name']}: {docs} docs, {tokens} tokens")
    return 0


def cmd_report(args) -> int:
    rendered = []
    for p in args.inputs:
        try:
            rep = report_mod.parse_report(Path(p).read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:  # UnicodeDecodeError is a ValueError
            raise ConfigError(f"{p}: not a readable report: {exc}") from exc
        rendered.append(report_mod.render(rep, args.format))
    sep = "\n" if args.format == "markdown" else ""
    sys.stdout.buffer.write(sep.join(rendered).encode("utf-8"))  # data, whatever the locale
    sys.stdout.buffer.flush()
    return 0


def cmd_pipeline(args) -> int:
    run_pipeline(
        args.config,
        args.workspace,
        force=args.force,
        stop_after=args.stop_after,
        seed_override=args.seed_override,
    )
    return 0


def cmd_validate(args) -> int:
    diags = validate_config(args.config)
    encoding = sys.stdout.encoding or "utf-8"
    for d in diags:  # in any console encoding: a name may hold any character
        print(d.encode(encoding, "backslashreplace").decode(encoding))
    if diags:
        raise ConfigError(f"{len(diags)} problem(s) found")
    _log("[validate] config is runnable")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="korpus", description=__doc__)
    defaults = PipelineConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean text and drop short documents")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-words", type=int, default=defaults.min_words)
    p.add_argument("--stats", default=None)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("langid", help="language identification")
    lid = p.add_subparsers(dest="subcommand", required=True)
    t = lid.add_parser("train")
    t.add_argument("--model", required=True)
    t.add_argument("--lang", action="append", required=True, metavar="LANG=GLOB")
    # Left out unless given, so the defaults of `train_langid` / `train_ngram` apply.
    t.add_argument("--epochs", type=int, default=argparse.SUPPRESS)
    t.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    t.set_defaults(fn=cmd_langid_train)
    f = lid.add_parser("filter")
    f.add_argument("--model", required=True)
    f.add_argument("--target", required=True)
    f.add_argument("--threshold", type=float, default=defaults.langid_threshold)
    f.add_argument("--in", dest="inputs", nargs="+", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(fn=cmd_langid_filter)

    p = sub.add_parser("dedup", help="exact-substring deduplication (reports: report-<stage>.json)")
    p.add_argument("--group", action="append", required=True, metavar="NAME=GLOB")
    p.add_argument("--min-match", type=int, default=defaults.min_match_tokens)
    p.add_argument("--policy", choices=["remove-all", "keep-first"],
                   default=defaults.dedup_policy.replace("_", "-"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("lm", help="n-gram language model")
    lm = p.add_subparsers(dest="subcommand", required=True)
    t = lm.add_parser("train")
    t.add_argument("--in", dest="inputs", nargs="+", required=True)
    t.add_argument("--model", required=True)
    t.add_argument("--order", type=int, default=defaults.ngram_order)
    t.add_argument("--min-count", type=int, default=argparse.SUPPRESS)
    t.set_defaults(fn=cmd_lm_train)
    s = lm.add_parser("score")
    s.add_argument("--model", required=True)
    s.add_argument("--in", dest="inputs", nargs="+", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_lm_score)

    p = sub.add_parser("quality-filter", help="keep the k lowest-perplexity documents")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--top-k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scores", default=None)
    p.set_defaults(fn=cmd_quality_filter)

    p = sub.add_parser("chunk", help="sentence-split and pack into token budgets")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--budget", type=int, default=defaults.chunk_budget_tokens)
    p.add_argument("--out", required=True)
    p.add_argument("--translator-cmd", default=None,
                   help="command speaking the line protocol (adds a translation field); "
                        "run by sh -c, with the chunks of many documents per call "
                        "(see SubprocessTranslator)")
    p.set_defaults(fn=cmd_chunk)

    p = sub.add_parser(
        "mix", help="assemble a dataset from a spec file",
        description="Assemble one dataset from a JSON spec: {\"name\": ..., \"sources\": "
                    "[{\"source\": ..., \"domain\": ..., \"paths\": [...]}, ...]} and optionally "
                    "\"budget_tokens\" and \"trim_source\" (set together) and \"seed\". "
                    "The spec follows the rules of a pipeline config's datasets[] entry. "
                    "Each entry of \"paths\" is a glob pattern that must match a file, "
                    "read in sorted order; a relative one resolves against the spec "
                    "file's directory.")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser("report", help="render stage reports")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--format", choices=["json", "markdown"], default="markdown")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("pipeline", help="run all stages from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workspace", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--stop-after", default=None,
                   help="halt after the named stage (for debugging and resume tests)")
    p.add_argument("--seed-override", type=int, default=None,
                   help="replace every configured seed")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("validate", help="check a pipeline config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ShardFormatError) as exc:
        _log(f"error: {exc}")
        return 2
    except IntegrityError as exc:
        _log(f"integrity error: {exc}")
        return 4
    except (KorpusError, OSError) as exc:
        _log(f"stage failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
