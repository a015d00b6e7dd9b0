import contextlib
import glob
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import korpus
from korpus import chunker, cli, core, dedup, langid, pipeline
from korpus.chunker import SubprocessTranslator, chunk_document, chunk_record, translate_shard
from korpus.cli import main
from korpus.core import merge_shards, read_shard, write_shard
from korpus.errors import ConfigError, IntegrityError
from korpus.pipeline import STAGES, load_schema, run_pipeline, validate_config

from conftest import (
    build_pipeline_fixture, de_sentence, de_text, en_sentence, make_doc,
    make_shard, med_sentence, workspace_digest, write_legacy_shard,
)
from oracles import oracle_checksum, oracle_translate_shard
from korpus.core import CorpusShard
import random


@pytest.fixture
def sample_inputs(tmp_path):
    rng = random.Random(3)
    long_texts = [de_text(rng, 3) for _ in range(6)]
    dirty = [t + " &amp; siehe https://example.de" for t in long_texts[:3]] + ["kurz"]
    write_shard(make_shard(dirty, source="raw", prefix="raw"), tmp_path / "raw.jsonl")
    write_shard(make_shard(long_texts, source="clean", prefix="clean"), tmp_path / "clean.jsonl")
    return tmp_path


class TestPreprocessCommand:
    def test_happy_path(self, sample_inputs):
        out = sample_inputs / "out.jsonl"
        stats = sample_inputs / "stats.json"
        rc = main(["preprocess", "--in", str(sample_inputs / "raw.jsonl"),
                   "--out", str(out), "--min-words", "20", "--stats", str(stats)])
        assert rc == 0
        shard = read_shard(out)
        assert shard.manifest.doc_count == 3  # "kurz" dropped
        payload = json.loads(stats.read_text())
        assert payload["dropped_short"] == 1 and payload["urls_removed"] == 3

    def test_missing_input_is_config_error(self, tmp_path):
        rc = main(["preprocess", "--in", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2


class TestLangidCommands:
    def test_train_then_filter(self, tmp_path):
        rng = random.Random(9)
        write_shard(make_shard([de_sentence(rng) for _ in range(120)], source="de", prefix="de"),
                    tmp_path / "de.jsonl")
        write_shard(make_shard([en_sentence(rng) for _ in range(120)], source="en", prefix="en"),
                    tmp_path / "en.jsonl")
        mixed = [make_doc(f"d{i}", de_sentence(rng), source="mix") for i in range(5)]
        mixed += [make_doc(f"e{i}", en_sentence(rng), source="mix") for i in range(5)]
        write_shard(CorpusShard.from_documents(mixed, source="mix"), tmp_path / "mix.jsonl")
        model = tmp_path / "lid.bin"
        assert main(["langid", "train", "--model", str(model),
                     "--lang", f"de={tmp_path/'de.jsonl'}",
                     "--lang", f"en={tmp_path/'en.jsonl'}",
                     "--epochs", "8", "--seed", "3"]) == 0
        out = tmp_path / "german.jsonl"
        assert main(["langid", "filter", "--model", str(model), "--target", "de",
                     "--threshold", "0.9", "--in", str(tmp_path / "mix.jsonl"),
                     "--out", str(out)]) == 0
        kept = read_shard(out)
        assert {d.id for d in kept.documents} == {f"d{i}" for i in range(5)}

    def test_bad_lang_spec(self, tmp_path):
        assert main(["langid", "train", "--model", str(tmp_path / "m.bin"),
                     "--lang", "nur-ein-name"]) == 2

    def test_repeated_lang_adds_its_files(self, tmp_path):
        """Like a config's train.<lang> list: every file given for a LANG trains it."""
        rng = random.Random(12)
        shards = {
            "de-a": make_shard([de_sentence(rng) for _ in range(20)], source="x", prefix="da"),
            "en": make_shard([en_sentence(rng) for _ in range(20)], source="x", prefix="en"),
            "de-c": make_shard([de_sentence(rng) for _ in range(20)], source="x", prefix="dc"),
        }
        for name, shard in shards.items():
            write_shard(shard, tmp_path / f"{name}.jsonl")
        model = tmp_path / "lid.bin"
        assert main(["langid", "train", "--model", str(model),
                     "--lang", f"de={tmp_path / 'de-a.jsonl'}",
                     "--lang", f"en={tmp_path / 'en.jsonl'}",
                     "--lang", f"de={tmp_path / 'de-c.jsonl'}",
                     "--epochs", "2", "--seed", "4"]) == 0
        want = langid.train_langid(
            {"de": core.merge_shards([shards["de-a"], shards["de-c"]], source="de"),
             "en": shards["en"]},
            epochs=2, seed=4,
        )
        got = langid.load_model(model)
        assert got.labels == ("de", "en")
        assert got.columns.tolist() == want.columns.tolist()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()

    @pytest.mark.parametrize("spec", ["={shard}", "de="], ids=["empty-lang", "empty-pattern"])
    def test_empty_lang_or_pattern_rejected_before_reading(self, tmp_path, monkeypatch, spec):
        shard = tmp_path / "s.jsonl"
        write_shard(make_shard(["hallo welt"], source="s"), shard)
        monkeypatch.setattr("korpus.cli.read_shard", lambda path: pytest.fail(f"read {path}"))
        assert main(["langid", "train", "--model", str(tmp_path / "m.bin"),
                     "--lang", f"de={shard}", "--lang", f"en={shard}",
                     "--lang", spec.format(shard=shard)]) == 2
        assert not (tmp_path / "m.bin").exists()


class TestDedupCommand:
    def test_groups_and_report(self, tmp_path, rng):
        passage = de_text(rng, 4)
        gc4 = make_shard([de_text(rng, 3), passage + " " + de_text(rng, 1)],
                         source="gc4", prefix="gc4")
        news = make_shard([de_text(rng, 2) + " " + passage], source="news", prefix="news")
        write_shard(gc4, tmp_path / "gc4.jsonl")
        write_shard(news, tmp_path / "news.jsonl")
        outdir = tmp_path / "out"
        rc = main(["dedup", "--group", f"gc4={tmp_path/'gc4.jsonl'}",
                   "--group", f"news={tmp_path/'news.jsonl'}",
                   "--min-match", "30", "--policy", "remove-all",
                   "--out-dir", str(outdir)])
        assert rc == 0
        # One report per stage, under the names the pipeline runner uses.
        reports = [json.loads((outdir / f"report-{stage}.json").read_text())
                   for stage in ("gc4", "news", "combined")]
        assert [r["stage"] for r in reports] == ["gc4", "news", "combined"]
        assert reports[2]["removed_docs"] == 2
        survivors = [read_shard(p) for p in sorted(outdir.glob("*.jsonl"))]
        assert sum(s.manifest.doc_count for s in survivors) == 1


class TestLmCommands:
    def test_train_score_filter(self, tmp_path):
        rng = random.Random(13)
        write_shard(make_shard([med_sentence(rng) for _ in range(80)], source="ref", prefix="ref"),
                    tmp_path / "ref.jsonl")
        candidates = [make_doc(f"med-{i}", med_sentence(rng), source="c", domain="medical")
                      for i in range(4)]
        candidates += [make_doc(f"gen-{i}", de_sentence(rng), source="c") for i in range(4)]
        write_shard(CorpusShard.from_documents(candidates, source="c"), tmp_path / "cand.jsonl")
        model = tmp_path / "lm.arpa"
        assert main(["lm", "train", "--in", str(tmp_path / "ref.jsonl"),
                     "--model", str(model), "--order", "3", "--min-count", "1"]) == 0
        assert model.exists()
        scores_path = tmp_path / "scores.json"
        assert main(["lm", "score", "--model", str(model),
                     "--in", str(tmp_path / "cand.jsonl"), "--out", str(scores_path)]) == 0
        scores = json.loads(scores_path.read_text())
        assert len(scores) == 8 and all(s["perplexity"] >= 1.0 for s in scores)
        out = tmp_path / "best.jsonl"
        side = tmp_path / "side.json"
        assert main(["quality-filter", "--model", str(model),
                     "--in", str(tmp_path / "cand.jsonl"), "--top-k", "4",
                     "--out", str(out), "--scores", str(side)]) == 0
        kept = read_shard(out)
        assert {d.id for d in kept.documents} == {f"med-{i}" for i in range(4)}


class TestChunkCommand:
    def test_chunk_jsonl_schema(self, tmp_path, rng):
        write_shard(make_shard([de_text(rng, 6)], source="s", prefix="s"),
                    tmp_path / "in.jsonl")
        out = tmp_path / "chunks.jsonl"
        assert main(["chunk", "--in", str(tmp_path / "in.jsonl"),
                     "--budget", "24", "--out", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records
        for r in records:
            assert set(r) == {"doc_id", "index", "text", "token_count", "oversized"}
            if not r["oversized"]:
                assert r["token_count"] <= 24

    def test_translator_cmd_adds_translation(self, tmp_path, rng):
        write_shard(make_shard([de_text(rng, 2)], source="s", prefix="s"),
                    tmp_path / "in.jsonl")
        out = tmp_path / "chunks.jsonl"
        cmd = f"{sys.executable} -c \"import sys; sys.stdout.write(sys.stdin.read())\""
        assert main(["chunk", "--in", str(tmp_path / "in.jsonl"),
                     "--budget", "32", "--out", str(out), "--translator-cmd", cmd]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(r["translation"] == r["text"] for r in records)

    @pytest.mark.skipif(shutil.which("cat") is None, reason="no cat")
    def test_translator_text_is_utf8_under_an_ascii_locale(self, tmp_path, rng):
        """Umlauts reach the translator and come back whatever the locale's encoding."""
        write_shard(make_shard([de_text(rng, 2) + " Grüße aus Köln."], source="s", prefix="s"),
                    tmp_path / "in.jsonl")
        out = tmp_path / "chunks.jsonl"
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(korpus.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "korpus.cli", "chunk", "--in", str(tmp_path / "in.jsonl"),
             "--budget", "32", "--out", str(out), "--translator-cmd", "cat"],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert any("ö" in r["text"] for r in records)
        assert all(r["translation"] == r["text"] and "error" not in r for r in records)


def _python_command(code: str) -> str:
    return " ".join(shlex.quote(a) for a in [sys.executable, "-c", code])


# Echoes its input unless a document carries the marker, then exits nonzero.
_FAIL_ON_MARKER = _python_command(
    "import sys; t = sys.stdin.read(); sys.exit(5) if 'KAPUTT' in t else sys.stdout.write(t)")
# Translators that fail a whole call whose input holds the marker, whichever
# of the call's documents carries it.
_FAIL_ON_MARKER_IN_CALL = {
    "drops-last-line": _python_command(
        "import sys; t = sys.stdin.read(); "
        "sys.stdout.write(t[:t.rstrip('\\n').rfind('\\n') + 1] if 'KAPUTT' in t else t)"),
    "carriage-return": _python_command(
        "import sys; sys.stdout.write(sys.stdin.read().replace('KAPUTT', 'KA\\rPUTT'))"),
    "exits-5": _FAIL_ON_MARKER,
}


def _count_translator_calls(monkeypatch) -> list[int]:
    """Records the number of texts of each `SubprocessTranslator.translate_many` call."""
    calls = []
    real = SubprocessTranslator.translate_many

    def counted(self, texts):
        calls.append(len(texts))
        return real(self, texts)

    monkeypatch.setattr(SubprocessTranslator, "translate_many", counted)
    return calls


def _notes_workspace(tmp_path, translator: str | None):
    """A config whose one source only runs the chunk step; returns (config, input shard)."""
    rng = random.Random(5)
    texts = [" ".join(med_sentence(rng) for _ in range(4)) for _ in range(5)]
    texts[2] = "Die KAPUTT Notiz. " + texts[2]
    (tmp_path / "inputs").mkdir()
    shard = make_shard(texts, source="notes", domain="medical", prefix="notes")
    write_shard(shard, tmp_path / "inputs" / "notes.jsonl")
    config = {
        "params": {"chunk_budget_tokens": 12},
        "sources": [{"name": "notes", "domain": "medical", "paths": ["inputs/notes.jsonl"],
                     "steps": {"chunk_translate": True}}],
        "datasets": [{"name": "mini", "sources": ["notes"]}],
    }
    if translator is not None:
        config["translator"] = {"command": translator}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return cfg, shard


class TestChunkTranslationFailures:
    def test_failed_document_dropped_and_listed(self, tmp_path):
        cfg, shard = _notes_workspace(tmp_path, _FAIL_ON_MARKER)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(ws)]) == 0
        chunks = {d.id: chunk_document(d, 12) for d in shard.documents}
        assert len(chunks["notes-2"]) > 1

        failures = json.loads((ws / "chunk" / "notes.failures.json").read_text())
        assert [f["doc_id"] for f in failures] == ["notes-2"]
        assert [e["index"] for e in failures[0]["errors"]] == list(range(len(chunks["notes-2"])))
        assert all("exited 5" in e["error"] for e in failures[0]["errors"])

        kept = read_shard(ws / "chunk" / "notes.jsonl")
        assert [(d.id, d.text) for d in kept.documents] == [
            (d.id, " ".join(d.text.split())) for d in shard.documents if d.id != "notes-2"]

        listed = [json.loads(l) for l in (ws / "chunk" / "notes.chunks.jsonl").read_text().splitlines()]
        assert listed == [chunk_record(c) for doc_chunks in chunks.values() for c in doc_chunks]

        out = tmp_path / "cli.jsonl"
        assert main(["chunk", "--in", str(tmp_path / "inputs" / "notes.jsonl"), "--budget", "12",
                     "--out", str(out), "--translator-cmd", _FAIL_ON_MARKER]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [(r["doc_id"], r["index"]) for r in records] == \
            [(r["doc_id"], r["index"]) for r in listed]
        for r in records:
            if r["doc_id"] == "notes-2":
                assert r["translation"] is None and "exited 5" in r["error"]
            else:
                assert r["translation"] == r["text"] and "error" not in r

    def test_carriage_return_in_output_is_a_recorded_failure(self, tmp_path):
        """A "\r" ends a line, so the marked document's call has a line too many."""
        split = " ".join(shlex.quote(a) for a in [sys.executable, "-c", (
            "import sys; sys.stdout.write(sys.stdin.read().replace('KAPUTT', 'KA\\rPUTT'))")])
        cfg, shard = _notes_workspace(tmp_path, split)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(ws)]) == 0
        n = len(chunk_document(shard.documents[2], 12))
        failures = json.loads((ws / "chunk" / "notes.failures.json").read_text())
        assert failures == [{"doc_id": "notes-2", "errors": [
            {"index": i, "error": f"translator wrote {n + 1} lines for {n} texts"}
            for i in range(n)]}]
        kept = read_shard(ws / "chunk" / "notes.jsonl")
        assert [d.id for d in kept.documents] == [d.id for d in shard.documents if d.id != "notes-2"]

    @pytest.mark.parametrize("name", sorted(_FAIL_ON_MARKER_IN_CALL))
    def test_failing_batch_is_translated_one_document_at_a_time(self, tmp_path, monkeypatch,
                                                                name):
        """The notes source, four clean documents and one marked one, is one
        batch. Its call fails, so each document gets a call of its own, and
        the outputs are those of one call per document. A clean batch and a
        failing batch of one document take one call each."""
        command = _FAIL_ON_MARKER_IN_CALL[name]
        cfg, shard = _notes_workspace(tmp_path, command)
        calls = _count_translator_calls(monkeypatch)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(ws)]) == 0
        assert len(calls) == 1 + len(shard.documents)

        translator = SubprocessTranslator(command)
        results, kept, failures = oracle_translate_shard(shard, 12, translator)
        assert [f["doc_id"] for f in failures] == ["notes-2"]
        assert json.loads((ws / "chunk" / "notes.failures.json").read_text()) == failures
        assert read_shard(ws / "chunk" / "notes.jsonl") == kept
        assert (ws / "chunk" / "notes.chunks.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps(chunk_record(r.chunk), ensure_ascii=False) + "\n" for r in results)

        clean = CorpusShard.from_documents(
            [d for d in shard.documents if d.id != "notes-2"], source="notes")
        calls.clear()
        got = translate_shard(clean, 12, translator)
        assert len(calls) == 1 and got[2] == []
        assert got == oracle_translate_shard(clean, 12, translator)
        marked = CorpusShard.from_documents([shard.documents[2]], source="notes")
        calls.clear()
        assert translate_shard(marked, 12, translator)[2] == failures
        assert len(calls) == 1

    def test_non_utf8_translator_output_is_a_recorded_failure(self, tmp_path):
        garbage = " ".join(shlex.quote(a) for a in [sys.executable, "-c", (
            "import sys; sys.stdin.buffer.read(); sys.stdout.buffer.write(b'\\xff\\xfe\\n')")])
        cfg, shard = _notes_workspace(tmp_path, garbage)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(ws)]) == 0
        failures = json.loads((ws / "chunk" / "notes.failures.json").read_text())
        assert [f["doc_id"] for f in failures] == [d.id for d in shard.documents]
        assert all("not UTF-8" in e["error"] for f in failures for e in f["errors"])
        assert not read_shard(ws / "chunk" / "notes.jsonl").documents

    @pytest.mark.skipif(shutil.which("cat") is None, reason="no cat")
    def test_one_translator_call_per_source(self, tmp_path, monkeypatch):
        """The whole notes source fits one batch, so it takes one translator
        call, and leaves the workspace of a run where every document is a
        batch of its own."""
        cfg, shard = _notes_workspace(tmp_path, "cat")
        calls = _count_translator_calls(monkeypatch)
        batched, alone = tmp_path / "batched", tmp_path / "alone"
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(batched)]) == 0
        assert calls == [sum(len(chunk_document(d, 12)) for d in shard.documents)]
        calls.clear()
        monkeypatch.setattr(chunker, "_TRANSLATE_BATCH_CHARS", 1)
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(alone)]) == 0
        assert len(calls) == len(shard.documents)
        assert workspace_digest(batched) == workspace_digest(alone)

    @pytest.mark.skipif(shutil.which("cat") is None, reason="no cat")
    def test_plain_piped_and_script_commands_leave_the_same_workspace(self, tmp_path):
        """`cat`, `cat | cat` and a script with no `#!` line, each run through
        sh, leave workspaces that agree byte for byte except for the run key
        in the markers, which hashes the configured command."""
        def run(name, command):
            (tmp_path / name).mkdir()
            cfg, _ = _notes_workspace(tmp_path / name, command)
            ws = tmp_path / name / "ws"
            assert main(["pipeline", "--config", str(cfg), "--workspace", str(ws)]) == 0
            markers = {}
            for p in sorted((ws / "markers").glob("*.json")):
                markers[p.name] = json.loads(p.read_text(encoding="utf-8"))
                del markers[p.name]["key"]
            digest = {k: v for k, v in workspace_digest(ws).items() if not k.startswith("markers")}
            return digest, markers

        script = tmp_path / "translate"
        script.write_text("cat\n", encoding="utf-8")
        script.chmod(0o755)
        direct, shell = run("direct", "cat"), run("shell", "cat | cat")
        assert direct == shell == run("script", str(script))
        assert "chunk/notes.jsonl" in direct[0]

    def test_cli_chunk_writes_the_runner_listing(self, tmp_path):
        cfg, _ = _notes_workspace(tmp_path, None)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(ws)]) == 0
        out = tmp_path / "cli.jsonl"
        assert main(["chunk", "--in", str(tmp_path / "inputs" / "notes.jsonl"), "--budget", "12",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (ws / "chunk" / "notes.chunks.jsonl").read_bytes()


class TestMixCommand:
    def test_spec_file(self, tmp_path, rng):
        shard = make_shard([de_text(rng, 2) for _ in range(6)], source="gc4", prefix="gc4")
        write_shard(shard, tmp_path / "gc4.jsonl")
        spec = {
            "name": "mini",
            "sources": [{"source": "gc4", "domain": "formal",
                         "paths": [str(tmp_path / "gc4.jsonl")]}],
            "budget_tokens": None, "trim_source": None, "seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        outdir = tmp_path / "ds"
        report = tmp_path / "comp.json"
        assert main(["mix", "--spec", str(spec_path), "--out-dir", str(outdir),
                     "--report", str(report)]) == 0
        assert read_shard(outdir / "gc4.jsonl").manifest.doc_count == 6
        payload = json.loads(report.read_text())
        assert payload["type"] == "composition"

    def test_repeated_document_id_across_paths_exits_4(self, tmp_path, capsys):
        for name in ("a", "b"):
            write_shard(make_shard([f"{name} eins zwei"], source="s", prefix="x"),
                        tmp_path / f"{name}.jsonl")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"name": "mini", "sources": [
            {"source": "s", "domain": "formal", "paths": ["a.jsonl", "b.jsonl"]}]}),
            encoding="utf-8")
        outdir = tmp_path / "ds"
        assert main(["mix", "--spec", str(spec_path), "--out-dir", str(outdir)]) == 4
        assert capsys.readouterr().err == (
            "integrity error: duplicate document id 'x-0' in source 's'\n")
        assert not outdir.exists()

    def test_file_named_by_two_sources_exits_2(self, tmp_path, capsys):
        """As in a config, the sources' path lists are one list: the file's
        documents would be mixed twice."""
        write_shard(make_shard(["eins zwei"], source="s", prefix="x"), tmp_path / "a.jsonl")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"name": "mini", "sources": [
            {"source": "s", "domain": "formal", "paths": ["a.jsonl"]},
            {"source": "t", "domain": "formal", "paths": ["*.jsonl"]}]}), encoding="utf-8")
        outdir = tmp_path / "ds"
        assert main(["mix", "--spec", str(spec_path), "--out-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: $.sources[1].paths[0]: {tmp_path / 'a.jsonl'} is a file that "
            "$.sources[0].paths[0] already matched\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("change,expected", [
        ({"seed": 3.7}, "$.seed: 3.7 is not of type 'integer'"),
        ({"seed": "3"}, "$.seed: '3' is not of type 'integer'"),
        ({"seed": -1}, "$.seed: -1 is less than the minimum of 0"),
        ({"budget_tokens": 10}, "$: budget_tokens and trim_source must be set together"),
        ({"trim_source": "gc4"}, "$: budget_tokens and trim_source must be set together"),
        ({"budget_tokens": 10.5, "trim_source": "gc4"}, "$.budget_tokens: 10.5 is not of type"),
        ({"budget_token": 10}, "$: Unevaluated properties are not allowed ('budget_token'"),
        ({"sources": [("gc4", "bogus")]}, "$.sources[0].domain: 'bogus' is not one of"),
        ({"sources": [("gc4", "formal")] * 2}, "$.sources: source names must be unique"),
    ], ids=["float-seed", "string-seed", "negative-seed", "budget-without-trim",
            "trim-without-budget", "float-budget", "unknown-key", "bogus-domain",
            "duplicate-source"])
    def test_malformed_spec_exits_2(self, tmp_path, rng, capsys, change, expected):
        """A spec follows the rules of a config's datasets[] entry."""
        write_shard(make_shard([de_text(rng, 2) for _ in range(3)], source="gc4", prefix="gc4"),
                    tmp_path / "gc4.jsonl")
        spec = {"name": "mini", "sources": [("gc4", "formal")], **change}
        spec["sources"] = [{"source": name, "domain": domain, "paths": [str(tmp_path / "gc4.jsonl")]}
                           for name, domain in spec["sources"]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        outdir = tmp_path / "ds"
        assert main(["mix", "--spec", str(spec_path), "--out-dir", str(outdir)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {expected}"), line
        assert not outdir.exists()


class TestReportCommand:
    def test_markdown_output(self, tmp_path, capsys):
        report = {"type": "dedup", "input_tokens": 100, "duplicate_tokens": 40,
                  "removed_docs": 1, "removed_tokens": 50, "spans": 2, "stage": "gc4"}
        p = tmp_path / "r.json"
        p.write_text(json.dumps(report), encoding="utf-8")
        assert main(["report", "--in", str(p), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| duplicate ratio | 0.4000 |" in out

    @pytest.mark.parametrize("fmt,expected", [
        ("markdown", "| stage | grüße |\n|---|---:|\n| input tokens | 100 |\n"
                     "| input tokens (B) | 0.0 |\n| duplicate tokens | 40 |\n"
                     "| duplicate tokens (B) | 0.0 |\n| duplicate ratio | 0.4000 |\n"
                     "| merged spans | 2 |\n| removed documents | 1 |\n| removed tokens | 50 |\n"),
        ("json", '{\n  "duplicate_tokens": 40,\n  "input_tokens": 100,\n  "removed_docs": 1,\n'
                 '  "removed_tokens": 50,\n  "spans": 2,\n  "stage": "grüße",\n'
                 '  "type": "dedup"\n}\n'),
    ], ids=["markdown", "json"])
    def test_non_ascii_report_under_an_ascii_locale(self, tmp_path, fmt, expected):
        """A report is data: it is written as UTF-8 whatever the console's encoding."""
        report = {"type": "dedup", "input_tokens": 100, "duplicate_tokens": 40,
                  "removed_docs": 1, "removed_tokens": 50, "spans": 2, "stage": "grüße"}
        p = tmp_path / "r.json"
        p.write_text(json.dumps(report), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(korpus.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "korpus.cli", "report", "--in", str(p), "--format", fmt],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected.encode("utf-8")


class TestValidateCommand:
    def test_valid_fixture(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        assert validate_config(config) == []
        assert main(["validate", "--config", str(config)]) == 0

    def test_min_match_too_small(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["params"]["min_match_tokens"] = 1
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "$.params.min_match_tokens:" in capsys.readouterr().out

    def test_threshold_out_of_range(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["params"]["langid_threshold"] = 1.5
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "$.params.langid_threshold:" in capsys.readouterr().out

    def test_langid_learning_rate_rejected(self, tmp_path, capsys):
        """Version 0.1.0 took a langid learning rate; such a config now fails loudly."""
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["langid"]["learning_rate"] = 1.0
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert ("$.langid: Additional properties are not allowed ('learning_rate' was unexpected)"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("buckets,diagnostics", [
        (2**31 - 1, []),
        (2**31, ["$.langid.feature_buckets: 2147483648 is greater than the maximum of "
                 "2147483647"]),
        (2**62, ["$.langid.feature_buckets: 4611686018427387904 is greater than the maximum "
                 "of 2147483647"]),
    ])
    def test_feature_buckets_bounded_by_the_column_map(self, tmp_path, buckets, diagnostics):
        """The model maps buckets to columns in int32; validate trains nothing."""
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["langid"]["feature_buckets"] = buckets
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert validate_config(config) == diagnostics

    def test_bucket_bound_is_the_models(self):
        schema = load_schema()["properties"]["langid"]["properties"]["feature_buckets"]
        assert schema["maximum"] == langid.MAX_BUCKETS

    def test_empty_langid_label_rejected(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["langid"]["train"][""] = obj["langid"]["train"].pop("en")
        config.write_text(json.dumps(obj), encoding="utf-8")
        diags = validate_config(config)
        assert len(diags) == 1 and diags[0].startswith("$.langid.train:"), diags

    @pytest.mark.parametrize("content,diagnostic", [
        (None, "$: cannot read {path}: "),
        (b'\xff{"sources": []}', "$: not UTF-8 text: invalid start byte at byte 0"),
        (b'{"sources": ', "$: invalid JSON: Expecting value (line 1)"),
    ], ids=["missing", "not-utf8", "invalid-json"])
    def test_unreadable_config(self, tmp_path, capsys, content, diagnostic):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out.startswith(diagnostic.format(path=path)) and out.count("\n") == 1, out
        assert err == "error: 1 problem(s) found\n"

    @pytest.mark.parametrize("field,value", [
        ("min_words", -1),
        ("ngram_order", 0),
        ("quality_top_k", 0),
        ("quality_top_k", 5.0),  # integral, but not a JSON integer
        ("chunk_budget_tokens", 0),
        ("mix_seed", -1),
        ("dedup_policy", "drop_everything"),
    ])
    def test_param_rejected(self, tmp_path, capsys, field, value):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["params"][field] = value
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert f"$.params.{field}:" in capsys.readouterr().out

    @pytest.mark.parametrize("edit,expected", [
        (lambda obj: obj["sources"][1].update(name=obj["sources"][0]["name"]),
         "$.sources: source names must be unique"),
        (lambda obj: obj.pop("langid"),
         "$.langid: required because a source enables the langid step"),
        (lambda obj: obj["langid"].update(target="fr"),
         "$.langid.target: target language missing from training corpora"),
        (lambda obj: obj.pop("quality_lm"),
         "$.quality_lm: required because a source enables the quality_filter step"),
    ], ids=["duplicate-source", "no-langid", "target-untrained", "no-quality-lm"])
    def test_cross_section_rule_rejected(self, tmp_path, capsys, edit, expected):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        edit(obj)
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert expected in capsys.readouterr().out.splitlines()

    def test_dedup_group_named_combined(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["sources"][1]["dedup_group"] = "combined"
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "$.sources[1].dedup_group:" in capsys.readouterr().out

    def test_unknown_key_named(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["unbekannt"] = True
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "unbekannt" in capsys.readouterr().out

    def test_duplicate_dataset_source(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["datasets"][0]["sources"] = ["gc4", "gc4"]
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "$.datasets[0].sources:" in capsys.readouterr().out

    def test_duplicate_dataset_name(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["datasets"][1]["name"] = obj["datasets"][0]["name"]
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().out == "$.datasets: dataset names must be unique\n"

    def test_unknown_dataset_source(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["datasets"][0]["sources"].append("phantom")
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "phantom" in capsys.readouterr().out


class TestFileSafeNames:
    """Source, group and dataset names become file names, so each matches
    `$defs/name`: no path separator and no dot."""

    @pytest.mark.parametrize("name", ["../x", "a/b", "x.chunks"])
    @pytest.mark.parametrize("where,loc", [
        ("name", "$.sources[1].name:"),
        ("dedup_group", "$.sources[1].dedup_group:"),
        ("dataset", "$.datasets[0].name:"),
    ])
    def test_config_name_rejected(self, tmp_path, capsys, where, loc, name):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        if where == "dataset":
            obj["datasets"][0]["name"] = name
        else:
            obj["sources"][1][where] = name
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert loc in capsys.readouterr().out
        assert main(["pipeline", "--config", str(config),
                     "--workspace", str(tmp_path / "ws")]) == 2
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("name", ["../x", "a/b", "x.chunks"])
    def test_mix_spec_source_rejected(self, tmp_path, rng, capsys, name):
        write_shard(make_shard([de_text(rng, 2)], source="gc4", prefix="gc4"),
                    tmp_path / "gc4.jsonl")
        spec = {"name": "mini",
                "sources": [{"source": name, "domain": "formal", "paths": ["gc4.jsonl"]}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        outdir = tmp_path / "ds" / "out"
        assert main(["mix", "--spec", str(spec_path), "--out-dir", str(outdir)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: $.sources[0].source:"), line
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("name", ["../x", "a/b", "x.chunks"])
    def test_dedup_group_rejected(self, tmp_path, rng, capsys, name):
        write_shard(make_shard([de_text(rng, 2)], source="gc4", prefix="gc4"),
                    tmp_path / "gc4.jsonl")
        outdir = tmp_path / "dd" / "out"
        assert main(["dedup", "--group", f"{name}={tmp_path / 'gc4.jsonl'}",
                     "--out-dir", str(outdir)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: stage group name {name!r}"), line
        assert not (tmp_path / "dd").exists()

    def test_dedup_checks_the_schema_pattern(self):
        assert dedup.NAME_PATTERN == load_schema()["$defs"]["name"]["pattern"]

    def test_trailing_newline_rejected_by_schema(self, tmp_path, capsys):
        # Python's `$` matches before a final newline; the pattern's end anchor must not.
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text())
        obj["sources"][1]["name"] = "gc4\n"
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "$.sources[1].name:" in capsys.readouterr().out

    def test_trailing_newline_rejected_by_staged_dedup(self, rng):
        shard = make_shard([de_text(rng, 2)], source="gc4", prefix="gc4")
        with pytest.raises(ConfigError, match="stage group name 'gc4\\\\n' does not match"):
            dedup.staged_dedup([("gc4\n", [shard])], 50, "keep_first")


@pytest.fixture
def lm_inputs(tmp_path):
    """A shard of German prose and an ARPA model trained on it."""
    rng = random.Random(5)
    shard = tmp_path / "de.jsonl"
    write_shard(make_shard([de_text(rng, 3) for _ in range(6)], source="de", prefix="de"), shard)
    model = tmp_path / "lm.arpa"
    assert main(["lm", "train", "--in", str(shard), "--model", str(model), "--order", "3"]) == 0
    return shard, model


LANGID_TRAIN = ["langid", "train", "--model", "{out}/m.bin", "--lang", "de={shard}",
                "--lang", "en={shard}"]


class TestArgumentErrors:
    """Out-of-range arguments and unreadable inputs are config errors: exit 2
    and a one-line message."""

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--in", "{shard}", "--out", "{out}/o.jsonl", "--min-words", "-1"],
        ["chunk", "--in", "{shard}", "--out", "{out}/o.jsonl", "--budget", "0"],
        ["dedup", "--group", "a={shard}", "--out-dir", "{out}", "--min-match", "1"],
        ["dedup", "--group", "a={shard}", "--group", "a={shard}", "--out-dir", "{out}"],
        ["dedup", "--group", "combined={shard}", "--out-dir", "{out}"],
        ["quality-filter", "--model", "{model}", "--in", "{shard}", "--out", "{out}/o.jsonl",
         "--top-k", "-1"],
        ["quality-filter", "--model", "{model}", "--in", "{shard}", "--out", "{out}/o.jsonl",
         "--top-k", "0"],
        ["chunk", "--in", "{empty}", "--out", "{out}/o.jsonl", "--budget", "0"],
        ["dedup", "--group", "a={empty}", "--out-dir", "{out}", "--min-match", "1"],
        [*LANGID_TRAIN, "--epochs", "-3"],
        [*LANGID_TRAIN, "--epochs", "0"],
        [*LANGID_TRAIN, "--seed", "-1"],
        ["preprocess", "--in", "{latin1}", "--out", "{out}/o.jsonl"],
        ["validate", "--config", "{latin1}"],
        ["mix", "--spec", "{latin1}", "--out-dir", "{out}"],
        ["validate", "--config", "{out}/missing.json"],
        ["lm", "score", "--model", "{bad_arpa}", "--in", "{shard}", "--out", "{out}/s.json"],
        ["langid", "filter", "--model", "{bad_lid}", "--target", "de", "--in", "{shard}",
         "--out", "{out}/o.jsonl"],
        ["report", "--in", "{out}/missing.json"],
        ["report", "--in", "{latin1}"],
        ["report", "--in", "{model}"],
        ["report", "--in", "{report_list}"],
        ["report", "--in", "{report_bogus}"],
        ["report", "--in", "{report_dedup}"],
        ["report", "--in", "{report_composition}"],
        ["langid", "filter", "--model", "{old_lid}", "--target", "de", "--in", "{shard}",
         "--out", "{out}/o.jsonl"],
    ], ids=["min-words", "budget", "min-match", "repeated-group", "group-combined", "top-k",
            "top-k-zero",
            "budget-empty-shard", "min-match-empty-shard", "epochs-negative", "epochs-zero",
            "seed-negative", "shard-not-utf8", "config-not-utf8",
            "spec-not-utf8", "config-missing", "arpa-unparsable", "langid-model-truncated",
            "report-missing", "report-not-utf8", "report-not-json", "report-json-list",
            "report-unknown-type", "report-dedup-no-fields", "report-composition-no-rows",
            "langid-model-0.2.0"])
    def test_exit_2_without_traceback(self, lm_inputs, tmp_path, argv):
        shard, model = lm_inputs
        empty = tmp_path / "empty.jsonl"
        write_shard(CorpusShard.from_documents([], source="empty"), empty)
        latin1 = tmp_path / "latin1.jsonl"  # read as a shard, a config and a spec
        latin1.write_bytes('{"text": "Grüße"}\n'.encode("latin-1"))
        bad_arpa = tmp_path / "bad.arpa"
        bad_arpa.write_text(model.read_text(encoding="utf-8").replace("ngram 1=", "ngram 1=x"),
                            encoding="utf-8")
        bad_lid = tmp_path / "lid.bin"
        langid.save_model(langid.LangIdModel(("de", "en"), 4, np.ones(4, dtype=bool), np.zeros((2, 5)),
                                             np.zeros(2)), bad_lid)
        old_lid = tmp_path / "old.bin"  # the magic of korpus 0.2.0's dense layout
        old_lid.write_bytes(b"KORPUSLID\x01" + bad_lid.read_bytes()[len(langid._MAGIC):])
        bad_lid.write_bytes(bad_lid.read_bytes()[:-8])
        report_list = tmp_path / "list.json"  # a JSON list, not an object
        report_list.write_text('[{"type": "dedup"}]', encoding="utf-8")
        report_bogus = tmp_path / "bogus.json"
        report_bogus.write_text('{"type": "bogus"}', encoding="utf-8")
        report_dedup = tmp_path / "dedup.json"  # a known type without its fields
        report_dedup.write_text('{"type": "dedup"}', encoding="utf-8")
        report_composition = tmp_path / "composition.json"
        report_composition.write_text('{"type": "composition"}', encoding="utf-8")
        argv = [a.format(shard=shard, model=model, empty=empty, out=tmp_path / "out",
                         latin1=latin1, bad_arpa=bad_arpa, bad_lid=bad_lid, old_lid=old_lid,
                         report_list=report_list, report_bogus=report_bogus,
                         report_dedup=report_dedup, report_composition=report_composition)
                for a in argv]
        env = {**os.environ, "PYTHONPATH": str(Path(korpus.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "korpus.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        if argv[0] == "report":
            assert argv[2] in proc.stderr
        if argv[:2] == ["langid", "filter"]:
            assert proc.stderr.startswith(f"error: {argv[3]}: ")


class TestInputPaths:
    """One rule for every input path: a relative glob pattern resolves against
    the file that names it (the working directory for a CLI flag), each
    pattern's matches are sorted, and every pattern must match a file."""

    DEAD = "inputs/gone-*.jsonl"

    @pytest.mark.parametrize("entry", ["config", "mix-spec", "cli-in"])
    def test_dead_pattern_beside_live_one(self, tmp_path, monkeypatch, capsys, entry):
        config = build_pipeline_fixture(tmp_path)
        monkeypatch.chdir(tmp_path / "inputs")  # not the directory of the config or spec
        if entry == "config":
            obj = json.loads(config.read_text(encoding="utf-8"))
            obj["sources"][0]["paths"].append(self.DEAD)
            config.write_text(json.dumps(obj), encoding="utf-8")
            argv = ["validate", "--config", str(config)]
            expected = f"$.sources[0].paths[1]: no files match {self.DEAD!r}"
        elif entry == "mix-spec":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"name": "d", "sources": [
                {"source": "gc4", "domain": "formal", "paths": ["inputs/gc4.jsonl", self.DEAD]},
            ]}), encoding="utf-8")
            argv = ["mix", "--spec", str(spec), "--out-dir", str(tmp_path / "ds")]
            expected = f"error: $.sources[0].paths[1]: no files match {self.DEAD!r}"
        else:
            monkeypatch.chdir(tmp_path)
            argv = ["preprocess", "--in", "inputs/gc4.jsonl", self.DEAD,
                    "--out", str(tmp_path / "o.jsonl")]
            expected = f"error: no files match {self.DEAD!r}"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert expected in (captured.out + captured.err).splitlines()
        assert not (tmp_path / "ds").exists() and not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("name,loc", [
        ("books", "$.sources[7].paths[0]"),
        ("langid-de", "$.langid.train.de[0]"),
        ("med-reference", "$.quality_lm.reference[0]"),
    ])
    @pytest.mark.parametrize("edit,problem", [
        (lambda m: [json.dumps({**json.loads(m), "doc_count": 9.0})],
         "last line: field 'doc_count' must be a JSON integer"),
        (lambda m: [], "missing manifest line"),
    ], ids=["float-count", "no-manifest"])
    def test_raw_input_manifest_checked_before_any_stage(self, tmp_path, capsys, name, loc,
                                                         edit, problem):
        """Every raw input's manifest line is checked when the config is parsed,
        so `korpus pipeline` exits 2 before preprocess runs."""
        config = build_pipeline_fixture(tmp_path)
        path = tmp_path / "inputs" / f"{name}.jsonl"
        *records, manifest = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(records + edit(manifest)) + "\n", encoding="utf-8")
        expected = f"{loc}: {path}: {problem}"
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().out == expected + "\n"
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not ws.exists()

    @pytest.mark.parametrize("edit,loc,again", [
        (lambda obj: obj["sources"][7]["paths"].append("inputs/b*.jsonl"),
         "$.sources[7].paths", "books.jsonl"),
        (lambda obj: obj["langid"]["train"]["de"].append("inputs/langid-d*.jsonl"),
         "$.langid.train.de", "langid-de.jsonl"),
        (lambda obj: obj["quality_lm"]["reference"].append("inputs/alias.jsonl"),
         "$.quality_lm.reference", "alias.jsonl"),
    ], ids=["source", "langid-train", "reference-by-symlink"])
    def test_file_matched_twice_in_one_list(self, tmp_path, capsys, edit, loc, again):
        """A path list that matches one file twice, by any path, would read its
        records twice: `korpus validate` and `korpus pipeline` exit 2 naming the
        second pattern, before any stage runs. `alias.jsonl` is a symlink."""
        config = build_pipeline_fixture(tmp_path)
        (tmp_path / "inputs" / "alias.jsonl").symlink_to("med-reference.jsonl")
        obj = json.loads(config.read_text(encoding="utf-8"))
        edit(obj)
        config.write_text(json.dumps(obj), encoding="utf-8")
        expected = (f"{loc}[1]: {tmp_path / 'inputs' / again} is a file that {loc}[0] "
                    f"already matched")
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().out == expected + "\n"
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not ws.exists()

    def test_file_named_by_two_sources(self, tmp_path, capsys):
        """The sources' path lists are one list: a file that two sources name
        would be read twice, so `korpus validate` and `korpus pipeline` exit 2
        naming both patterns, before any stage runs."""
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text(encoding="utf-8"))
        assert [s["name"] for s in obj["sources"][:2]] == ["gc4", "news"]
        obj["sources"][1]["paths"] = ["inputs/gc4.jsonl"]
        config.write_text(json.dumps(obj), encoding="utf-8")
        expected = (f"$.sources[1].paths[0]: {tmp_path / 'inputs' / 'gc4.jsonl'} is a file that "
                    f"$.sources[0].paths[0] already matched")
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().out == expected + "\n"
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {expected}\n"
        assert "running" not in captured.err + captured.out
        assert not ws.exists()

    def test_file_named_by_two_languages(self, tmp_path, capsys):
        """The languages' training lists are one list: a file that two
        languages name would train under both labels, so `korpus validate`
        exits 2 naming both patterns."""
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text(encoding="utf-8"))
        assert list(obj["langid"]["train"]) == ["de", "en"]
        obj["langid"]["train"]["en"] = ["inputs/langid-de.jsonl"]
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().out == (
            f"$.langid.train.en[0]: {tmp_path / 'inputs' / 'langid-de.jsonl'} is a file that "
            f"$.langid.train.de[0] already matched\n")

    @pytest.mark.parametrize("command", [
        ["preprocess", "--out", "out.jsonl"],
        ["lm", "train", "--model", "out.arpa"],
    ], ids=["preprocess", "lm-train"])
    def test_cli_flag_matching_a_file_twice(self, tmp_path, monkeypatch, capsys, command):
        """An input flag follows a config's rule: a file matched twice, by any
        path, exits 2 naming the repeat before any shard is read."""
        build_pipeline_fixture(tmp_path)
        monkeypatch.chdir(tmp_path / "inputs")

        def read_shard(path):
            raise AssertionError(f"read {path} before the input paths were checked")
        monkeypatch.setattr(cli, "read_shard", read_shard)
        assert main([*command, "--in", "books.jsonl", "b*.jsonl"]) == 2
        assert capsys.readouterr().err == (
            "error: books.jsonl is a file that 'books.jsonl' already matched\n")
        assert not (tmp_path / "inputs" / command[-1]).exists()

    def test_two_dedup_groups_naming_one_file(self, tmp_path, monkeypatch, capsys):
        """The --group flags of one dedup command are one list: a file that two
        groups match exits 2 naming the earlier pattern, before any shard is read."""
        build_pipeline_fixture(tmp_path)
        monkeypatch.chdir(tmp_path / "inputs")

        def read_shard(path):
            raise AssertionError(f"read {path} before the input paths were checked")
        monkeypatch.setattr(cli, "read_shard", read_shard)
        assert main(["dedup", "--group", "g=books.jsonl", "--group", "h=b*.jsonl",
                     "--out-dir", "out"]) == 2
        assert capsys.readouterr().err == (
            "error: books.jsonl is a file that 'books.jsonl' already matched\n")
        assert not (tmp_path / "inputs" / "out").exists()

    def test_directory_is_not_a_file(self, tmp_path, monkeypatch, capsys):
        """A pattern that matches only directories matches no file."""
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text(encoding="utf-8"))
        obj["sources"][0]["paths"] = ["input*"]
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 2
        assert "$.sources[0].paths[0]: no files match 'input*'" in capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        assert main(["preprocess", "--in", "inputs", "--out", str(tmp_path / "o.jsonl")]) == 2
        assert capsys.readouterr().err == "error: no files match 'inputs'\n"

    def test_spec_paths_resolve_against_the_spec(self, tmp_path, monkeypatch, rng):
        data = tmp_path / "data"
        for name in ("gc4-b", "gc4-a", "news"):
            write_shard(make_shard([de_text(rng, 2) for _ in range(4)], source=name[:4],
                                   prefix=name), data / f"{name}.jsonl")

        def spec(gc4_paths, news_paths):
            return {"name": "mini", "budget_tokens": 700, "trim_source": "gc4", "seed": 3,
                    "sources": [{"source": "gc4", "domain": "formal", "paths": gc4_paths},
                                {"source": "news", "domain": "formal", "paths": news_paths}]}

        (data / "spec.json").write_text(json.dumps(spec(["gc4-*.jsonl"], ["news.jsonl"])),
                                        encoding="utf-8")
        (tmp_path / "abs.json").write_text(json.dumps(spec(
            [str(data / "gc4-a.jsonl"), str(data / "gc4-b.jsonl")], [str(data / "news.jsonl")])),
            encoding="utf-8")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        for name, spec_path in [("rel", data / "spec.json"), ("abs", tmp_path / "abs.json")]:
            assert main(["mix", "--spec", str(spec_path), "--out-dir", str(tmp_path / name),
                         "--report", str(tmp_path / name / "composition.json")]) == 0
        assert workspace_digest(tmp_path / "rel") == workspace_digest(tmp_path / "abs")
        composition = json.loads((tmp_path / "rel" / "composition.json").read_text())
        assert 0 < composition["totals"]["token_count"] <= 700  # trimmed across both gc4 shards
        assert read_shard(tmp_path / "rel" / "gc4.jsonl").documents[0].id == "gc4-a-0"

    def test_glob_characters_in_the_base_directory(self, tmp_path, monkeypatch):
        """The directory of a config or spec is a literal path, not a pattern."""
        root = tmp_path / "run[1]"
        config = build_pipeline_fixture(root)
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--config", str(config)]) == 0
        spec = root / "spec.json"
        spec.write_text(json.dumps({"name": "d", "sources": [
            {"source": "gc4", "domain": "formal", "paths": ["inputs/gc4*.jsonl"]}]}),
            encoding="utf-8")
        assert main(["mix", "--spec", str(spec), "--out-dir", str(tmp_path / "ds")]) == 0
        assert (read_shard(tmp_path / "ds" / "gc4.jsonl").documents
                == read_shard(root / "inputs" / "gc4.jsonl").documents)

    @pytest.mark.parametrize("pattern", ["grüße/*.jsonl", "grüße.jsonl"])
    def test_unencodable_pattern_under_an_ascii_locale(self, tmp_path, pattern):
        """A pattern that the file-system encoding cannot hold is a diagnostic at
        its JSON path (exit 2), not a traceback."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sources": [{"name": "s", "domain": "formal", "paths": [pattern]}],
            "datasets": [{"name": "d", "sources": ["s"]}],
        }), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(korpus.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "korpus.cli", "validate", "--config", str(config)],
            capture_output=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.decode("ascii").splitlines() == [
            f"$.sources[0].paths[0]: {pattern!a} cannot be encoded in the file-system"
            " encoding (ascii)"]

    def test_validate_prints_non_ascii_diagnostics_under_an_ascii_locale(self, tmp_path):
        """A diagnostic that quotes a non-ASCII name is printed with backslash
        escapes under an ASCII console encoding, and validate exits 2."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sources": [{"name": "grüße", "domain": "formal", "paths": ["*.jsonl"]}],
            "datasets": [{"name": "d", "sources": ["grüße"]}],
        }), encoding="utf-8")
        write_shard(make_shard(["ein kurzer text"], source="s", prefix="s"), tmp_path / "s.jsonl")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(korpus.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "korpus.cli", "validate", "--config", str(config)],
            capture_output=True, env=env)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stdout.decode("ascii").splitlines()
        assert any(l.startswith("$.sources[0].name: 'gr\\xfc\\xdfe'") for l in lines), lines

    def test_each_pattern_globbed_once_per_run(self, tmp_path, monkeypatch):
        config = build_pipeline_fixture(tmp_path)
        obj = json.loads(config.read_text(encoding="utf-8"))
        patterns = [p for s in obj["sources"] for p in s["paths"]]
        patterns += [p for pats in obj["langid"]["train"].values() for p in pats]
        patterns += obj["quality_lm"]["reference"]
        calls = []
        real_glob = glob.glob
        monkeypatch.setattr(glob, "glob", lambda *a, **kw: calls.append(a[0]) or real_glob(*a, **kw))
        run_pipeline(config, tmp_path / "ws")
        assert len(calls) == len(patterns)


class Crash(BaseException):
    """The process dies: no `except Exception` in the pipeline sees it."""


@pytest.fixture(scope="module")
def fresh_digest(tmp_path_factory):
    """Workspace digest of one uninterrupted run over the pipeline fixture."""
    root = tmp_path_factory.mktemp("fresh")
    run_pipeline(build_pipeline_fixture(root), root / "ws")
    return workspace_digest(root / "ws")


class TestChecksumFile:
    """Marker checksums hash a file in blocks; the result is the blake2b of the whole file."""

    def test_equals_one_shot_hash(self, tmp_path):
        block = pipeline._READ_BLOCK
        for n in (0, 1, block - 1, block, block + 1, 3 * block):
            data = np.random.default_rng(n).bytes(n)
            path = tmp_path / f"f{n}"
            path.write_bytes(data)
            assert pipeline._checksum_file(path) == oracle_checksum(data)

    def test_workspace_holds_only_b2_checksums(self, tmp_path):
        """No legacy checksum of an input leaks into a manifest or a marker, through
        `merge_shards`'s one-shard shortcut or through mix. Inputs with legacy
        checksums give the same files; only the markers differ, as the run key
        hashes the input bytes."""
        b2 = re.compile(r"b2:[0-9a-f]{16}")
        digests = {}
        for form in ("b2", "legacy"):
            config = build_pipeline_fixture(tmp_path / form)
            if form == "legacy":
                for path in (tmp_path / form / "inputs").glob("*.jsonl"):
                    write_legacy_shard(read_shard(path), path)
            ws = tmp_path / form / "ws"
            run_pipeline(config, ws)
            manifests = [json.loads(p.read_text(encoding="utf-8").splitlines()[-1])
                         for p in sorted(ws.rglob("*.jsonl"))]
            manifests = [m for m in manifests if m.get("__manifest__")]
            assert len(manifests) > len(list(ws.glob("datasets/*/*.jsonl")))
            assert all(b2.fullmatch(m["checksum"]) for m in manifests), manifests
            outputs = [c for p in (ws / "markers").glob("*.json")
                       for c in json.loads(p.read_text(encoding="utf-8"))["outputs"].values()]
            assert len(outputs) > len(manifests)
            assert all(b2.fullmatch(c) for c in outputs), outputs
            digests[form] = {rel: digest for rel, digest in workspace_digest(ws).items()
                             if not rel.startswith("markers/")}
        assert digests["legacy"] == digests["b2"]

    def test_peak_below_the_file_size(self, tmp_path):
        path = tmp_path / "big"
        path.write_bytes(np.random.default_rng(5).bytes(6 << 20))
        tracemalloc.start()
        try:
            pipeline._checksum_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size, peak


class TestPipelineCommand:
    def test_minimal_config_dedup_only(self, tmp_path, rng):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        passage = de_text(rng, 4)
        docs = [make_doc(f"d{i}", de_text(rng, 3), source="solo") for i in range(4)]
        docs.append(make_doc("dup-1", passage, source="solo"))
        docs.append(make_doc("dup-2", passage + " " + de_text(rng, 1), source="solo"))
        write_shard(CorpusShard.from_documents(docs, source="solo"), inputs / "solo.jsonl")
        config = {
            "params": {"min_match_tokens": 30},
            "sources": [{"name": "solo", "domain": "formal",
                         "paths": ["inputs/solo.jsonl"], "dedup_group": "solo"}],
            "datasets": [{"name": "mini", "sources": ["solo"]}],
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(ws)]) == 0
        assert (ws / "datasets" / "mini" / "solo.jsonl").exists()
        reports = sorted((ws / "dedup").glob("report-*.json"))
        assert len(reports) == 2  # group stage + combined
        kept = read_shard(ws / "datasets" / "mini" / "solo.jsonl")
        assert {d.id for d in kept.documents} == {f"d{i}" for i in range(4)}

    @staticmethod
    def _one_source(tmp_path: Path, files: tuple[str, ...], patterns: list[str]) -> Path:
        """A config whose one source, with no step, reads `patterns` over `files`,
        each holding one document with id x1."""
        for name in files:
            write_shard(CorpusShard.from_documents([make_doc("x1", f"{name} eins zwei", "s")]),
                        tmp_path / "inputs" / f"{name}.jsonl")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sources": [{"name": "s", "domain": "formal", "paths": patterns}],
            "datasets": [{"name": "ds", "sources": ["s"]}],
        }), encoding="utf-8")
        return config

    @pytest.mark.parametrize("files,patterns", [
        (("a", "b"), ["inputs/*.jsonl"]),
    ], ids=["two-files"])
    def test_repeated_document_id_in_a_source_exits_4(self, tmp_path, capsys, files, patterns):
        """Mix merges the files of a source with no step, and their ids must be distinct."""
        config = self._one_source(tmp_path, files, patterns)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err[-2:] == ["[pipeline] mix: running",
                            "integrity error: duplicate document id 'x1' in source 's'"]
        assert not (ws / "datasets").exists()

    def test_two_patterns_one_file_exits_2(self, tmp_path, capsys):
        """Two patterns of one list that match one file are found when the config
        is parsed, before any stage runs."""
        config = self._one_source(tmp_path, ("a",), ["inputs/a.jsonl", "inputs/*.jsonl"])
        expected = (f"$.sources[0].paths[1]: {tmp_path / 'inputs' / 'a.jsonl'} is a file that "
                    f"$.sources[0].paths[0] already matched")
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().out == expected + "\n"
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not ws.exists()

    def test_schema_error_exit_code(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"sources": []}', encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg), "--workspace", str(tmp_path / "ws")]) == 2

    def test_unknown_stop_after_exits_2(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws),
                     "--stop-after", "bogus"]) == 2
        assert capsys.readouterr().err == "error: unknown stage 'bogus'\n"
        assert not ws.exists()

    def test_run_and_lm_score_leave_hashlib_unimported(self, tmp_path):
        """Importing hashlib maps OpenSSL, about 3.6 MB of RSS, so neither a full
        run nor `korpus lm score` on its model may import it."""
        config = build_pipeline_fixture(tmp_path)
        shard = sorted((tmp_path / "inputs").glob("*.jsonl"))[0]
        ws = tmp_path / "ws"
        script = (
            "import sys\n"
            "from korpus.cli import main\n"
            "config, ws, shard, out = sys.argv[1:]\n"
            "assert main(['pipeline', '--config', config, '--workspace', ws]) == 0\n"
            "assert main(['lm', 'score', '--model', ws + '/qualfilter/model.arpa',\n"
            "             '--in', shard, '--out', out]) == 0\n"
            "print(sorted({'hashlib', '_hashlib'} & sys.modules.keys()))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(korpus.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, str(config), str(ws), str(shard),
                               str(tmp_path / "scores.json")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert (tmp_path / "scores.json").exists()

    def test_other_error_in_a_stage_exits_3(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "preprocess").write_text("kein Verzeichnis", encoding="utf-8")
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 3
        assert "stage failure: stage preprocess failed: " in capsys.readouterr().err

    def test_resume_skips_completed_stages(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 0
        capsys.readouterr()
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 0
        err = capsys.readouterr().err
        assert "cached" in err and "running" not in err

    def test_force_reruns(self, tmp_path, capsys):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        main(["pipeline", "--config", str(config), "--workspace", str(ws)])
        before = workspace_digest(ws)
        capsys.readouterr()
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws),
                     "--force"]) == 0
        assert "running" in capsys.readouterr().err
        assert workspace_digest(ws) == before

    def test_missing_marked_output_is_integrity_error(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        main(["pipeline", "--config", str(config), "--workspace", str(ws)])
        (ws / "dedup" / "gc4.jsonl").unlink()
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 4

    def test_edited_marked_output_is_integrity_error(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        main(["pipeline", "--config", str(config), "--workspace", str(ws)])
        path = ws / "datasets" / "quality" / "gc4.jsonl"
        shard = read_shard(path)
        first, *rest = shard.documents
        edited = make_doc(first.id, first.text + " Ergänzt.", source=first.source)
        write_shard(CorpusShard.from_documents([edited, *rest], source="gc4"), path)
        read_shard(path)  # still a valid shard: only the marker checksum catches the edit
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 4

    def test_rerun_after_config_change_reports_like_fresh_run(self, tmp_path):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        assert main(["pipeline", "--config", str(config), "--workspace", str(ws)]) == 0
        obj = json.loads(config.read_text(encoding="utf-8"))
        for src in obj["sources"]:
            if src.get("dedup_group"):
                src["dedup_group"] = "formal-" + src["dedup_group"]
            if src["name"] == "reddit":
                src["steps"]["preprocess"] = False
        config.write_text(json.dumps(obj), encoding="utf-8")
        fresh = tmp_path / "fresh"
        for workspace in (ws, fresh):
            assert main(["pipeline", "--config", str(config), "--workspace", str(workspace)]) == 0
        # The earlier run's files are still there; the report must not read them.
        assert (ws / "dedup" / "report-gc4.json").exists()
        assert (ws / "preprocess" / "reddit.stats.json").exists()
        for name in ("summary.json", "summary.md"):
            assert (ws / "report" / name).read_bytes() == (fresh / "report" / name).read_bytes()
        summary = json.loads((fresh / "report" / "summary.json").read_text(encoding="utf-8"))
        assert len(summary["dedup"]) == 4 and summary["preprocess"] == {}

    @pytest.mark.parametrize("change", ["min_words", "seed_override", "raw_input"])
    def test_resume_after_change_reruns_every_stage(self, tmp_path, capsys, change):
        config = build_pipeline_fixture(tmp_path)
        args = ["pipeline", "--config", str(config), "--workspace", str(tmp_path / "ws")]
        assert main(args) == 0
        capsys.readouterr()
        if change == "min_words":
            obj = json.loads(config.read_text(encoding="utf-8"))
            obj["params"]["min_words"] = 25
            config.write_text(json.dumps(obj), encoding="utf-8")
        elif change == "seed_override":
            args = [*args, "--seed-override", "3"]
        else:
            legal = tmp_path / "inputs" / "legal.jsonl"
            docs = read_shard(legal).documents
            write_shard(CorpusShard.from_documents(docs[:-1], source="legal"), legal)
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err.count(": running") == len(STAGES) and "cached" not in err

    @pytest.mark.parametrize("stage", STAGES)
    def test_resume_after_stop_matches_fresh_run(self, tmp_path, capsys, fresh_digest, stage):
        """Each source follows the shards of a cached stage as of a stage that ran."""
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        run_pipeline(config, ws, stop_after=stage)
        capsys.readouterr()
        run_pipeline(config, ws)
        err = capsys.readouterr().err
        done = STAGES.index(stage) + 1
        assert err.count(": cached") == done and err.count(": running") == len(STAGES) - done
        assert workspace_digest(ws) == fresh_digest

    def test_malformed_marker_counts_as_absent(self, tmp_path, capsys, fresh_digest):
        """A marker that is JSON but not {"key": str, "outputs": {str: str}} reruns its stage."""
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        run_pipeline(config, ws)
        marker = ws / "markers" / "preprocess.json"
        key = json.loads(marker.read_text(encoding="utf-8"))["key"]
        for bad in ([], None, {"key": key, "stage": "preprocess"},
                    {"key": key, "outputs": [], "stage": "preprocess"}):
            marker.write_text(json.dumps(bad), encoding="utf-8")
            capsys.readouterr()
            run_pipeline(config, ws)
            err = capsys.readouterr().err
            assert "preprocess: running" in err and err.count(": cached") == len(STAGES) - 1, bad
            assert workspace_digest(ws) == fresh_digest, bad

    def test_markers_record_every_write(self, tmp_path, monkeypatch):
        """Each marker lists exactly the files written since the previous marker."""
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        real = core.atomic_write
        written: list[str] = []

        @contextlib.contextmanager
        def recording_write(path):
            written.append(str(Path(path).relative_to(ws)))
            with real(path) as fh:
                yield fh

        for name, module in list(sys.modules.items()):
            if name.startswith("korpus") and getattr(module, "atomic_write", None) is real:
                monkeypatch.setattr(module, "atomic_write", recording_write)
        run_pipeline(config, ws)
        monkeypatch.undo()
        stage_writes: list[set[str]] = [set()]
        for rel in written:
            if rel.startswith("markers/"):
                assert rel == f"markers/{STAGES[len(stage_writes) - 1]}.json"
                stage_writes.append(set())
            else:
                stage_writes[-1].add(rel)
        assert stage_writes.pop() == set() and len(stage_writes) == len(STAGES)
        for stage, files in zip(STAGES, stage_writes):
            marker = json.loads((ws / "markers" / f"{stage}.json").read_text(encoding="utf-8"))
            assert files and set(marker["outputs"]) == files, stage

    @pytest.mark.parametrize("crash_at", [f"markers/{stage}.json" for stage in STAGES]
                             + ["qualfilter/oscar-medical.jsonl"])
    def test_resume_after_crash_matches_fresh_run(self, tmp_path, monkeypatch, fresh_digest,
                                                  crash_at):
        """A run killed while writing one file (a stage's marker, or the first
        quality-filter shard after model.arpa) leaves a partial tmp file and the
        old target; a plain resume then gives the fresh-run workspace."""
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        real = core.atomic_write

        @contextlib.contextmanager
        def dying_write(path):
            path = Path(path)
            if path == ws / crash_at:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.with_name(path.name + ".tmp").write_bytes(b'{"partial')
                raise Crash(path)
            with real(path) as fh:
                yield fh

        bound = [m for name, m in sys.modules.items()
                 if name.startswith("korpus") and getattr(m, "atomic_write", None) is real]
        assert len(bound) >= 4  # core, pipeline, langid, qualfilter
        for module in bound:
            monkeypatch.setattr(module, "atomic_write", dying_write)
        with pytest.raises(Crash):
            run_pipeline(config, ws)
        assert (ws / (crash_at + ".tmp")).exists()
        if crash_at.startswith("qualfilter/"):
            assert (ws / "qualfilter" / "model.arpa").exists()
        monkeypatch.undo()
        run_pipeline(config, ws)
        assert workspace_digest(ws) == fresh_digest


class TestMixCopies:
    """Mix copies a source's shard that is a stage output, unless it trims it;
    the copy's bytes are checked against the checksum its stage recorded."""

    def test_stage_output_modified_before_mix(self, tmp_path, fresh_digest):
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        shard_path = ws / "dedup" / "news.jsonl"
        original = []

        def log(msg):
            if msg == "[pipeline] mix: running":
                original.append(shard_path.read_bytes())
                docs = read_shard(shard_path).documents[:-1]
                write_shard(CorpusShard.from_documents(docs, source="news"), shard_path)
                read_shard(shard_path)  # still a valid shard: only the marker checksum sees it

        cfg, _ = pipeline.parse_config(config)
        with pytest.raises(IntegrityError, match=r"dedup/news\.jsonl was modified after its stage"):
            pipeline.PipelineRun(cfg, ws, log=log).run()
        assert original
        assert not list(ws.glob("datasets/*/news.jsonl")) and not list(ws.rglob("*.tmp"))
        assert not (ws / "markers" / "mix.json").exists()
        shard_path.write_bytes(original[0])
        run_pipeline(config, ws)
        assert workspace_digest(ws) == fresh_digest

    COPIES = [
        "datasets/quality/gc4.jsonl", "datasets/quality/news.jsonl",
        "datasets/quality/wiki.jsonl", "datasets/variety/news.jsonl",
        "datasets/variety/oscar-medical.jsonl", "datasets/variety/pubmed-translated.jsonl",
        "datasets/variety/reddit.jsonl", "datasets/variety/wiki.jsonl",
    ]

    def test_each_copy_is_hashed_once(self, tmp_path, monkeypatch, fresh_digest):
        """A copy's bytes are hashed as they are written, and the mix marker records
        that hash, its stage output's checksum: the dataset file is not read back."""
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        copying: list[Path] = []
        reading: list[Path] = []
        real = pipeline._checksum_file
        monkeypatch.setattr(pipeline, "_checksum_file", lambda path, copy=None: (
            copying if copy else reading).append(Path(path)) or real(path, copy))
        run_pipeline(config, ws)
        monkeypatch.undo()
        assert len(copying) == len(self.COPIES)
        latest = {}  # file name -> checksum of the last stage that wrote it
        for stage in STAGES[:STAGES.index("mix")]:
            marker = json.loads((ws / "markers" / f"{stage}.json").read_text(encoding="utf-8"))
            latest.update((Path(rel).name, c) for rel, c in marker["outputs"].items())
        outputs = json.loads((ws / "markers" / "mix.json").read_text(encoding="utf-8"))["outputs"]
        for rel, checksum in outputs.items():
            assert checksum == real(ws / rel), rel
            if rel in self.COPIES:
                assert ws / rel not in reading and checksum == latest[Path(rel).name], rel
            else:
                assert reading.count(ws / rel) == 1, rel
        assert workspace_digest(ws) == fresh_digest

    def test_copies_equal_the_rewrite(self, tmp_path, monkeypatch):
        """Each copy equals what re-reading and re-writing its stage output gives,
        and `korpus mix --spec`, which re-writes every source, writes the same datasets."""
        config = build_pipeline_fixture(tmp_path)
        ws = tmp_path / "ws"
        copies: list[tuple[Path, Path]] = []
        real = pipeline._copy_checked
        monkeypatch.setattr(pipeline, "_copy_checked",
                            lambda value, path: copies.append((value[0], path)) or real(value, path))
        run_pipeline(config, ws)
        assert sorted(str(dst.relative_to(ws)) for _, dst in copies) == self.COPIES
        for src, dst in copies:
            rewritten = tmp_path / "rewritten.jsonl"
            write_shard(merge_shards([read_shard(src)], source=dst.stem), rewritten)
            assert rewritten.read_bytes() == src.read_bytes() == dst.read_bytes(), dst

        obj = json.loads(config.read_text(encoding="utf-8"))
        sources = {s["name"]: s for s in obj["sources"]}

        def current(name):  # the source's latest stage output, else its raw input
            for stage in reversed(STAGES):
                marker = json.loads((ws / "markers" / f"{stage}.json").read_text(encoding="utf-8"))
                if f"{stage}/{name}.jsonl" in marker["outputs"]:
                    return [str(ws / stage / f"{name}.jsonl")]
            return [str(tmp_path / p) for p in sources[name]["paths"]]

        for ds in obj["datasets"]:
            spec = {k: v for k, v in ds.items() if k != "sources"}
            spec["sources"] = [{"source": name, "domain": sources[name]["domain"],
                                "paths": current(name)} for name in ds["sources"]]
            spec_path = tmp_path / f"{ds['name']}.spec.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            out = tmp_path / "cli" / ds["name"]
            assert main(["mix", "--spec", str(spec_path), "--out-dir", str(out),
                         "--report", str(out / "composition.json")]) == 0
            expected = sorted((ws / "datasets" / ds["name"]).iterdir())
            assert [p.name for p in expected] == sorted(p.name for p in out.iterdir())
            for path in expected:
                assert (out / path.name).read_bytes() == path.read_bytes(), path


# `--help` lists each subcommand on an indented line of its own; the bare word
# "pipeline" also occurs in the description, where --seed-override is named.
PIPELINE_SUBCOMMAND = re.compile(r"^ +pipeline\b", re.MULTILINE)


class TestConsoleScript:
    def test_installed_entry_point(self):
        """The console script `pyproject.toml` declares starts as its own process.

        Runs the same body as the script pip generates at install time, against
        the `korpus` package this process imported, so no install step is needed.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["korpus"]
        module, _, attr = target.partition(":")
        script = (f"import sys\nfrom {module} import {attr}\n"
                  f"sys.argv[0] = 'korpus'\nsys.exit({attr}())")
        env = {**os.environ, "PYTHONPATH": str(Path(korpus.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: korpus")
        assert PIPELINE_SUBCOMMAND.search(proc.stdout)

    @pytest.mark.skipif(shutil.which("korpus") is None,
                        reason="korpus console script not on PATH")
    def test_console_script_on_path(self):
        proc = subprocess.run(["korpus", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert PIPELINE_SUBCOMMAND.search(proc.stdout)
