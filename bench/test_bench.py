"""Tests of the benchmark itself: generators, span arithmetic, tracer hygiene."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import korpus
import korpus.pipeline
from korpus.pipeline import PipelineRun, parse_config

from checks import check_workspace, failed_documents, workspace_digest
from run import END_TO_END, per_layer_names, unit_of
from spans import STAGES, TARGETS, Span, Tracer, summarize, top_level_seconds
from workloads import WORKLOADS, generate

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    a = generate(workload, 3, tmp_path / "a", scale=0.02)
    b = generate(workload, 3, tmp_path / "b", scale=0.02)
    c = generate(workload, 4, tmp_path / "c", scale=0.02)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a == b
    files_a, files_c = _files(tmp_path / "a"), _files(tmp_path / "c")
    assert files_a.keys() == files_c.keys()
    assert all(files_a[k] != files_c[k] for k in files_a)
    # Sizes come from the workload, never from the seed.
    assert (a["input_tokens"], a["input_docs"]) == (c["input_tokens"], c["input_docs"])


def test_self_time_on_hand_built_tree():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 11.0, 12.5, None),
    ]
    summary = summarize(spans)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["b"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert summary["c"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}
    assert top_level_seconds(spans) == 11.5


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "korpus" or name.startswith("korpus.")):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    for attr, value in vars(korpus.chunker.SubprocessTranslator).items():
        out[("korpus.chunker.SubprocessTranslator", attr)] = value
    return out


def _run(config: Path, ws: Path) -> None:
    cfg, diags = parse_config(config)
    assert cfg is not None, diags
    PipelineRun(cfg, ws, log=lambda msg: None).run()


def test_traced_run_restores_every_attribute_and_changes_no_output(tmp_path):
    plan = generate("crawl-boilerplate", 5, tmp_path / "gen", scale=0.05)
    config = tmp_path / "gen" / "config.json"
    _run(config, tmp_path / "plain")

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert korpus.pipeline.read_shard is not before[("korpus.pipeline", "read_shard")]
        assert korpus.mixer.read_shard is korpus.pipeline.read_shard
        assert korpus.langid.fnv1a_bytes is before[("korpus.langid", "fnv1a_bytes")]
        _run(config, tmp_path / "traced")
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []

    assert workspace_digest(tmp_path / "plain") == workspace_digest(tmp_path / "traced")
    assert check_workspace(tmp_path / "traced", tmp_path / "gen" / "inputs", plan) == []
    assert failed_documents(tmp_path / "traced", tmp_path / "gen" / "inputs") == 0

    names = {s.name for s in tracer.spans}
    assert {t.name for t in TARGETS if t.span} <= names
    parents = {(s.name, tracer.spans[s.parent].name) for s in tracer.spans if s.parent is not None}
    assert ("core.read_shard", "mixer.assemble") in parents  # wrapped in korpus.mixer too
    assert tracer.counts["chunker.translator_starts"] == plan["source_docs"]["notes"]
    assert tracer.counts["dedup.spans"] >= len(plan["expect"]["dedup_removed"])


def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: unit_of(n) for n in per_layer_names()}
    assert STAGES == korpus.pipeline.STAGES
