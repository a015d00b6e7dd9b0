import json

import pytest

from korpus.core import CorpusShard, write_shard
from korpus.errors import ConfigError
from korpus.mixer import PassThrough, assemble, trim_to_budget
from korpus.pipeline import parse_mix_spec
from korpus.report import CompositionReport

from conftest import de_text, make_doc, make_shard


def hundred_token_shard(n_docs=10, source="gc4"):
    text = " ".join(f"w{i}" for i in range(100))
    docs = [make_doc(f"{source}-{i}", text, source=source) for i in range(n_docs)]
    return CorpusShard.from_documents(docs, source=source)


class TestTrimToBudget:
    def test_budget_equal_to_total_is_noop(self):
        shard = hundred_token_shard()
        out = trim_to_budget([shard], "gc4", 1000, seed=1)
        assert out[0] is shard

    def test_exact_document_arithmetic(self):
        shard = hundred_token_shard()  # 10 docs x 100 tokens
        out = trim_to_budget([shard], "gc4", 600, seed=42)
        total = sum(s.manifest.token_count for s in out)
        assert total == 600
        assert out[0].manifest.doc_count == 6  # exactly 4 removed

    def test_same_seed_same_removal(self):
        shard = hundred_token_shard()
        a = trim_to_budget([shard], "gc4", 600, seed=7)
        b = trim_to_budget([shard], "gc4", 600, seed=7)
        assert [d.id for d in a[0].documents] == [d.id for d in b[0].documents]

    def test_different_seed_different_removal(self):
        shard = hundred_token_shard(n_docs=30)
        kept = {
            seed: tuple(d.id for d in trim_to_budget([shard], "gc4", 1500, seed=seed)[0].documents)
            for seed in range(6)
        }
        assert len(set(kept.values())) > 1

    def test_non_trimmed_sources_untouched(self):
        gc4 = hundred_token_shard(source="gc4")
        news = hundred_token_shard(n_docs=3, source="news")
        out = trim_to_budget([gc4, news], "gc4", 800, seed=3)
        assert out[1] is news

    def test_unreachable_budget_reports_minimum(self):
        gc4 = hundred_token_shard(n_docs=2, source="gc4")
        news = hundred_token_shard(n_docs=5, source="news")
        with pytest.raises(ConfigError, match="achievable minimum is 500"):
            trim_to_budget([gc4, news], "gc4", 400, seed=1)

    def test_stop_rule_removes_minimum_documents(self):
        # uneven doc sizes: removals follow the seeded permutation and stop as
        # soon as the total fits; undoing the last removal would exceed budget
        from korpus.rng import SplitMix64
        sizes = [50, 200, 10, 80, 160]
        docs = [make_doc(f"d{i}", " ".join("w" for _ in range(size)), source="s")
                for i, size in enumerate(sizes)]
        shard = CorpusShard.from_documents(docs, source="s")
        for seed in range(10):
            out = trim_to_budget([shard], "s", 300, seed=seed)
            total = sum(s.manifest.token_count for s in out)
            removed = {d.id for d in shard.documents} - {d.id for d in out[0].documents}
            assert total <= 300
            order = list(range(len(sizes)))
            SplitMix64(seed).shuffle(order)
            running = sum(sizes)
            expected = []
            for idx in order:
                if running <= 300:
                    break
                expected.append(idx)
                running -= sizes[idx]
            assert removed == {f"d{i}" for i in expected}
            assert total + sizes[expected[-1]] > 300


class TestAssemble:
    def _write_sources(self, tmp_path, specs):
        out = []
        for name, domain, texts in specs:
            shard = make_shard(texts, source=name, domain=domain, prefix=name)
            path = tmp_path / f"{name}.jsonl"
            write_shard(shard, path)
            out.append((name, domain, [str(path)]))
        return out

    def test_single_source_no_budget_is_identity(self, tmp_path, rng):
        texts = [de_text(rng, 2) for _ in range(5)]
        sources = self._write_sources(tmp_path, [("solo", "formal", texts)])
        shards, report = assemble(sources)
        assert [d.text for d in shards[0].documents] == texts
        assert report.rows[0].share == 1.0

    def test_three_source_totals(self, tmp_path, rng):
        sources = self._write_sources(tmp_path, [
            ("a", "formal", [de_text(rng, 2) for _ in range(4)]),
            ("b", "legal", [de_text(rng, 2) for _ in range(3)]),
            ("c", "medical", [de_text(rng, 2) for _ in range(2)]),
        ])
        shards, report = assemble(sources)
        assert report.totals()[1] == sum(s.manifest.token_count for s in shards)
        assert abs(sum(r.share for r in report.rows) - 1.0) <= 1e-9

    def test_quality_vs_variety_domains(self, tmp_path, rng):
        all_specs = [
            ("gc4", "formal", [de_text(rng, 2) for _ in range(4)]),
            ("reddit", "informal", [de_text(rng, 2) for _ in range(2)]),
            ("oscar", "medical", [de_text(rng, 2) for _ in range(2)]),
            ("cases", "legal", [de_text(rng, 2) for _ in range(2)]),
            ("books", "literature", [de_text(rng, 2) for _ in range(2)]),
        ]
        sources = self._write_sources(tmp_path, all_specs)
        _, quality = assemble(sources[:1])
        _, variety = assemble(sources)
        assert {r.domain for r in quality.rows} == {"formal"}
        assert {r.domain for r in variety.rows} == {
            "formal", "informal", "medical", "legal", "literature"}

    def test_trim_inside_assemble_is_seeded(self, tmp_path):
        shard = hundred_token_shard()
        path = tmp_path / "gc4.jsonl"
        write_shard(shard, path)
        sources = [("gc4", "formal", [str(path)])]
        shards_a, report_a = assemble(sources, budget_tokens=600, trim_source="gc4", seed=11)
        shards_b, report_b = assemble(sources, budget_tokens=600, trim_source="gc4", seed=11)
        assert [d.id for d in shards_a[0].documents] == [d.id for d in shards_b[0].documents]
        assert report_a == report_b
        assert report_a.totals()[1] == 600

    def test_unread_sources_counted_from_their_manifests(self, tmp_path):
        """An unread source's entry is its manifest alone, and the report is the
        same as when every source is read; the trim source is read regardless."""
        sources = []
        for name, n_docs in (("gc4", 10), ("news", 4), ("wiki", 3)):
            path = tmp_path / f"{name}.jsonl"
            write_shard(hundred_token_shard(n_docs, source=name), path)
            sources.append((name, "formal", [path]))
        everything = {"gc4", "news", "wiki"}
        read, report = assemble(sources)
        assert assemble(sources, unread=everything) == (
            [PassThrough(shard.manifest) for shard in read], report)
        budget = {"budget_tokens": 1200, "trim_source": "gc4", "seed": 2}
        read, report = assemble(sources, **budget)
        assert report.totals() == (12, 1200)
        assert assemble(sources, **budget, unread=everything) == (
            [read[0], PassThrough(read[1].manifest), PassThrough(read[2].manifest)], report)

    @pytest.mark.parametrize("news_label,recent_label", [
        ("zeit", "recent"),  # the trim source's documents carry another label
        ("news", "news"),  # another source's documents carry the trim source's label
    ])
    def test_trim_cuts_the_trim_sources_own_shard(self, tmp_path, news_label, recent_label):
        """Trimming is decided by the configured source name; document labels play no part."""
        sources = []
        for name, label in (("news", news_label), ("recent", recent_label)):
            path = tmp_path / f"{name}.jsonl"
            write_shard(hundred_token_shard(source=label), path)
            sources.append((name, "formal", [str(path)]))
        shards, report = assemble(sources, budget_tokens=1500, trim_source="news", seed=4)
        assert report.totals()[1] == 1500
        assert [s.manifest.doc_count for s in shards] == [5, 10]
        assert shards[1].documents == hundred_token_shard(source=recent_label).documents


def _write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestMixSpec:
    """`korpus mix --spec` files follow the rules of a config's datasets[] entries."""

    def test_parse(self, tmp_path):
        write_shard(hundred_token_shard(), tmp_path / "a.jsonl")
        payload = {
            "name": "quality",
            "sources": [{"source": "gc4", "domain": "formal", "paths": ["a.jsonl"]}],
            "budget_tokens": None,
            "trim_source": None,
            "seed": 3,
        }
        spec = parse_mix_spec(_write_spec(tmp_path, payload))
        payload["sources"][0]["paths"] = [tmp_path / "a.jsonl"]  # against the spec's directory
        assert spec == payload

    def test_missing_shard_names_source(self, tmp_path):
        path = _write_spec(tmp_path, {
            "name": "d", "sources": [{"source": "ghost", "domain": "formal",
                                      "paths": ["nix.jsonl"]}]})
        with pytest.raises(ConfigError,
                           match=r"^\$\.sources\[0\]\.paths\[0\]: no files match 'nix\.jsonl'$"):
            parse_mix_spec(path)

    def test_trim_source_must_exist(self, tmp_path):
        path = _write_spec(tmp_path, {
            "name": "d", "sources": [{"source": "a", "domain": "formal", "paths": ["x"]}],
            "budget_tokens": 10, "trim_source": "missing"})
        with pytest.raises(ConfigError, match=r"^\$\.trim_source: 'missing' not among"):
            parse_mix_spec(path)

    def test_parse_malformed(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^\$: 'sources' is a required property$"):
            parse_mix_spec(_write_spec(tmp_path, {"name": "x"}))
