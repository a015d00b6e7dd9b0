import json

import pytest
from hypothesis import given, settings, strategies as st

from korpus.core import (
    CorpusShard, Document, Domain, PipelineConfig, fnv1a_hex, merge_shards,
    read_shard, tokenize, write_shard,
)
from korpus.errors import IntegrityError, ShardFormatError

from conftest import make_doc, make_shard


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_split(self):
        assert tokenize("Besuch & Co") == ["Besuch", "&", "Co"]

    def test_long_repeat_count(self):
        text = "a b " * 250
        assert len(text) == 1000
        # independent oracle: count non-empty segments after manual splitting
        expected = sum(1 for part in text.split(" ") if part)
        assert len(tokenize(text)) == expected == 500

    def test_unicode_whitespace(self):
        assert tokenize("ein Wort\tund\nnoch") == ["ein", "Wort", "und", "noch"]

    @given(st.text())
    def test_join_idempotence(self, s):
        toks = tokenize(s)
        assert tokenize(" ".join(toks)) == toks


class TestDocument:
    def test_token_count_derived(self):
        d = make_doc("x", "drei kleine Worte")
        assert d.token_count == 3

    def test_domain_coerced(self):
        d = Document(id="x", source="s", domain="medical", text="a")
        assert d.domain is Domain.MEDICAL

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            Document(id="x", source="s", domain="poetry", text="a")


docs_strategy = st.lists(
    st.tuples(
        st.text(alphabet="abcdefgäöü ", min_size=0, max_size=40),
        st.sampled_from([d.value for d in Domain]),
    ),
    min_size=0,
    max_size=30,
)


class TestShardIO:
    def test_three_records(self, tmp_path):
        shard = make_shard(["eins zwei", "drei", "vier fünf sechs"])
        path = tmp_path / "s.jsonl"
        write_shard(shard, path)
        back = read_shard(path)
        assert back == shard
        assert back.manifest.doc_count == 3

    def test_missing_text_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "source": "s", "domain": "formal", "text": "ok"}\n'
            '{"id": "b", "source": "s", "domain": "formal"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ShardFormatError, match=r":2: missing field 'text'"):
            read_shard(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "source": "s", "domain": "formal", "text": "x"}\n{oops\n',
                        encoding="utf-8")
        with pytest.raises(ShardFormatError, match=":2:"):
            read_shard(path)

    def test_missing_manifest(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "source": "s", "domain": "formal", "text": "x"}\n',
                        encoding="utf-8")
        with pytest.raises(ShardFormatError, match="manifest"):
            read_shard(path)

    def test_manifest_mismatch_is_integrity_error(self, tmp_path):
        shard = make_shard(["eins zwei", "drei"])
        path = tmp_path / "s.jsonl"
        write_shard(shard, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        manifest = json.loads(lines[-1])
        manifest["token_count"] += 1
        lines[-1] = json.dumps(manifest, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IntegrityError):
            read_shard(path)

    def test_duplicate_ids_rejected(self):
        docs = [make_doc("same", "a"), make_doc("same", "b")]
        shard = CorpusShard.from_documents(docs)
        with pytest.raises(IntegrityError, match="duplicate"):
            shard.verify()

    def test_write_deterministic(self, tmp_path):
        shard = make_shard(["über alles", "großes ß", ""])
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_shard(shard, a)
        write_shard(shard, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_shard_round_trip(self, tmp_path):
        shard = make_shard([])
        path = tmp_path / "empty.jsonl"
        write_shard(shard, path)
        assert path.read_text(encoding="utf-8").count("\n") == 1  # manifest only
        assert read_shard(path) == shard

    @settings(max_examples=30, deadline=None)
    @given(docs_strategy)
    def test_round_trip_random(self, tmp_path_factory, entries):
        docs = [
            Document(id=f"d{i}", source="rnd", domain=domain, text=text)
            for i, (text, domain) in enumerate(entries)
        ]
        shard = CorpusShard.from_documents(docs, source="rnd")
        path = tmp_path_factory.mktemp("rt") / "s.jsonl"
        write_shard(shard, path)
        assert read_shard(path) == shard


class TestChecksum:
    def test_fnv_stability(self):
        # fixed reference value keeps the on-disk format stable across releases
        assert fnv1a_hex(["hallo ", "welt"]) == fnv1a_hex(["hallo welt"])
        assert fnv1a_hex(["hallo welt"]) == "de6d68a882d59a51"

    def test_manifest_counts_match_recomputation(self):
        shard = make_shard(["ein zwei drei", "vier"])
        assert shard.manifest.token_count == sum(d.token_count for d in shard.documents)
        shard.verify()


class TestMergeShards:
    def test_order_preserved(self):
        a = make_shard(["eins"], prefix="a")
        b = make_shard(["zwei"], prefix="b")
        merged = merge_shards([a, b], source="m")
        assert [d.id for d in merged.documents] == ["a-0", "b-0"]

    @pytest.mark.parametrize("source", ["m", None])
    def test_single_shard_keeps_manifest_without_rehash(self, monkeypatch, source):
        from korpus import core
        docs = [make_doc("x", "eins zwei", source="a"), make_doc("y", "drei", source="b")]
        shard = CorpusShard.from_documents(docs, source="s")
        calls = []
        real = core.fnv1a_hex
        monkeypatch.setattr(core, "fnv1a_hex", lambda texts: calls.append(1) or real(texts))
        merged = merge_shards([shard], source=source)
        assert calls == []
        assert merged.documents == shard.documents
        assert merged.manifest.source == ("mixed" if source is None else source)
        monkeypatch.undo()
        assert merged.manifest == CorpusShard.from_documents(docs, source=source).manifest


class TestPipelineConfig:
    def test_defaults_valid(self):
        assert PipelineConfig().validate() == []

    @pytest.mark.parametrize("field,value", [
        ("min_match_tokens", 1),
        ("langid_threshold", 1.5),
        ("ngram_order", 0),
        ("chunk_budget_tokens", 0),
        ("dedup_policy", "drop_everything"),
    ])
    def test_invariants(self, field, value):
        cfg = PipelineConfig(**{field: value})
        assert cfg.validate(), f"{field}={value} should be rejected"
