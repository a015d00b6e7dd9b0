import dataclasses
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry
from referencing.jsonschema import DRAFT202012

from korpus import core
from korpus.core import (
    CorpusShard, Document, Domain, PipelineConfig, fnv1a_hex, merge_shards,
    read_manifest, read_shard, tokenize, write_shard,
)
from korpus.errors import IntegrityError, ShardFormatError
from korpus.pipeline import _MIX_SPEC_VALIDATOR, _schema_diagnostics, load_schema

from conftest import (
    KERNEL_SETTINGS, make_doc, make_shard, run_under_kernels, write_legacy_shard,
)
from oracles import oracle_checksum, oracle_fnv1a


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
        assert dataclasses.replace(d, text="nur zwei").token_count == 2
        with pytest.raises(TypeError):
            Document(id="x", source="s", domain="medical", text="a", token_count=7)

    def test_domain_coerced(self):
        d = Document(id="x", source="s", domain="medical", text="a")
        assert d.domain is Domain.MEDICAL

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            Document(id="x", source="s", domain="poetry", text="a")


# Strings with every character that JSON escapes or that a careless encoder
# might: quotes, backslashes, C0 controls, DEL, U+2028/2029, non-BMP.
json_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "/", "\x7f", "\u2028", "\u2029", "\U0001F600", "\U0010FFFF"]),
    st.characters(max_codepoint=0x1F),
    st.characters(codec="utf-8"),
), max_size=20)

docs_strategy = st.lists(
    st.tuples(
        st.text(alphabet="abcdefgäöü ", min_size=0, max_size=40),
        st.sampled_from([d.value for d in Domain]),
    ),
    min_size=0,
    max_size=30,
)


def set_fields(i, **fields):
    """An edit of line i of a shard: set JSON fields, dumped with ASCII escapes."""
    def edit(lines):
        obj = json.loads(lines[i])
        obj.update(fields)
        lines[i] = json.dumps(obj)
        return lines
    return edit


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

    @pytest.mark.parametrize("edit,message", [
        (set_fields(0, text=7), ":1: field 'text' must be a string"),
        (set_fields(0, domain="poetry"), ":1: unknown domain 'poetry'"),
        (lambda lines: ["[1, 2]"] + lines, ":1: expected a JSON object"),
        (lambda lines: lines + lines[-1:], ":4: multiple manifest lines"),
        (lambda lines: lines + lines[:1], ":4: record after manifest line"),
        (lambda lines: lines[:1] + [""] + lines[1:], None),
        (lambda lines: [json.dumps(json.loads(line)) for line in lines], None),
        (set_fields(2, doc_count=2.0), ":3: field 'doc_count' must be a JSON integer"),
        (set_fields(2, token_count=True), ":3: field 'token_count' must be a JSON integer"),
        (set_fields(2, source=1), ":3: field 'source' must be a string"),
        (set_fields(2, checksum=None), ":3: field 'checksum' must be a string"),
        (lambda lines: lines[:2] + ['{"__manifest__": true}'], ":3: missing field 'source'"),
        (set_fields(1, id="b\ud800"), ":2: field 'id' holds a lone surrogate"),
        (set_fields(1, source="s\udfff"), ":2: field 'source' holds a lone surrogate"),
        (set_fields(1, domain="\ud800formal"), ":2: field 'domain' holds a lone surrogate"),
        (set_fields(1, text="Grüße \ud800"), ":2: field 'text' holds a lone surrogate"),
        (set_fields(2, source="test\ud800"), ":3: field 'source' holds a lone surrogate"),
    ], ids=["non-string", "unknown-domain", "not-an-object", "two-manifests",
            "record-after-manifest", "blank-line", "ascii-escapes", "float-count",
            "bool-count", "numeric-source", "null-checksum", "bare-manifest",
            "surrogate-id", "surrogate-source", "surrogate-domain", "surrogate-text",
            "surrogate-manifest"])
    def test_line_checks(self, tmp_path, edit, message):
        """Each line is checked where it is read; `None`: the shard reads back whole."""
        shard = make_shard(["eins zwei", "Grüße 😀 drei"])
        path = tmp_path / "s.jsonl"
        write_shard(shard, path)
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if message is None:
            assert read_shard(path) == shard
        else:
            with pytest.raises(ShardFormatError, match=f"^{re.escape(str(path) + message)}$"):
                read_shard(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines, None),
        (lambda lines: lines + ["", ""], None),
        (lambda lines: [json.dumps(json.loads(line)) for line in lines], None),
        (set_fields(2, doc_count=2.0), ": last line: field 'doc_count' must be a JSON integer"),
        (set_fields(2, token_count=True), ": last line: field 'token_count' must be a JSON integer"),
        (set_fields(2, source=1), ": last line: field 'source' must be a string"),
        (set_fields(2, checksum=None), ": last line: field 'checksum' must be a string"),
        (lambda lines: lines[:2] + ['{"__manifest__": true}'], ": last line: missing field 'source'"),
        (set_fields(2, source="test\ud800"), ": last line: field 'source' holds a lone surrogate"),
        (lambda lines: lines[:2] + ["{oops"], ": last line: invalid JSON (Expecting property name "
                                              "enclosed in double quotes)"),
        (lambda lines: lines[:2], ": missing manifest line"),
        (lambda lines: [], ": missing manifest line"),
    ], ids=["as-written", "trailing-blank-lines", "ascii-escapes", "float-count", "bool-count",
            "numeric-source", "null-checksum", "bare-manifest", "surrogate-manifest",
            "invalid-json", "records-only", "blank-only"])
    def test_read_manifest_checks_the_last_line(self, tmp_path, edit, message):
        """`read_manifest` gives `read_shard`'s manifest, or its check of that line, from the tail."""
        shard = make_shard(["eins zwei", "Grüße 😀 drei"])
        path = tmp_path / "s.jsonl"
        write_shard(shard, path)
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if message is None:
            assert read_manifest(path) == shard.manifest
        else:
            with pytest.raises(ShardFormatError, match=f"^{re.escape(str(path) + message)}$"):
                read_manifest(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("source_len", [1, 3900, 4000, 4096, 9000, 40000])
    def test_read_manifest_across_blocks_and_line_breaks(self, tmp_path, newline, source_len):
        """The last line may be longer than the tail block and start at any offset,
        or be the only line; any line break that `read_shard` reads ends it."""
        source = "s" * source_len
        for docs in (["eins zwei", "drei " * (source_len % 700)], []):
            shard = make_shard(docs, source=source)
            path = tmp_path / "s.jsonl"
            write_shard(shard, path)
            lines = path.read_bytes().splitlines()
            path.write_bytes(newline.encode().join(lines + [b"", b""]))
            assert read_manifest(path) == read_shard(path).manifest == shard.manifest
            path.write_bytes(newline.encode().join(lines[:-1]))
            with pytest.raises(ShardFormatError, match=": missing manifest line$"):
                read_manifest(path)

    def test_read_manifest_not_utf8(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_shard(make_shard(["eins"], source="Grüße"), path)
        path.write_bytes(path.read_bytes().decode("utf-8").encode("latin-1"))
        with pytest.raises(ShardFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read_manifest(path)

    def test_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes('{"id": "a", "source": "s", "domain": "formal", "text": "Grüße"}\n'
                         .encode("latin-1"))
        with pytest.raises(ShardFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
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

    def test_edited_text_is_integrity_error(self, tmp_path):
        """The counts still match: only the checksum sees the edit."""
        path = tmp_path / "s.jsonl"
        write_shard(make_shard(["eins zwei", "drei"]), path)
        path.write_text(path.read_text(encoding="utf-8").replace("eins", "eiNs"), encoding="utf-8")
        with pytest.raises(IntegrityError, match="manifest mismatch"):
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(json_text, json_text, st.sampled_from(list(Domain)), json_text),
                    max_size=8, unique_by=lambda r: r[0]))
    def test_record_lines_equal_json_dumps(self, tmp_path_factory, records):
        docs = [Document(id=i, source=s, domain=dom, text=t) for i, s, dom, t in records]
        shard = CorpusShard.from_documents(docs)
        path = tmp_path_factory.mktemp("lines") / "s.jsonl"
        write_shard(shard, path)
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines[-1] == ""
        assert lines[:-2] == [json.dumps({"id": d.id, "source": d.source, "domain": d.domain.value,
                                          "text": d.text}, ensure_ascii=False) for d in docs]
        assert read_shard(path) == shard

    @pytest.mark.parametrize("field", ["id", "source", "text"])
    def test_lone_surrogate_fails_the_write(self, tmp_path, field):
        fields = {"id": "a", "source": "s", "text": "eins", field: "x\ud800y"}
        shard = CorpusShard(
            (make_doc("b", "zwei"), Document(domain=Domain.FORMAL, **fields)),
            make_shard(["zwei"]).manifest)  # the write fails before the manifest line
        path = tmp_path / "s.jsonl"
        with pytest.raises(UnicodeEncodeError):
            write_shard(shard, path)
        assert list(tmp_path.iterdir()) == []

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
        assert fnv1a_hex(["", "hallo", "", " welt", ""]) == fnv1a_hex(["hallo welt"])
        assert fnv1a_hex(["hallo welt"]) == "b2:edf06e8ecd025316"
        assert fnv1a_hex([]) == fnv1a_hex([""]) == oracle_checksum(b"")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(max_size=300), max_size=8))
    def test_fnv1a_bytes_is_blake2b_of_the_joined_blocks(self, blocks):
        assert core.fnv1a_bytes(blocks) == oracle_checksum(b"".join(blocks))

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 127, 128, 129, 8191, 8192, 8193,
                                        16383, 16384, 16385, 65471, 65472, 65473, 65535,
                                        65536, 65537, 2 * 65536 + 8193, 3 * 65536 + 1])
    def test_fnv1a_bytes_at_lane_and_block_edges(self, length):
        """Lengths at and next to multiples of 64 and 128 bytes (blake2b compresses
        128-byte blocks and holds the last one back), of 8 KiB and of 64 KiB, hashed
        whole and cut into blocks of those sizes. The lengths, and the name, come
        from the numpy FNV-1a that blake2b replaced, whose lanes were 64 bytes."""
        data = random.Random(length).randbytes(length)
        want = oracle_checksum(data)
        assert core.fnv1a_bytes([data]) == want
        for cut in (1, 64, 127, 128, 129, 8192, 65536):
            assert core.fnv1a_bytes(data[i:i + cut] for i in range(0, length, cut)) == want

    def test_fnv1a_bytes_peak(self):
        """The blocks are hashed as they come, never joined."""
        data = random.Random(3).randbytes(1 << 20)
        blocks = [data[i:i + 65536] for i in range(0, len(data), 65536)]
        core.fnv1a_bytes(blocks)
        tracemalloc.start()
        try:
            core.fnv1a_bytes(blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 10, peak

    @KERNEL_SETTINGS
    def test_fnv1a_bytes_equal_under_other_kernels(self, setting):
        """Every checksum of a workspace rests on this function: its digest does
        not depend on which SIMD kernels numpy and OpenBLAS pick at run time."""
        code = ("import random; from korpus.core import fnv1a_bytes; "
                "print(fnv1a_bytes([random.Random(4).randbytes(1 << 20)]))")
        want = f"{oracle_checksum(random.Random(4).randbytes(1 << 20))}\n"
        assert run_under_kernels(code, {}) == want
        assert run_under_kernels(code, setting) == want

    def test_fnv1a_hex_is_blake2b_of_the_utf8_text(self):
        texts = [f"{i:05d} Grüße " + "x" * (i % 97) for i in range(10_000)]
        assert fnv1a_hex(texts) == oracle_checksum("".join(texts).encode("utf-8"))

    @pytest.mark.parametrize("cut", [1, 16385, 65535 - 99, 65535, 65536, 65537, 2 * 65536 + 3])
    def test_fnv1a_hex_split_at_a_block_edge(self, cut):
        """Cuts at and next to multiples of blake2b's 128-byte block."""
        rng = random.Random(cut)
        text = "".join(rng.choice("ab c") for _ in range(3 * 65536))  # one byte per character
        whole = fnv1a_hex([text])
        assert whole == oracle_checksum(text.encode("utf-8"))
        assert fnv1a_hex([text[:cut], text[cut:]]) == whole
        assert fnv1a_hex([text[:cut - 1], "", text[cut - 1:cut + 1], text[cut + 1:]]) == whole
        pieces = [text[i:i + 100] for i in range(0, len(text), 100)]
        assert fnv1a_hex(pieces[:cut // 100] + [""] + pieces[cut // 100:]) == whole

    def test_manifest_counts_match_recomputation(self):
        shard = make_shard(["ein zwei drei", "vier"])
        assert shard.manifest.token_count == sum(d.token_count for d in shard.documents)
        shard.verify()


class TestLegacyChecksum:
    """Shards written before korpus 0.4.0 hold a bare 16-hex FNV-1a checksum."""

    # A shard as korpus 0.3.0 wrote it, byte for byte.
    SHARD_0_3 = ('{"id": "a", "source": "s", "domain": "formal", "text": "hallo welt"}\n'
                 '{"__manifest__": true, "source": "s", "doc_count": 1, "token_count": 2, '
                 '"checksum": "de6d68a882d59a51"}\n')

    @pytest.fixture
    def byte_loop_calls(self, monkeypatch) -> list[int]:
        calls = []
        real = core._fnv1a_legacy
        monkeypatch.setattr(core, "_fnv1a_legacy", lambda texts: calls.append(1) or real(texts))
        return calls

    def test_a_0_3_shard_reads_with_its_b2_manifest(self, tmp_path, byte_loop_calls):
        path = tmp_path / "s.jsonl"
        path.write_text(self.SHARD_0_3, encoding="utf-8")
        assert read_manifest(path).checksum == f"{oracle_fnv1a(b'hallo welt'):016x}"
        shard = read_shard(path)
        assert shard == CorpusShard.from_documents([make_doc("a", "hallo welt", source="s")])
        assert shard.manifest.checksum == "b2:edf06e8ecd025316"
        assert byte_loop_calls == [1]

    def test_reads_with_the_b2_manifest(self, tmp_path, byte_loop_calls):
        shard = make_shard(["über alles", "großes ß", "", "eins zwei"], source="s")
        path = tmp_path / "s.jsonl"
        write_legacy_shard(shard, path)
        assert read_shard(path) == shard
        assert byte_loop_calls == [1]
        write_shard(read_shard(path), path)  # never written back in the legacy form
        assert read_manifest(path) == shard.manifest

    def test_b2_manifest_skips_the_byte_loop(self, tmp_path, byte_loop_calls):
        path = tmp_path / "s.jsonl"
        write_shard(make_shard(["eins zwei"]), path)
        read_shard(path)
        assert byte_loop_calls == []

    def test_flipped_text_byte_is_integrity_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_legacy_shard(make_shard(["eins zwei", "drei"]), path)
        data = bytearray(path.read_bytes())
        data[data.index(b"eins")] ^= 1  # "dins": the counts still match
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="manifest mismatch"):
            read_shard(path)

    @pytest.mark.parametrize("checksum", [
        "DE6D68A882D59A51", "de6d68a882d59a5", "de6d68a882d59a510", " de6d68a882d59a51",
        "0xde6d68a882d59a", "b2:de6d68a882d59a51", "b2:", "",
    ])
    def test_other_forms_fail_without_the_byte_loop(self, tmp_path, byte_loop_calls, checksum):
        path = tmp_path / "s.jsonl"
        write_legacy_shard(make_shard(["hallo welt"], source="s"), path, checksum=checksum)
        with pytest.raises(IntegrityError, match="manifest mismatch"):
            read_shard(path)
        assert byte_loop_calls == []


class TestMergeShards:
    def test_order_preserved(self):
        a = make_shard(["eins"], prefix="a")
        b = make_shard(["zwei"], prefix="b")
        merged = merge_shards([a, b], source="m")
        assert [d.id for d in merged.documents] == ["a-0", "b-0"]

    @pytest.mark.parametrize("source,named", [("m", "m"), (None, "t")])
    def test_repeated_id_across_shards_names_id_and_source(self, source, named):
        a = make_shard(["eins", "zwei"], source="t", prefix="x")
        b = make_shard(["drei"], source="t", prefix="x")
        with pytest.raises(IntegrityError,
                           match=f"^duplicate document id 'x-0' in source '{named}'$"):
            merge_shards([a, b], source=source)

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


def _config_with_params(params):
    return {
        "params": params,
        "sources": [{"name": "s", "domain": "formal", "paths": ["s.jsonl"]}],
        "datasets": [{"name": "d", "sources": ["s"]}],
    }


class TestPipelineConfig:
    def test_defaults_valid(self):
        """The defaults live only in the dataclass; the schema's rules must accept them."""
        config = _config_with_params(dataclasses.asdict(PipelineConfig()))
        assert _schema_diagnostics(config) == []

    @pytest.mark.parametrize("field,value", [
        ("min_match_tokens", 1),
        ("langid_threshold", 1.5),
        ("ngram_order", 0),
        ("chunk_budget_tokens", 0),
        ("dedup_policy", "drop_everything"),
    ])
    def test_invariants(self, field, value):
        """The schema is the only rule set for config values; it rejects each broken one."""
        params = {**dataclasses.asdict(PipelineConfig()), field: value}
        diagnostics = _schema_diagnostics(_config_with_params(params))
        assert any(d.startswith(f"$.params.{field}:") for d in diagnostics), diagnostics


def _refs(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "$ref":
                yield value
            else:
                yield from _refs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _refs(value)


def test_config_schema_is_valid_and_every_ref_resolves():
    """A broken schema or `$ref` would otherwise fail only once a config reaches it."""
    schema = load_schema()
    Draft202012Validator.check_schema(schema)
    resolver = Registry().resolver_with_root(DRAFT202012.create_resource(schema))
    refs = set(_refs(schema)) | set(_refs(_MIX_SPEC_VALIDATOR.schema))
    assert {"#/$defs/domain", "#/$defs/seed", "#/$defs/dataset", "#/$defs/mix_spec"} <= refs
    for ref in refs:
        resolver.lookup(ref)  # raises referencing.exceptions.Unresolvable
