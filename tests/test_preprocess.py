import html
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from korpus.preprocess import clean_shard, strip_urls, unescape_html

from conftest import make_doc, make_shard
from korpus.core import CorpusShard


class TestUnescapeHtml:
    def test_named_entity(self):
        assert unescape_html("Besuch &amp; Co") == "Besuch & Co"

    def test_identity_on_plain_text(self):
        assert unescape_html("kein Entity") == "kein Entity"

    def test_numeric_hex_and_decimal(self):
        # verified against the stdlib entity decoder as an independent table
        assert unescape_html("&#x41;&#66;") == html.unescape("&#x41;&#66;") == "AB"

    @pytest.mark.parametrize("entity,expected", [
        ("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'"), ("&nbsp;", " "),
    ])
    def test_standard_named_set(self, entity, expected):
        assert unescape_html(entity) == expected == html.unescape(entity)

    @pytest.mark.parametrize("malformed", [
        "&amp", "&#;", "&#x;", "&unknown;", "&#xZZ;", "& amp;", "&#1114112;", "&#xD800;",
    ])
    def test_malformed_pass_through(self, malformed):
        assert unescape_html(malformed) == malformed

    def test_numeric_against_stdlib_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            cp = rng.randrange(0x20, 0x2FFF)
            ref = f"&#{cp};" if rng.random() < 0.5 else f"&#x{cp:x};"
            text = f"vorher {ref} nachher"
            assert unescape_html(text) == html.unescape(text)

    @settings(max_examples=100)
    @given(st.text())
    def test_idempotent_on_entity_free_output(self, s):
        once = unescape_html(s)
        if "&" not in once:
            assert unescape_html(once) == once


URL_MARKERS = ["https://example.de/a?b=c", "http://alt.example.com", "ftp://files.example.org/x",
               "www.beispiel.de/pfad"]


class TestStripUrls:
    def test_single_url(self):
        assert strip_urls("siehe https://example.de heute") == ("siehe heute", 1)

    def test_identity(self):
        assert strip_urls("kein Link") == ("kein Link", 0)

    def test_url_at_start_and_end(self):
        assert strip_urls("https://a.de danach") == ("danach", 1)
        assert strip_urls("davor www.b.de") == ("davor", 1)

    def test_www_must_start_word(self):
        text = "Awww.kein Treffer"
        assert strip_urls(text) == (text, 0)

    def test_scheme_mid_word(self):
        assert strip_urls("klick(https://x.de/y) jetzt") == ("klick( jetzt", 1)

    def test_planted_urls_match_reference_scan(self, rng):
        words = ["das", "ist", "ein", "langer", "text", "mit", "vielen", "wörtern"]
        for _ in range(50):
            n_urls = rng.randrange(0, 6)
            tokens = [rng.choice(words) for _ in range(rng.randrange(3, 15))]
            for _ in range(n_urls):
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(URL_MARKERS))
            text = " ".join(tokens)
            # independent reference: count matches with a separately written regex
            expected = len(re.findall(r"(?:^|(?<=\s))(?:https?://|ftp://|www\.)", text))
            cleaned, count = strip_urls(text)
            assert count == expected
            assert "http" not in cleaned and "www." not in cleaned

    @settings(max_examples=100)
    @given(st.text(alphabet="abc ://.wtph\n", max_size=60))
    def test_idempotent(self, s):
        once, _ = strip_urls(s)
        again, n = strip_urls(once)
        assert again == once and n == 0


class TestFilterShort:
    def test_nineteen_words_dropped_at_twenty(self):
        doc19 = " ".join(f"w{i}" for i in range(19))
        doc20 = " ".join(f"w{i}" for i in range(20))
        shard = make_shard([doc19, doc20])
        filtered, stats = clean_shard(shard, 20)
        assert [d.token_count for d in filtered.documents] == [20]
        assert stats.dropped_short == 1
        assert stats.output_docs == stats.input_docs - stats.dropped_short

    def test_zero_threshold_is_identity(self):
        shard = make_shard(["", "ein wort", "mehr als eins"])
        filtered, stats = clean_shard(shard, 0)
        assert filtered.documents == shard.documents
        assert stats.dropped_short == 0

    def test_matches_bruteforce_word_count(self, rng):
        texts = [" ".join("w" for _ in range(rng.randrange(0, 40))) for _ in range(100)]
        shard = make_shard(texts)
        for threshold in (0, 5, 20, 39):
            filtered, _ = clean_shard(shard, threshold)
            expected = [d.id for d in shard.documents if len(d.text.split()) >= threshold]
            assert [d.id for d in filtered.documents] == expected

    def test_monotone_in_threshold(self, rng):
        texts = [" ".join("w" for _ in range(rng.randrange(0, 30))) for _ in range(50)]
        shard = make_shard(texts)
        previous = None
        for threshold in range(0, 32):
            kept = {d.id for d in clean_shard(shard, threshold)[0].documents}
            if previous is not None:
                assert kept <= previous
            previous = kept


class TestCleanShard:
    def test_pipeline_order_and_stats(self):
        long_body = " ".join(f"wort{i}" for i in range(25))
        docs = [
            make_doc("a", f"Besuch &amp; Co {long_body} https://spam.example.de"),
            make_doc("b", "nur kurz"),
            make_doc("c", long_body),
        ]
        shard = CorpusShard.from_documents(docs)
        cleaned, stats = clean_shard(shard, 20)
        assert stats.input_docs == 3
        assert stats.unescaped_docs == 1
        assert stats.urls_removed == 1
        assert stats.dropped_short == 1
        assert stats.output_docs == 2
        kept = {d.id: d for d in cleaned.documents}
        assert set(kept) == {"a", "c"}
        assert "&amp;" not in kept["a"].text and "https://" not in kept["a"].text

    def test_ids_sources_domains_unchanged(self):
        docs = [make_doc("keep-id", "text &amp; mehr " + "wort " * 30, domain="legal")]
        shard = CorpusShard.from_documents(docs)
        cleaned, _ = clean_shard(shard, 1)
        out = cleaned.documents[0]
        assert (out.id, out.source, out.domain) == (docs[0].id, docs[0].source, docs[0].domain)

    def test_token_count_recomputed(self):
        doc = make_doc("x", "bleib hier https://weg.example.de und hier " + "w " * 20)
        shard = CorpusShard.from_documents([doc])
        cleaned, _ = clean_shard(shard, 0)
        out = cleaned.documents[0]
        assert out.token_count == len(out.text.split())

    def test_url_not_counted_toward_minimum(self):
        # 19 words plus one URL: the URL is stripped first, so the doc is short
        text = " ".join(f"w{i}" for i in range(19)) + " https://zu.example.de"
        shard = CorpusShard.from_documents([make_doc("x", text)])
        cleaned, stats = clean_shard(shard, 20)
        assert stats.output_docs == 0 and stats.dropped_short == 1

    def test_output_checksummed_once(self, monkeypatch):
        from korpus import core
        shard = CorpusShard.from_documents([make_doc("x", "kurz"), make_doc("y", "w " * 30)])
        calls = []
        real = core.fnv1a_hex
        monkeypatch.setattr(core, "fnv1a_hex", lambda texts: calls.append(1) or real(texts))
        cleaned, _ = clean_shard(shard, 20)
        assert len(calls) == 1
        assert cleaned.manifest == CorpusShard.from_documents(cleaned.documents).manifest
