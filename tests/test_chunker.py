import os
import random
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from korpus import chunker
from korpus.chunker import (
    Chunk, SubprocessTranslator, Translator, chunk_document,
    chunk_sentences, identity_translator, split_sentences, translate_chunks, translate_shard,
)
from korpus.core import tokenize
from korpus.errors import ConfigError

from conftest import de_text, make_doc, make_shard
from oracles import oracle_chunk_sentences, oracle_split_sentences, oracle_translate_shard

# Abbreviations in several cases, terminals, ellipses, digits and words that
# start a sentence or continue one, joined by runs of mixed whitespace.
_PIECES = st.sampled_from([
    "Dr.", "dr.", "z.B.", "Z.B.", "bzw.", "usw.", "S.", "d.h.", "Nr.", "etc.",
    "Haus.", "Haus", "haus.", "Ende!", "Wie?", "so…", "…", "...", "1990.", "25", "7.",
    "Müller", "über", "Übel", "ok", ".", "!", "?", "A", "x.", "Ä.",
    # str.isdigit/isupper, not [0-9A-Z]: Arabic-Indic and superscript digits,
    # a non-ASCII capital, a titlecase letter (neither upper nor a digit).
    "٣", "²", "Öl", "ǅ",
])
_SPLIT_TEXTS = st.lists(
    st.tuples(_PIECES, st.sampled_from([" ", "  ", "\n", "\t ", "", "\u3000"])), max_size=40,
).map(lambda parts: "".join(p + sep for p, sep in parts))


class TestSplitSentences:
    def test_clear_boundary(self):
        assert split_sentences("Das ist gut. Wirklich gut.") == ["Das ist gut.", "Wirklich gut."]

    def test_abbreviations_do_not_split(self):
        assert split_sentences("Dr. Müller kam z.B. spät.") == ["Dr. Müller kam z.B. spät."]

    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_question_and_exclamation(self):
        got = split_sentences("Wie bitte? Na gut! Dann los.")
        assert got == ["Wie bitte?", "Na gut!", "Dann los."]

    def test_digit_starts_sentence(self):
        assert split_sentences("Es begann 1990. 25 Jahre später war es anders.") == \
            ["Es begann 1990.", "25 Jahre später war es anders."]

    def test_lowercase_continuation_not_split(self):
        assert split_sentences("Der Satz bricht hier ab. und geht klein weiter") == \
            ["Der Satz bricht hier ab. und geht klein weiter"]

    def test_losslessness(self):
        text = "Heute ist es kalt.  Morgen   wird es z.B. wärmer! Oder?  Nr. 7 bleibt offen."
        sentences = split_sentences(text)
        assert " ".join(sentences) == " ".join(text.split())
        assert all(s for s in sentences)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_losslessness_random_texts(self, seed):
        rng = random.Random(seed)
        text = de_text(rng, rng.randrange(0, 6))
        sentences = split_sentences(text)
        assert " ".join(sentences) == " ".join(text.split())
        assert all(sentences)

    @settings(max_examples=300, deadline=None)
    @given(_SPLIT_TEXTS)
    def test_matches_prefix_copying_oracle(self, text):
        assert split_sentences(text) == oracle_split_sentences(text)

    def test_megabyte_document_in_linear_time(self, rng):
        # ~1M characters in ~110k short sentences; copying the text prefix at
        # each boundary took about 50 s.
        pool = ["Ja.", "Nein!", "Gut so.", "Wirklich?", "Es war 1990.", "Na und…",
                "Dr. Müller kam.", "7 Tage."]
        sentences = [rng.choice(pool) for _ in range(110_000)]
        text = " ".join(sentences)
        assert len(text) > 1_000_000
        start = time.perf_counter()
        got = split_sentences(text)
        assert time.perf_counter() - start < 10.0
        assert got == sentences


class TestChunkSentences:
    def test_greedy_packing_trace(self):
        counts = {"s1": 60, "s2": 60, "s3": 60}
        chunks = chunk_sentences(["s1", "s2", "s3"], 128, token_counter=counts.get)
        assert [list(c.sentences) for c in chunks] == [["s1", "s2"], ["s3"]]
        assert [c.token_count for c in chunks] == [120, 60]
        assert [c.index for c in chunks] == [0, 1]

    def test_single_small_sentence(self):
        chunks = chunk_sentences(["zehn token"], 128, token_counter=lambda s: 10)
        assert len(chunks) == 1 and not chunks[0].oversized

    def test_oversized_sentence_kept_whole(self):
        chunks = chunk_sentences(["riesig"], 128, token_counter=lambda s: 200)
        assert len(chunks) == 1
        assert chunks[0].oversized and chunks[0].token_count == 200

    def test_oversized_between_normal(self):
        counts = {"a": 50, "b": 300, "c": 50}
        chunks = chunk_sentences(["a", "b", "c"], 128, token_counter=counts.get)
        assert [list(c.sentences) for c in chunks] == [["a"], ["b"], ["c"]]
        assert [c.oversized for c in chunks] == [False, True, False]

    def test_default_counter_is_whitespace_tokens(self):
        chunks = chunk_sentences(["ein zwei drei"], 2)
        assert chunks[0].oversized and chunks[0].token_count == 3

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            chunk_sentences(["x"], 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=0, max_size=30),
        st.integers(1, 64),
    )
    def test_invariants(self, lengths, budget):
        sentences = [f"s{i}" for i in range(len(lengths))]
        table = dict(zip(sentences, lengths))
        chunks = chunk_sentences(sentences, budget, token_counter=table.get)
        # losslessness
        assert [s for c in chunks for s in c.sentences] == sentences
        for c in chunks:
            if not c.oversized:
                assert c.token_count <= budget
            else:
                assert len(c.sentences) == 1
        # indices sequential
        assert [c.index for c in chunks] == list(range(len(chunks)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda budget: st.tuples(
        st.just(budget),
        st.lists(st.sampled_from([0, 1, budget - 1, budget, budget + 1, budget + 3])
                 | st.integers(0, budget + 3), max_size=30),
    )))
    def test_matches_flushing_oracle(self, budget_and_lengths):
        """Whole chunks equal the buffer-and-flush packing: sentences that fill
        the budget exactly, zero-token sentences after an oversized one."""
        budget, lengths = budget_and_lengths
        sentences = [f"s{i}" for i in range(len(lengths))]
        table = dict(zip(sentences, lengths))
        got = chunk_sentences(sentences, budget, token_counter=table.get, doc_id="d")
        assert got == oracle_chunk_sentences(sentences, budget, table.get, doc_id="d")

    def test_zero_token_sentences_around_an_oversized_one(self):
        counts = {"a": 0, "b": 5, "c": 0, "d": 3, "e": 0}
        chunks = chunk_sentences(list(counts), 3, token_counter=counts.get)
        assert [(c.sentences, c.token_count, c.oversized) for c in chunks] == [
            (("a",), 0, False), (("b",), 5, True), (("c", "d", "e"), 3, False)]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=25))
    def test_chunk_count_monotone_in_budget(self, lengths):
        sentences = [f"s{i}" for i in range(len(lengths))]
        table = dict(zip(sentences, lengths))
        previous = None
        for budget in (4, 8, 16, 32, 64):
            n = len(chunk_sentences(sentences, budget, token_counter=table.get))
            if previous is not None:
                assert n <= previous
            previous = n


class TestChunkDocument:
    def test_flat_map_reproduces_split(self, rng):
        doc = make_doc("d", de_text(rng, 8))
        chunks = chunk_document(doc, 30)
        assert [s for c in chunks for s in c.sentences] == split_sentences(doc.text)
        assert all(c.doc_id == "d" for c in chunks)

    def test_chunk_token_count_matches_text(self, rng):
        doc = make_doc("d", de_text(rng, 5))
        for c in chunk_document(doc, 40):
            assert c.token_count == len(tokenize(c.text))


class TestTranslation:
    def test_identity(self, rng):
        chunks = chunk_document(make_doc("d", de_text(rng, 4)), 32)
        results = translate_chunks(chunks, identity_translator())
        assert [r.text for r in results] == [c.text for c in chunks]
        assert all(r.error is None for r in results)

    def test_reversing_mock_preserves_order(self, rng):
        chunks = chunk_document(make_doc("d", de_text(rng, 4)), 32)
        reverser = Translator(lambda s: " ".join(reversed(s.split())))
        results = translate_chunks(chunks, reverser)
        for chunk, result in zip(chunks, results):
            assert result.text == " ".join(reversed(chunk.text.split()))

    def test_failure_recorded_pipeline_continues(self):
        chunks = [
            Chunk("d", 0, ("eins",), 1),
            Chunk("d", 1, ("zwei",), 1),
            Chunk("d", 2, ("drei",), 1),
        ]

        def flaky(text):
            if text == "zwei":
                raise RuntimeError("kaputt")
            return text

        results = translate_chunks(chunks, Translator(flaky))
        assert [r.error is None for r in results] == [True, False, True]
        assert results[1].text is None and "kaputt" in results[1].error


_MARKER = "KAPUTT"
_DOC_TEXTS = st.one_of(
    st.lists(st.lists(st.sampled_from(["Haus", "über", "Straße", "Köln", "Arzt", "ok", "7",
                                       _MARKER]), min_size=1, max_size=6)
             .map(lambda words: " ".join(words) + "."), max_size=6).map(" ".join),
    st.sampled_from(["", " \n\t"]),  # documents with no chunks
)
_LONG_TEXT = " ".join(["Die Straße in Köln ist lang und breit."] * 6)  # longer than any cap below


def _raise_on_marker(text: str) -> str:
    if _MARKER in text.split():
        raise RuntimeError(f"kaputt: {text}")
    return text


_TEXT_TRANSLATORS = {
    "identity": lambda s: s,
    "reverse-words": lambda s: " ".join(reversed(s.split())),
    "raise-on-marker": _raise_on_marker,
}


class TestTranslateShard:
    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_DOC_TEXTS, max_size=8), long_at=st.integers(0, 8),
           budget=st.integers(1, 12), cap=st.integers(20, 60),
           name=st.sampled_from(sorted(_TEXT_TRANSLATORS)))
    def test_batches_give_one_call_per_document(self, texts, long_at, budget, cap, name):
        """Results, translated shard (manifest included) and failures equal
        those of one translator call per document, with batches that cross
        documents, a document over the cap and documents with no chunks."""
        texts = texts[:long_at] + [_LONG_TEXT] + texts[long_at:]
        shard = make_shard(texts, source="notes", domain="medical", prefix="notes")
        translator = Translator(_TEXT_TRANSLATORS[name])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chunker, "_TRANSLATE_BATCH_CHARS", cap)
            got = translate_shard(shard, budget, translator)
        assert got == oracle_translate_shard(shard, budget, translator)


class TestSubprocessTranslator:
    def test_line_protocol_round_trip(self, rng):
        chunks = chunk_document(make_doc("d", de_text(rng, 3)), 32)
        cat = SubprocessTranslator([sys.executable, "-c",
                                    "import sys; sys.stdout.write(sys.stdin.read())"])
        results = translate_chunks(chunks, cat)
        assert [r.text for r in results] == [c.text for c in chunks]

    def test_uppercasing_command(self):
        chunks = [Chunk("d", 0, ("hallo welt",), 2)]
        upper = SubprocessTranslator([sys.executable, "-c",
                                      "import sys; sys.stdout.write(sys.stdin.read().upper())"])
        results = translate_chunks(chunks, upper)
        assert results[0].text == "HALLO WELT"

    def test_failing_command_reports_all_chunks(self):
        chunks = [Chunk("d", 0, ("x",), 1), Chunk("d", 1, ("y",), 1)]
        boom = SubprocessTranslator([sys.executable, "-c", "import sys; sys.exit(3)"])
        results = translate_chunks(chunks, boom)
        assert all(r.error is not None for r in results)

    def test_short_output_flags_missing_chunks(self):
        chunks = [Chunk("d", 0, ("x",), 1), Chunk("d", 1, ("y",), 1)]
        one_line = SubprocessTranslator([sys.executable, "-c",
                                         "import sys; sys.stdin.read(); print('nur eine')"])
        results = translate_chunks(chunks, one_line)
        assert results[0].text == "nur eine"
        assert results[1].error is not None

    @pytest.mark.parametrize("stdout,expected", [
        ("a\nb\n", ["a", "b"]),
        ("a\nb", ["a", "b"]),
        ("a\n\n", ["a", ""]),
        ("a\n", ["a", None]),
        ("", [None, None]),
        ("\n", ["", None]),
    ], ids=["two-lines", "no-final-newline", "empty-second-line", "one-line", "nothing",
            "one-empty-line"])
    def test_stdout_lines_to_texts(self, stdout, expected):
        """Text i gets stdout line i; one final newline ends the last line and
        is not an empty line of its own."""
        echo = SubprocessTranslator([sys.executable, "-c",
                                     f"import sys; sys.stdin.read(); sys.stdout.write({stdout!r})"])
        got = echo.translate_many(["x", "y"])
        assert [None if isinstance(r, Exception) else r for r in got] == expected
        for i, r in enumerate(got):
            if expected[i] is None:
                assert str(r) == f"translator produced no output for chunk {i}"

    @pytest.mark.parametrize("stdout", ["a\nb\nc\n", "eins\rzwei\ndrei\n"],
                             ids=["three-lines", "carriage-return"])
    def test_surplus_stdout_lines_fail_every_text(self, stdout):
        """A line too many shifts every later translation onto the wrong text."""
        echo = SubprocessTranslator([sys.executable, "-c",
                                     f"import sys; sys.stdin.read(); sys.stdout.write({stdout!r})"])
        got = echo.translate_many(["x", "y"])
        assert [str(r) for r in got] == ["translator wrote 3 lines for 2 texts"] * 2
        assert all(isinstance(r, Exception) for r in got)

    def test_translator_that_cannot_start_is_recorded(self, tmp_path):
        chunks = [Chunk("d", 0, ("x",), 1), Chunk("d", 1, ("y",), 1)]
        missing = SubprocessTranslator([str(tmp_path / "no-such-translator")])
        results = translate_chunks(chunks, missing)
        assert all(r.text is None and "did not start" in r.error for r in results)

    @pytest.mark.skipif(shutil.which("cat") is None or not os.path.exists("/bin/sh"),
                        reason="no cat or /bin/sh")
    @pytest.mark.parametrize("command", [
        "cat", "cat | cat", "LANG=C cat", "'cat'", "echo Gruss", "exit 3",
        "korpus-no-such-translator",
    ], ids=["plain", "pipe", "assignment", "quoted", "builtin", "exit", "unknown-name"])
    def test_start_path_and_results(self, monkeypatch, command):
        """Every string command runs through `sh -c`, on every call, so the
        results are those of `/bin/sh -c command`."""
        texts = ["Grüße aus Köln.", "Die Straße ist naß und übel.", "Ämter öffnen"]
        calls = _record_runs(monkeypatch)
        translator = SubprocessTranslator(command)
        got = translator.translate_many(texts)
        assert calls == [(command, True)]
        again = translator.translate_many(texts)
        assert calls == [(command, True)] * 2
        assert [repr(r) for r in again] == [repr(r) for r in got]
        via_sh = SubprocessTranslator(["/bin/sh", "-c", command]).translate_many(texts)
        assert [repr(r) for r in got] == [repr(r) for r in via_sh]
        if command == "korpus-no-such-translator":
            assert all("exited 127" in str(r) for r in got)
        elif "cat" in command:
            assert got == texts

    @pytest.mark.skipif(shutil.which("cat") is None, reason="no cat")
    def test_list_command_is_execd_as_given(self, monkeypatch):
        texts = ["Grüße aus Köln.", "Ämter öffnen"]
        calls = _record_runs(monkeypatch)
        assert SubprocessTranslator(["cat"]).translate_many(texts) == texts
        assert calls == [(["cat"], False)]

    @pytest.mark.skipif(shutil.which("cat") is None or not os.path.exists("/bin/sh"),
                        reason="no cat or /bin/sh")
    def test_script_without_interpreter_line_runs_as_through_sh(self, tmp_path, monkeypatch):
        """sh runs an executable script with no `#!` line as a script, and so
        does the translator, on every call. If the program is gone by a later
        call, sh reports `exited 127`."""
        texts = ["Grüße aus Köln.", "Ämter öffnen"]
        script = tmp_path / "translate"
        script.write_text("cat\n", encoding="utf-8")
        script.chmod(0o755)
        command = f"{script} --quiet"
        calls = _record_runs(monkeypatch)
        translator = SubprocessTranslator(command)
        assert translator.translate_many(texts) == texts
        assert translator.translate_many(texts) == texts
        assert calls == [(command, True)] * 2
        via_sh = SubprocessTranslator(["/bin/sh", "-c", command]).translate_many(texts)
        assert via_sh == texts

        script.unlink()
        results = translator.translate_many(texts)
        assert all("exited 127" in str(r) for r in results)
        assert calls[3:] == [(command, True)]


def _record_runs(monkeypatch) -> list:
    """Records (args, shell) of each `subprocess.run` that the chunker makes."""
    calls = []
    real_run = subprocess.run

    def recording_run(args, **kwargs):
        calls.append((args, kwargs.get("shell")))
        return real_run(args, **kwargs)

    monkeypatch.setattr(chunker.subprocess, "run", recording_run)
    return calls
