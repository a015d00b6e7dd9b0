"""Shared fixtures: synthetic German/English corpora and a pipeline fixture tree."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import korpus
from korpus.core import CorpusShard, Document, write_shard

from oracles import oracle_fnv1a

# Settings that make numpy and OpenBLAS pick other SIMD kernels at run time.
KERNEL_SETTINGS = pytest.mark.parametrize("setting", [
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    {"OPENBLAS_CORETYPE": "Haswell"},
], ids=["numpy-without-avx512", "openblas-haswell"])


def run_under_kernels(code: str, setting: dict, stdin: str = "") -> str:
    """The stdout of `python -c code` with korpus importable and, of the kernel
    variables, only `setting`. Skips the test if numpy rejects the setting."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env = {**env, "PYTHONPATH": str(Path(korpus.__file__).parents[1]), **setting}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env=env)
    if probe.returncode != 0:
        pytest.skip(f"numpy rejects {setting}: {probe.stderr.strip()[-200:]}")
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


DE_SUBJECTS = [
    "der kleine Hund", "die alte Katze", "das junge Kind", "der müde Arzt",
    "die kluge Lehrerin", "der große Bär", "die schnelle Läuferin", "das graue Pferd",
    "die fleißige Schülerin", "der alte Kapitän",
]
DE_VERBS = ["läuft", "schläft", "spricht", "arbeitet", "wartet", "singt", "liest", "schreibt", "träumt", "lacht"]
DE_TAILS = [
    "im Garten", "am frühen Morgen", "über die alte Straße", "mit großer Freude",
    "hinter dem Haus", "unter dem Baum", "in der warmen Küche", "auf dem Dach",
    "neben dem Fluss", "vor der kleinen Schule",
]
EN_SUBJECTS = [
    "the small dog", "the old cat", "the young child", "the tired doctor",
    "the clever teacher", "the big bear", "the fast runner", "the gray horse",
    "the busy student", "the old captain",
]
EN_VERBS = ["runs", "sleeps", "talks", "works", "waits", "sings", "reads", "writes", "dreams", "laughs"]
EN_TAILS = [
    "in the garden", "at early dawn", "across the old street", "with great joy",
    "behind the house", "under the tree", "in the warm kitchen", "on the roof",
    "beside the river", "near the small school",
]

MED_SUBJECTS = [
    "Die Untersuchung", "Der Patient", "Die Therapie", "Die Kontrolle",
    "Der Befund", "Die Behandlung", "Das Labor", "Die Diagnose",
]
MED_VERBS = ["zeigte", "ergab", "bestätigte", "dokumentierte", "ermittelte"]
MED_OBJECTS = [
    "eine deutliche Besserung", "anhaltende Schmerzen", "stabile Werte",
    "keine Auffälligkeiten", "eine leichte Entzündung", "einen normalen Verlauf",
]
MED_TAILS = [
    "im unteren Rücken", "nach zwei Wochen", "ohne Nebenwirkungen",
    "bei der zweiten Visite", "im normalen Bereich", "nach der Behandlung",
]


def de_sentence(rng: random.Random) -> str:
    return (f"{rng.choice(DE_SUBJECTS)} {rng.choice(DE_VERBS)} {rng.choice(DE_TAILS)}, "
            f"und {rng.choice(DE_SUBJECTS)} {rng.choice(DE_VERBS)} {rng.choice(DE_TAILS)}.")


def en_sentence(rng: random.Random) -> str:
    return (f"{rng.choice(EN_SUBJECTS)} {rng.choice(EN_VERBS)} {rng.choice(EN_TAILS)}, "
            f"and {rng.choice(EN_SUBJECTS)} {rng.choice(EN_VERBS)} {rng.choice(EN_TAILS)}.")


def de_text(rng: random.Random, sentences: int) -> str:
    return " ".join(de_sentence(rng) for _ in range(sentences))


def med_sentence(rng: random.Random) -> str:
    return (f"{rng.choice(MED_SUBJECTS)} {rng.choice(MED_VERBS)} "
            f"{rng.choice(MED_OBJECTS)} {rng.choice(MED_TAILS)}.")


def make_doc(doc_id: str, text: str, source: str = "test", domain: str = "formal") -> Document:
    return Document(id=doc_id, source=source, domain=domain, text=text)


def make_shard(texts, source: str = "test", domain: str = "formal", prefix: str = "doc") -> CorpusShard:
    docs = [make_doc(f"{prefix}-{i}", t, source=source, domain=domain) for i, t in enumerate(texts)]
    return CorpusShard.from_documents(docs, source=source)


def write_legacy_shard(shard: CorpusShard, path: Path, checksum: str | None = None) -> None:
    """Write `shard` with the bytes korpus wrote before 0.4.0: its manifest holds
    the bare 64-bit FNV-1a of the texts, or `checksum` if given."""
    write_shard(shard, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    manifest = json.loads(lines[-2])
    text = "".join(d.text for d in shard.documents).encode("utf-8")
    manifest["checksum"] = checksum if checksum is not None else f"{oracle_fnv1a(text):016x}"
    lines[-2] = json.dumps(manifest, ensure_ascii=False)
    path.write_text("\n".join(lines), encoding="utf-8")


def random_token_docs(rng: random.Random, total_tokens: int, vocab: int = 50,
                      min_len: int = 20, max_len: int = 120) -> list[list[int]]:
    """Random integer-token documents summing to roughly total_tokens."""
    docs = []
    left = total_tokens
    while left > 0:
        k = min(left, rng.randrange(min_len, max_len))
        docs.append([rng.randrange(vocab) for _ in range(k)])
        left -= k
    return docs


def int_docs_to_shard(docs: list[list[int]], source: str = "rand") -> CorpusShard:
    documents = [
        Document(id=f"{source}-{i}", source=source, domain="formal",
                 text=" ".join(f"w{t}" for t in toks))
        for i, toks in enumerate(docs)
    ]
    return CorpusShard.from_documents(documents, source=source)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def build_pipeline_fixture(root: Path, seed: int = 11) -> Path:
    """Synthetic inputs plus a full config exercising every stage; returns config path."""
    rng = random.Random(seed)
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def write(name: str, shard: CorpusShard) -> str:
        path = inputs / f"{name}.jsonl"
        write_shard(shard, path)
        return str(Path("inputs") / f"{name}.jsonl")

    # Formal sources with planted duplicates: one passage shared inside gc4,
    # one shared across gc4 and news (caught only by the combined stage).
    intra = de_text(rng, 4)
    cross = de_text(rng, 4)
    gc4_docs = [make_doc(f"gc4-{i}", de_text(rng, 3), "gc4") for i in range(24)]
    gc4_docs.append(make_doc("gc4-dup-a", de_text(rng, 1) + " " + intra + " " + de_text(rng, 1), "gc4"))
    gc4_docs.append(make_doc("gc4-dup-b", de_text(rng, 1) + " " + intra + " " + de_text(rng, 1), "gc4"))
    gc4_docs.append(make_doc("gc4-cross", de_text(rng, 1) + " " + cross, "gc4"))
    news_docs = [make_doc(f"news-{i}", de_text(rng, 3), "news") for i in range(16)]
    news_docs.append(make_doc("news-cross", cross + " " + de_text(rng, 1), "news"))
    wiki_docs = [make_doc(f"wiki-{i}", de_text(rng, 3), "wiki") for i in range(10)]

    gc4 = write("gc4", CorpusShard.from_documents(gc4_docs, source="gc4"))
    news = write("news", CorpusShard.from_documents(news_docs, source="news"))
    wiki = write("wiki", CorpusShard.from_documents(wiki_docs, source="wiki"))

    # Informal: entities, URLs, short posts, and English intrusions.
    reddit_docs = []
    for i in range(18):
        text = de_text(rng, 2)
        if i % 3 == 0:
            text = text.replace(" und ", " &amp; ", 1) + " siehe https://example.de/post"
        reddit_docs.append(make_doc(f"reddit-{i}", text, "reddit", "informal"))
    for i in range(4):
        reddit_docs.append(make_doc(f"reddit-short-{i}", "zu kurz gepostet", "reddit", "informal"))
    for i in range(4):
        reddit_docs.append(make_doc(f"reddit-en-{i}", en_sentence(rng) + " " + en_sentence(rng),
                                    "reddit", "informal"))
    reddit = write("reddit", CorpusShard.from_documents(reddit_docs, source="reddit"))

    # Medical crawl: half is on-reference medical prose, half generic chatter.
    oscar_docs = []
    for i in range(10):
        oscar_docs.append(make_doc(f"oscar-med-{i}",
                                   " ".join(med_sentence(rng) for _ in range(4)),
                                   "oscar-medical", "medical"))
    for i in range(10):
        oscar_docs.append(make_doc(f"oscar-gen-{i}", de_text(rng, 2), "oscar-medical", "medical"))
    oscar = write("oscar-medical", CorpusShard.from_documents(oscar_docs, source="oscar-medical"))

    pubmed_docs = [
        make_doc(f"pubmed-{i}", " ".join(med_sentence(rng) for _ in range(6)),
                 "pubmed-translated", "medical")
        for i in range(6)
    ]
    pubmed = write("pubmed-translated", CorpusShard.from_documents(pubmed_docs, source="pubmed-translated"))

    legal = write("legal", CorpusShard.from_documents(
        [make_doc(f"legal-{i}", de_text(rng, 3), "legal", "legal") for i in range(8)], source="legal"))
    books = write("books", CorpusShard.from_documents(
        [make_doc(f"books-{i}", de_text(rng, 4), "books", "literature") for i in range(8)], source="books"))

    # Language-id training corpora and the quality-LM reference corpus.
    lid_de = write("langid-de", make_shard([de_sentence(rng) for _ in range(300)], source="lid-de", prefix="lid-de"))
    lid_en = write("langid-en", make_shard([en_sentence(rng) for _ in range(300)], source="lid-en", prefix="lid-en"))
    reference = write("med-reference", make_shard(
        [" ".join(med_sentence(rng) for _ in range(3)) for _ in range(60)],
        source="med-reference", domain="medical", prefix="ref"))

    config = {
        "params": {
            "min_match_tokens": 30,
            "langid_threshold": 0.9,
            "min_words": 20,
            "ngram_order": 3,
            "quality_top_k": 10,
            "chunk_budget_tokens": 24,
            "mix_seed": 97,
            "dedup_policy": "remove_all",
        },
        "langid": {
            "target": "de",
            "train": {"de": [lid_de], "en": [lid_en]},
            "epochs": 10,
            "seed": 7,
        },
        "quality_lm": {"reference": [reference], "min_count": 1},
        "sources": [
            {"name": "gc4", "domain": "formal", "paths": [gc4], "dedup_group": "gc4"},
            {"name": "news", "domain": "formal", "paths": [news], "dedup_group": "news"},
            {"name": "wiki", "domain": "formal", "paths": [wiki], "dedup_group": "wiki"},
            {"name": "reddit", "domain": "informal", "paths": [reddit],
             "steps": {"preprocess": True, "langid": True}},
            {"name": "oscar-medical", "domain": "medical", "paths": [oscar],
             "steps": {"quality_filter": True}},
            {"name": "pubmed-translated", "domain": "medical", "paths": [pubmed],
             "steps": {"chunk_translate": True}},
            {"name": "legal", "domain": "legal", "paths": [legal]},
            {"name": "books", "domain": "literature", "paths": [books]},
        ],
        "datasets": [
            {"name": "quality", "sources": ["gc4", "news", "wiki"]},
            {"name": "variety",
             "sources": ["gc4", "news", "wiki", "reddit", "oscar-medical",
                          "pubmed-translated", "legal", "books"],
             "budget_tokens": 3900, "trim_source": "gc4", "seed": 5},
        ],
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return config_path


def workspace_digest(ws: Path) -> dict[str, str]:
    """Relative path -> sha256 for every file under the workspace."""
    out = {}
    for p in sorted(ws.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(ws))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out
