"""Seeded synthetic inputs for the pipeline benchmark.

Every workload is built from the same parts (web sources for dedup, an informal
forum source for cleaning and language ID, a Kneser-Ney reference plus a
medical source to score, short notes to translate, plain sources for the
budgeted mix); the workloads differ only in how large each part is, which
decides the layer that dominates. `generate` writes JSONL shards and a
pipeline config into a directory and returns a plan: input token and document
counts, and what the correctness checks expect to find in the workspace.

The same seed gives byte-identical files. Document counts and token counts
are fixed by the sizes and the document index, never by the seed, so a
workload costs about the same on every seed.

Run as a script to generate one workload:
    python3 bench/workloads.py <workload> <seed> <outdir>
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

from korpus.core import CorpusShard, Document, write_shard

DE_WORDS = (
    "der die das und ist nicht ein eine zu mit auf für von im den sich des dem es "
    "auch als an nach wie bei aus um noch nur so wird werden hat haben sind war über "
    "vor durch unter zwischen gegen ohne sehr schon immer wieder heute morgen aber "
    "oder wenn weil dass man wir ihr sie er ich mein dein unser euer kein jetzt hier "
    "dort dann doch mal ganz gern viel mehr wenig Stadt Haus Jahr Zeit Menschen "
    "Arbeit Leben Welt Kinder Frau Mann Tag Woche Straße Schule Kirche Bürger "
    "Gemeinde Rathaus Verein Mitglieder Veranstaltung Gäste Abend Wochenende Sommer "
    "Winter Regen Wetter Bahnhof Zug Fahrrad Küche Brot Käse Wurst Bier Wasser "
    "Kaffee Kuchen Geschäft Preis Kunden Angebot Qualität Größe Möglichkeit "
    "Entwicklung Unternehmen Gespräch Frage Antwort Beispiel Grund Ergebnis schön "
    "groß klein neu alt gut schlecht wichtig möglich eigentlich natürlich wirklich "
    "gemeinsam öffentlich freundlich ruhig früh spät gestern übrigens trotzdem "
    "deshalb außerdem jedoch während gemütlich Nachbarn Förderung Gebäude Erfahrung"
).split()

EN_WORDS = (
    "the of and to in is it that was for on are with as at be this have from or by "
    "not but what all were when we there can an your which their said if will each "
    "about how up out them then she many some so these would other into has more "
    "her two like him see time could no make than first been its who now people my "
    "made over did down only way find use may water long little very after words "
    "called just where most know get through back much before go good new write our "
    "used me man too any day same right look think also around another came come "
    "work three word must because does part even place well such here take why "
    "things help put years different away again off went old number great tell men "
    "say small every found still between name should home big give air line set own "
    "under read last never us left end along while might next sound below saw "
    "something thought both few those always looked show large often together asked "
    "house world going want school important until form food keep children"
).split()

# Syllables for pseudo-German words; they widen the vocabulary far beyond the
# word lists, as real crawl text does, and keep German character statistics.
_SYLLABLES = (
    "ber gen lich keit ver schaft un ter an de ein zu ung sch mä rö ßen hal wir tun "
    "ach ei stra wer den hei ten or te bau feld burg haus mar kt lan dig ge be ab "
    "auf aus zeit wald berg see stein heim dorf ü ö ä rei sen tags nacht licht"
).split()

_MED_SYLLABLES = (
    "kardio gastro neuro derma hepat nephr pulmo osteo arthr myo angi hämat onko "
    "endo chol thyre lipo glyk leuk lymph itis ose om ämie algie ektomie logie "
    "pathie therapie skopie gramm zyt plasie trophie genese"
).split()

FOOTER_TOKENS = 60
MIN_WORDS = 20


def _pseudo_words(rng: random.Random, syllables: list[str], n: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        w = "".join(rng.choice(syllables) for _ in range(rng.randrange(2, 5)))
        if rng.random() < 0.3:
            w = w.capitalize()
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


class Zipf:
    """Words drawn with probability proportional to 1 / rank**exponent."""

    def __init__(self, rng: random.Random, words: list[str], exponent: float = 1.05):
        self.rng = rng
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(len(words))))

    def text(self, tokens: int) -> str:
        """`tokens` words in sentences of 8-15 words, each capitalized and ended by a period."""
        words = self.rng.choices(self.words, cum_weights=self.cum, k=tokens)
        out = []
        i = 0
        while i < tokens:
            n = min(tokens - i, self.rng.randrange(8, 16))
            sentence = words[i:i + n]
            sentence[0] = sentence[0].capitalize()
            sentence[-1] += "."
            out.extend(sentence)
            i += n
        return " ".join(out)


def _length(i: int, low: int, high: int) -> int:
    """Document length fixed by its index, so token totals do not depend on the seed."""
    return low + (i * 7919) % (high - low + 1)


# Part sizes per workload. Each entry is the document count of one part; the
# reason for each workload is in bench/README.md.
WORKLOADS: dict[str, dict[str, int]] = {
    "crawl-boilerplate": dict(
        web_sources=2, web_docs=1500, footer_every=2,
        forum_docs=600, lid_docs=150, lid_buckets=2**18,
        ref_docs=40, clinic_docs=40, note_docs=20,
        misc_sources=2, misc_docs=20, archive_docs=300,
    ),
    "filter-models": dict(
        web_sources=1, web_docs=600, footer_every=0,
        forum_docs=400, lid_docs=600, lid_buckets=2**18,
        ref_docs=400, clinic_docs=300, note_docs=20,
        misc_sources=2, misc_docs=20, archive_docs=300,
    ),
    "translate-many": dict(
        web_sources=1, web_docs=40, footer_every=0,
        forum_docs=40, lid_docs=40, lid_buckets=2**12,
        ref_docs=40, clinic_docs=40, note_docs=1000,
        misc_sources=30, misc_docs=60, archive_docs=6000,
    ),
}


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        self.counts: dict[str, tuple[int, int]] = {}  # shard name -> (documents, tokens)

    def shard(self, name: str, domain: str, texts: list[tuple[str, str]]) -> str:
        """Write one input shard of (doc id, text) pairs; returns its config path."""
        docs = [Document(id=i, source=name, domain=domain, text=t) for i, t in texts]
        shard = CorpusShard.from_documents(docs, source=name)
        rel = f"inputs/{name}.jsonl"
        write_shard(shard, self.root / rel)
        self.counts[name] = (shard.manifest.doc_count, shard.manifest.token_count)
        return rel


def generate(workload: str, seed: int, root: str | Path, scale: float = 1.0) -> dict:
    """Write the inputs and config.json of one workload under `root`; returns the plan.

    `scale` multiplies every document count (at least one per part);
    the benchmark uses 1.0, tests use small values.
    """
    sizes = {k: max(1, round(v * scale)) if k.endswith("_docs") else v
             for k, v in WORKLOADS[workload].items()}
    root = Path(root)
    rng = random.Random(f"{workload}/{seed}")
    german = Zipf(rng, DE_WORDS + _pseudo_words(rng, _SYLLABLES, 6000))
    english = Zipf(rng, EN_WORDS)
    medical = Zipf(rng, _pseudo_words(rng, _MED_SYLLABLES + _SYLLABLES, 8000), exponent=0.9)
    w = _Writer(root)
    sources: list[dict] = []
    expect: dict = {"dedup_removed": [], "dedup_sources": [], "langid_dropped": [], "budgets": {}}

    def source(name, domain, texts, **extra):
        sources.append({"name": name, "domain": domain, "paths": [w.shard(name, domain, texts)], **extra})

    # Web crawl, one dedup group: every footer_every-th document ends with the
    # same footer. A unique token before the footer keeps each copy's maximal
    # span exactly the footer, so under keep_first only the first carrier
    # survives.
    footer = german.text(FOOTER_TOKENS)
    first_carrier = None
    for s in range(sizes["web_sources"]):
        name = f"web-{chr(ord('a') + s)}"
        texts = []
        for i in range(sizes["web_docs"]):
            doc_id = f"{name}-{i:06d}"
            body = german.text(_length(i, 30, 90))
            if sizes["footer_every"] and i % sizes["footer_every"] == sizes["footer_every"] - 1:
                body += f" [{doc_id}] {footer}"
                if first_carrier is None:
                    first_carrier = doc_id
                else:
                    expect["dedup_removed"].append(doc_id)
            texts.append((doc_id, body))
        source(name, "formal", texts, dedup_group="web")
        expect["dedup_sources"].append(name)

    # Informal forum: entities and URLs to clean, short posts and English
    # intrusions to drop.
    texts = []
    for i in range(sizes["forum_docs"]):
        doc_id = f"forum-{i:06d}"
        if i % 10 == 3:
            text = german.text(_length(i, 3, 8))
            expect["langid_dropped"].append(doc_id)
        elif i % 10 == 7:
            text = english.text(_length(i, 25, 60))
            expect["langid_dropped"].append(doc_id)
        else:
            text = german.text(_length(i, 25, 60))
            if i % 4 == 0:
                text = text.replace(" und ", " &amp; ", 1) + " sch&#246;n &quot;wirklich&quot;"
            if i % 5 == 0:
                text += f" siehe https://forum.example.de/thread/{i} oder www.example.de/{i}"
        texts.append((doc_id, text))
    source("forum", "informal", texts, steps={"preprocess": True, "langid": True})

    lid_de = w.shard("lid-de", "informal", [(f"lid-de-{i:06d}", german.text(_length(i, 10, 30)))
                                            for i in range(sizes["lid_docs"])])
    lid_en = w.shard("lid-en", "informal", [(f"lid-en-{i:06d}", english.text(_length(i, 10, 30)))
                                            for i in range(sizes["lid_docs"])])
    reference = w.shard("med-reference", "medical",
                        [(f"ref-{i:06d}", medical.text(_length(i, 30, 70)))
                         for i in range(sizes["ref_docs"])])

    # Medical crawl: half on-reference prose, half generic German.
    texts = [(f"clinic-{i:06d}", (medical if i % 2 else german).text(_length(i, 30, 70)))
             for i in range(sizes["clinic_docs"])]
    source("clinic", "medical", texts, steps={"quality_filter": True})

    texts = [(f"notes-{i:06d}", german.text(_length(i, 16, 64))) for i in range(sizes["note_docs"])]
    source("notes", "medical", texts, steps={"chunk_translate": True})

    for s in range(sizes["misc_sources"]):
        name = f"misc-{s:02d}"
        source(name, "literature", [(f"{name}-{i:06d}", german.text(_length(i, 20, 80)))
                                    for i in range(sizes["misc_docs"])])
    source("archive", "legal", [(f"archive-{i:06d}", german.text(_length(i, 10, 40)))
                                for i in range(sizes["archive_docs"])])

    # Trimming half the archive always reaches the budget: the other sources
    # can only lose tokens on the way to the mix.
    names = [s["name"] for s in sources]
    budget = sum(w.counts[n][1] for n in names) - w.counts["archive"][1] // 2
    expect["budgets"]["variety"] = budget
    config = {
        "params": {
            "min_match_tokens": 50,
            "langid_threshold": 0.9,
            "min_words": MIN_WORDS,
            "ngram_order": 5,
            "quality_top_k": max(1, sizes["clinic_docs"] // 2),
            "chunk_budget_tokens": 48,
            "mix_seed": seed,
            "dedup_policy": "keep_first",
        },
        "langid": {
            "target": "de",
            "train": {"de": [lid_de], "en": [lid_en]},
            "epochs": 5,
            "seed": seed,
            "feature_buckets": sizes["lid_buckets"],
        },
        "quality_lm": {"reference": [reference], "min_count": 2},
        "translator": {"command": "cat"},
        "sources": sources,
        "datasets": [
            {"name": "quality", "sources": expect["dedup_sources"]},
            {"name": "variety", "sources": names, "budget_tokens": budget, "trim_source": "archive"},
        ],
    }
    (root / "config.json").write_text(json.dumps(config, ensure_ascii=False, indent=2) + "\n",
                                      encoding="utf-8")
    plan = {
        "workload": workload,
        "seed": seed,
        "input_tokens": sum(t for _, t in w.counts.values()),
        "input_docs": sum(d for d, _ in w.counts.values()),
        "source_docs": {n: w.counts[n][0] for n in names},
        "expect": expect,
    }
    (root / "plan.json").write_text(json.dumps(plan, indent=2) + "\n", encoding="utf-8")
    return plan


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
