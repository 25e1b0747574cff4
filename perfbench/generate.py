"""Seeded generators for the benchmark's synthetic inputs.

Every generator draws from one ``random.Random(seed)`` and writes its files
in a fixed order, so the same seed and scale give byte-identical files.
Nothing generated here is committed; the benchmark writes it under a
scratch directory of the checkout and deletes it at exit.

- ``write_wndb``: an ``index.noun``/``data.noun`` pair with the lemma,
  synset and word-sense counts of the WordNet 3.0 noun database at scale
  1.0, as wnstats(7WN) gives them, plus a manifest of sampled lemmas and
  the glosses a correct parser must return for them. Gloss lengths and
  pointer counts are assumptions, not taken from WordNet.
- ``write_corpus``: a token<TAB>POS corpus (about 1M tokens at scale 1.0)
  whose nouns follow a Zipf law over tens of thousands of types mixing
  WNDB lemmas, plurals, hyphenated compounds, -man/-woman forms, seed
  words, tokens with digits and words absent from every source, plus a
  word list for single-word classification that also has spaced forms.
  The shares of the mix are assumptions.
- ``write_live``: entry pages in the Merriam-Webster and Dictionary.com
  markup dialects for a word list, with noun and non-noun sections and
  surrounding page furniture, plus snapshot files holding the noun
  definitions each page carries (the reference the extraction must match).
  Page sizes and markup are modelled on the two dialects the extractor
  reads; the amount of furniture is an assumption.

Run as a script it writes one workload's inputs into a directory, so the
memory the generation takes never counts toward the benchmark's own peak.
"""

from __future__ import annotations

import argparse
import html
import itertools
import json
import random
from collections import Counter
from pathlib import Path

#: WordNet 3.0 noun database sizes, from wnstats(7WN): unique strings,
#: synsets, and the lemmas with one sense; the other 15,935 lemmas have
#: 44,449 senses, so there are 146,312 word-sense pairs (1.24 per lemma).
WNDB_LEMMAS = 117_798
WNDB_SYNSETS = 82_115
WNDB_MONOSEMOUS = 101_863
WNDB_POLYSEMOUS_SENSES = 44_449

#: Lemmas whose glosses the manifest records for checking the parse.
MANIFEST_LEMMAS = 200

#: Corpus size at scale 1.0, and the length of the single-word list.
CORPUS_TOKENS = 1_000_000
CORPUS_NOUN_TYPES = 60_000
WORD_LIST_LEN = 4000

SITE_IDS = ("merriam_webster", "dictionary_com")

_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fr gr pr tr bl cl fl gl pl sl st sp sc sh ch th".split()
_NUCLEI = "a e i o u ai ea ee ie oa ou io".split()
_CODAS = ["", "", "", "n", "r", "l", "s", "t", "m", "nd", "rt", "st", "ck", "ng"]

_SEED_FORMS = (
    "woman women man men female females male males wife wives husband husbands "
    "daughter daughters son sons mother mothers father fathers girl girls boy boys "
    "sister sisters brother brothers aunt aunts uncle uncles"
).split()

_FUNCTION_WORDS = (
    "a an the of or and to in on with by for from that which who whose as at "
    "especially usually often any one some its their his her is being"
).split()

_PERSON_FRAMES = (
    "a {seed} who {verb} {obj}",
    "the {seed} of a {noun}",
    "a {adj} {seed} or {seed2}",
    "one who {verb} {obj}, especially a {seed}",
    "a {noun} {verb2} by a {seed}",
)

# Words the bundled snapshots know, so some corpus nouns are found there too.
_REAL_NOUNS = (
    "attendant aunt bachelor baron baroness boy bride brother businessman "
    "chairman chairwoman child count countess crew czar daughter duchess duke "
    "earl emperor empress father fiance fiancee friar gentleman girl groom "
    "headmaster headmistress human husband king lad lady landlady landlord lass "
    "madam milkmaid milkman monk mother nephew niece nun nymph parent partner "
    "people person prince princess queen ruler salesman servant server sibling "
    "sir sister son soprano spinster spirit spouse stepfather stepmother steward "
    "stewardess swain table uncle viscount waiter waitress widow widower wife "
    "witch wizard woman"
).split()


_POINTER_SYMBOLS = ("@", "@", "~", "#m", "%p", "+", ";c", "-c")


def _syllable(rng: random.Random) -> str:
    return rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)


def _word(rng: random.Random, lo: int = 2, hi: int = 3) -> str:
    return "".join(_syllable(rng) for _ in range(rng.randint(lo, hi)))


def _distinct_words(rng: random.Random, n: int, taken: set[str], lo=2, hi=3) -> list[str]:
    words = []
    while len(words) < n:
        word = _word(rng, lo, hi)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


class _Prose:
    """Definition text drawn from a synthetic vocabulary plus seed words."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        taken: set[str] = set()
        self.nouns = _distinct_words(rng, 1500, taken)
        self.verbs = [w + "s" for w in _distinct_words(rng, 400, taken)]
        self.adjs = [w + "al" for w in _distinct_words(rng, 400, taken)]

    def _filler(self, n: int) -> list[str]:
        rng = self.rng
        out = []
        for _ in range(n):
            r = rng.random()
            if r < 0.35:
                out.append(rng.choice(_FUNCTION_WORDS))
            elif r < 0.65:
                out.append(rng.choice(self.nouns))
            elif r < 0.8:
                out.append(rng.choice(self.verbs))
            elif r < 0.99:
                out.append(rng.choice(self.adjs))
            else:
                out.append(rng.choice(_SEED_FORMS))
        return out

    def definition(self, person_share: float = 0.1) -> str:
        """One sense definition, 3..21 tokens, sometimes about a gendered person."""
        rng = self.rng
        if rng.random() < person_share:
            text = rng.choice(_PERSON_FRAMES).format(
                seed=rng.choice(_SEED_FORMS),
                seed2=rng.choice(_SEED_FORMS),
                verb=rng.choice(self.verbs),
                verb2=rng.choice(self.verbs),
                obj=" ".join(self._filler(rng.randint(1, 4))),
                noun=rng.choice(self.nouns),
                adj=rng.choice(self.adjs),
            )
            extra = self._filler(rng.randint(0, 6))
            if extra:
                text += ", " + " ".join(extra)
            return text
        words = self._filler(rng.randint(3, 13))
        if rng.random() < 0.25:
            cut = rng.randint(1, len(words))
            words[cut - 1] += ","
        if rng.random() < 0.1:
            words.insert(rng.randint(0, len(words)), "(" + rng.choice(self.nouns) + ")")
        return " ".join(words)

    def gloss(self) -> str:
        """A WNDB gloss: a definition, sometimes with quoted example sentences."""
        text = self.definition()
        for _ in range(self.rng.choice((0, 0, 0, 0, 1, 1, 2))):
            text += '; "' + " ".join(self._filler(self.rng.randint(4, 9))) + '"'
        return text


def _sense_counts(rng: random.Random, n_lemmas: int, n_synsets: int) -> list[int]:
    """Senses per lemma with WordNet 3.0's share of one-sense lemmas and total.

    A polysemous lemma has 2 senses plus a geometric number more, then the
    counts are nudged until their sum is WordNet's total at this scale.
    """
    n_poly = round(n_lemmas * (WNDB_LEMMAS - WNDB_MONOSEMOUS) / WNDB_LEMMAS)
    target = round(n_poly * WNDB_POLYSEMOUS_SENSES / (WNDB_LEMMAS - WNDB_MONOSEMOUS))
    cap = min(n_synsets, 64)
    more = (target - 2 * n_poly) / (target - n_poly)  # P(one more sense) for mean target / n_poly
    poly = []
    for _ in range(n_poly):
        k = 2
        while k < cap and rng.random() < more:
            k += 1
        poly.append(k)
    total = sum(poly)
    while total != target:
        i = rng.randrange(n_poly)
        if total < target and poly[i] < cap:
            poly[i] += 1
            total += 1
        elif total > target and poly[i] > 2:
            poly[i] -= 1
            total -= 1
    counts = [1] * (n_lemmas - n_poly) + poly
    rng.shuffle(counts)
    return counts


def _lemma_strings(rng: random.Random, n: int) -> list[str]:
    """Distinct WNDB lemmas: real nouns first, then one- and two-word synthetic ones."""
    taken = set(_REAL_NOUNS)
    lemmas = list(_REAL_NOUNS)
    while len(lemmas) < n:
        r = rng.random()
        if r < 0.25:
            lemma = _word(rng, 1, 3) + "_" + _word(rng, 1, 3)
        elif r < 0.28:
            lemma = _word(rng, 1, 2) + "-" + _word(rng, 1, 2)
        else:
            lemma = _word(rng, 2, 4)
        if lemma not in taken:
            taken.add(lemma)
            lemmas.append(lemma)
    return lemmas


def write_wndb(directory: Path, seed: int, scale: float = 1.0) -> dict:
    """Write a synthetic WNDB noun database; returns its manifest."""
    rng = random.Random(f"wndb-{seed}")
    prose = _Prose(rng)
    n_synsets = max(10, int(WNDB_SYNSETS * scale))
    n_lemmas = max(n_synsets, int(WNDB_LEMMAS * scale))
    lemmas = _lemma_strings(rng, n_lemmas)

    senses: list[list[int]] = []
    members: list[list[int]] = [[] for _ in range(n_synsets)]
    for i, k in enumerate(_sense_counts(rng, n_lemmas, n_synsets)):
        chosen = [i] if i < n_synsets else []
        while len(chosen) < k:
            s = rng.randrange(n_synsets)
            if s not in chosen:
                chosen.append(s)
        senses.append(chosen)
        for s in chosen:
            members[s].append(i)

    glosses = [prose.gloss() for _ in range(n_synsets)]
    pointers = [
        [(rng.choice(_POINTER_SYMBOLS), rng.randrange(n_synsets)) for _ in range(rng.randint(1, 6))]
        for _ in range(n_synsets)
    ]
    lex_files = [rng.randint(3, 28) for _ in range(n_synsets)]

    header = "".join(
        f"  {i} Synthetic noun database in WNDB format, generated for benchmarking.\n"
        for i in range(1, 30)
    )
    header_bytes = len(header.encode("utf-8"))

    # Offsets are eight digits wide, so record lengths do not depend on them.
    def record(s: int, offsets: list[int]) -> str:
        words = " ".join(f"{lemmas[i]} 0" for i in members[s])
        ptrs = " ".join(f"{sym} {offsets[t]:08d} n 0000" for sym, t in pointers[s])
        return (
            f"{offsets[s]:08d} {lex_files[s]:02d} n {len(members[s]):02x} {words} "
            f"{len(pointers[s]):03d} {ptrs} | {glosses[s]}  \n"
        )

    zeros = [0] * n_synsets
    offsets = []
    position = header_bytes
    for s in range(n_synsets):
        offsets.append(position)
        position += len(record(s, zeros).encode("utf-8"))

    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "data.noun", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for s in range(n_synsets):
            fh.write(record(s, offsets))

    with open(directory / "index.noun", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for i in sorted(range(n_lemmas), key=lambda i: lemmas[i]):
            symbols = sorted({sym for s in senses[i] for sym, _ in pointers[s]})
            offs = " ".join(f"{offsets[s]:08d}" for s in senses[i])
            fh.write(
                f"{lemmas[i]} n {len(senses[i])} {len(symbols)} {' '.join(symbols)} "
                f"{len(senses[i])} {rng.randint(0, 1)} {offs}  \n"
            )

    sample = rng.sample(range(n_lemmas), min(MANIFEST_LEMMAS, n_lemmas))
    manifest = {
        "lemmas": n_lemmas,
        "synsets": n_synsets,
        "senses": sum(len(chosen) for chosen in senses),
        "expected": {lemmas[i]: [glosses[s] for s in senses[i]] for i in sample},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return manifest


def _read_index_lemmas(wndb_dir: Path) -> list[str]:
    with open(wndb_dir / "index.noun", encoding="utf-8") as fh:
        return [line.split(" ", 1)[0] for line in fh if not line.startswith(" ")]


_OTHER_TAGS = (
    [(w, "DT") for w in ("the", "a", "an", "this", "every", "some")]
    + [(w, "IN") for w in ("of", "in", "on", "with", "by", "for", "from", "at")]
    + [(w, "PRP") for w in ("he", "she", "it", "they", "we")]
    + [(w, "CC") for w in ("and", "or", "but")]
    + [(",", ","), (";", ":")]
)


def _noun_types(rng: random.Random, lemmas: list[str], n_types: int) -> list[tuple[str, str]]:
    """(surface, POS) noun types covering every path a surface can take."""
    single = [l for l in lemmas if "_" not in l and "-" not in l]
    rng.shuffle(single)
    taken = set(lemmas)
    types: list[tuple[str, str]] = [(w, "NN") for w in _REAL_NOUNS]
    # _SEED_FORMS alternates singular and plural
    types += [(w, "NNS" if i % 2 else "NN") for i, w in enumerate(_SEED_FORMS)]
    n = n_types - len(types)
    shares = (
        ("lemma", 0.50),
        ("plural", 0.20),
        ("hyphen", 0.06),
        ("suffix", 0.04),
        ("digits", 0.03),
        ("apostrophe", 0.01),
        ("absent", 0.16),
    )
    pool = iter(single)
    for kind, share in shares:
        for _ in range(int(n * share)):
            if kind == "lemma":
                types.append((next(pool), "NN"))
            elif kind == "plural":
                types.append((next(pool) + "s", "NNS"))
            elif kind == "hyphen":
                word = next(pool)
                cut = rng.randint(1, len(word) - 1) if len(word) > 1 else 1
                # the stripped form is the lemma: found only after the retry
                types.append((word[:cut] + "-" + word[cut:], "NN"))
            elif kind == "suffix":
                types.append((_word(rng, 1, 2) + rng.choice(("man", "woman", "men", "boy", "girl", "human")), "NN"))
            elif kind == "digits":
                types.append((_word(rng, 1, 2) + str(rng.randint(1, 999)), rng.choice(("NN", "NNS"))))
            elif kind == "apostrophe":
                types.append((_word(rng, 1, 2) + "'" + _word(rng, 1, 1), "NN"))
            else:
                types.append((_distinct_words(rng, 1, taken, 3, 4)[0], "NN"))
    types = list(dict.fromkeys(types))
    rng.shuffle(types)
    return types


def write_corpus(directory: Path, wndb_dir: Path, seed: int, scale: float = 1.0) -> dict:
    """Write ``tagged.tsv`` and ``words.json`` drawn from the WNDB's lemmas."""
    rng = random.Random(f"corpus-{seed}")
    lemmas = _read_index_lemmas(wndb_dir)
    types = _noun_types(rng, lemmas, max(200, int(CORPUS_NOUN_TYPES * scale)))
    cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(types))))
    n_tokens = max(1000, int(CORPUS_TOKENS * scale))
    nouns = rng.choices(types, cum_weights=cum, k=n_tokens // 3)
    adjs = [(_word(rng, 2, 3) + "ous", "JJ") for _ in range(300)]
    verbs = [(_word(rng, 1, 2) + "ed", "VBD") for _ in range(300)]

    directory.mkdir(parents=True, exist_ok=True)
    tokens = 0
    noun_i = 0
    lines = []
    while tokens < n_tokens:
        length = rng.randint(8, 25)
        for _ in range(length):
            r = rng.random()
            if r < 0.30:
                token = nouns[noun_i % len(nouns)]
                noun_i += 1
            elif r < 0.62:
                token = rng.choice(_OTHER_TAGS)
            elif r < 0.8:
                token = rng.choice(adjs)
            else:
                token = rng.choice(verbs)
            lines.append(f"{token[0]}\t{token[1]}\n")
        lines.append(".\t.\n\n")
        tokens += length + 1
    (directory / "tagged.tsv").write_text("".join(lines), encoding="utf-8", newline="\n")
    # What a correct ingest keeps: nouns whose surface is letters, "-" and "'".
    kept = Counter(
        noun
        for noun in (nouns[i % len(nouns)] for i in range(noun_i))
        if all(ch.isalpha() or ch in "-'" for ch in noun[0])
    )

    # Single-word classification list: distinct surfaces plus multiword
    # lemmas written with a space, which the WNDB source maps to "_".
    surfaces = sorted({s for s, _ in types if s.replace("-", "").replace("'", "").isalpha()})
    spaced = [l.replace("_", " ") for l in lemmas if "_" in l]
    words = rng.sample(surfaces, min(WORD_LIST_LEN * 9 // 10, len(surfaces)))
    words += rng.sample(spaced, min(WORD_LIST_LEN - len(words), len(spaced)))
    rng.shuffle(words)
    info = {
        "tokens": tokens,
        "noun_types": len(types),
        "noun_records": len(kept),
        "noun_frequency": sum(kept.values()),
        "words": words,
    }
    (directory / "words.json").write_text(json.dumps(info, sort_keys=True), encoding="utf-8")
    return info


# --- entry pages in the two markup dialects --------------------------------

_SCRIPT = (
    "window.dataLayer = window.dataLayer || [];\n"
    "function gtag(){dataLayer.push(arguments);}\n"
    "for (var i = 0; i < slots.length && i < 12; i++) { if (slots[i].w > 0) render(slots[i]); }\n"
)


def _furniture(rng: random.Random, prose: _Prose, links: int) -> str:
    """Navigation, related-word lists and footer text around an entry.

    Its size is fixed, so that page bytes vary with the entry, not the seed.
    """
    items = "".join(
        f'<li class="nav-item"><a href="/dictionary/{w}" class="nav-link">{w}</a></li>'
        for w in rng.sample(prose.nouns, links)
    )
    blurbs = "".join(
        f'<p class="blurb">{html.escape(prose.definition(0.0))}.</p>' for _ in range(7)
    )
    return f'<nav class="site-nav"><ul>{items}</ul></nav><aside class="related">{blurbs}</aside>'


def _linked(rng: random.Random, text: str) -> str:
    """Escape a definition and wrap a few of its words in cross-reference links."""
    out = []
    for word in text.split(" "):
        if rng.random() < 0.15 and word.isalpha():
            out.append(f'<a class="mw_t_sx" href="/dictionary/{word}">{word}</a>')
        else:
            out.append(html.escape(word, quote=False))
    return " ".join(out)


def _page(site: str, word: str, sections: list[tuple[str, list[str]]], rng, prose) -> str:
    """One entry page: ``sections`` is a list of (part of speech, definitions)."""
    head = (
        f'<!DOCTYPE html>\n<html lang="en"><head><meta charset="utf-8">'
        f"<title>{html.escape(word)} Definition &amp; Meaning</title>"
        f'<link rel="stylesheet" href="/css/site.{rng.randrange(10**6):06d}.css">'
        f'<meta name="description" content="The meaning of {html.escape(word)}.">'
        f"<script>{_SCRIPT * 5}</script></head><body>"
    )
    body = [_furniture(rng, prose, 40)]
    for pos, defs in sections:
        if site == "merriam_webster":
            senses = "".join(
                f'<div class="sb has-num"><span class="sn">{n}</span>'
                f'<span class="dt"><span class="dtText"><strong class="mw_t_bc">: </strong>'
                f"{_linked(rng, d)}</span>"
                f'<span class="ex-sent">{html.escape(prose.definition(0.0))}</span></span></div>'
                for n, d in enumerate(defs, start=1)
            )
            body.append(
                f'<div class="entry-word-section-container"><div class="entry-header-content">'
                f'<h1 class="hword">{html.escape(word)}</h1><span class="fl">{pos}</span>'
                f'<br><span class="prs">\\ {html.escape(word)} \\</span></div>'
                f'<div class="vg">{senses}</div></div>'
            )
        else:
            senses = "".join(
                f'<li class="sense"><div class="one-click-content">{_linked(rng, d)}</div>'
                f'<span class="luna-example">{html.escape(prose.definition(0.0))}</span></li>'
                for d in defs
            )
            body.append(
                f'<section class="entry-block"><h1>{html.escape(word)}</h1>'
                f'<span class="luna-pos">{pos}</span><ol>{senses}</ol></section>'
            )
    body.append(f'<footer class="site-footer">{_furniture(rng, prose, 20)}</footer>')
    return head + "".join(body) + "</body></html>\n"


def write_live(directory: Path, seed: int, n_words: int = 120) -> dict:
    """Write ``pages/<site>/<word>.html``, reference snapshots and ``words.json``."""
    rng = random.Random(f"live-{seed}")
    prose = _Prose(rng)
    taken: set[str] = set()
    base = _distinct_words(rng, n_words, taken, 2, 3)
    words = []
    entries = {site: {} for site in SITE_IDS}
    pages = {site: {} for site in SITE_IDS}
    for i, word in enumerate(base):
        # Kind 0 takes the seed shortcut and kind 1 the suffix heuristic, so
        # neither makes a request. Kinds 2 and 3 are looked up hyphenated,
        # which no site has, and found after the punctuation-stripping
        # retry. Kind 4 is on no site; kind 5 has no noun section.
        kind = i % 12
        if kind == 0:
            words.append(rng.choice(_SEED_FORMS))
            continue
        if kind == 1:
            words.append(word + rng.choice(("man", "woman")))
            continue
        if kind in (2, 3):
            cut = rng.randint(1, len(word) - 1)
            words.append(word[:cut] + "-" + word[cut:])
        else:
            words.append(word)
        for site in SITE_IDS:
            r = rng.random()
            if kind == 4 or r < 0.1:
                continue  # 404
            noun_defs = []
            if kind != 5 and r <= 0.95:
                noun_defs = [prose.definition(0.3) for _ in range(rng.randint(1, 6))]
            sections = [("noun", noun_defs)] if noun_defs else []
            for pos in rng.sample(("verb", "adjective", "adverb"), rng.randint(0 if noun_defs else 1, 2)):
                sections.append((pos, [prose.definition(0.3) for _ in range(rng.randint(1, 3))]))
            if noun_defs and rng.random() < 0.5:  # a second noun entry after the others
                more = [prose.definition(0.3)]
                sections.append(("noun", more))
                noun_defs = noun_defs + more
            pages[site][word] = _page(site, word, sections, rng, prose)
            entries[site][word] = {"found": bool(noun_defs), "definitions": noun_defs}
    words = list(dict.fromkeys(words))

    for site in SITE_IDS:
        site_dir = directory / "pages" / site
        site_dir.mkdir(parents=True, exist_ok=True)
        for word, page in pages[site].items():
            (site_dir / f"{word}.html").write_text(page, encoding="utf-8", newline="\n")
        snapshot = {"provider": site, "captured_at": "generated", "entries": entries[site]}
        (directory / f"{site}.json").write_text(
            json.dumps(snapshot, sort_keys=True, indent=1), encoding="utf-8"
        )
    info = {"words": words}
    (directory / "words.json").write_text(json.dumps(info, sort_keys=True), encoding="utf-8")
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["corpus", "live"])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.kind == "corpus":
        write_wndb(args.out / "wndb", args.seed)
        write_corpus(args.out, args.out / "wndb", args.seed)
    else:
        write_live(args.out, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
