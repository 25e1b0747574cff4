"""Parser and provider for the on-disk WordNet noun database (WNDB format).

Reads the plain-text ``index.noun`` and ``data.noun`` files directly instead
of going through a toolkit binding: the files are stable, the parse is
deterministic, and there is no runtime dependency.

Format notes (both files are space-delimited; header lines begin with two
spaces and are skipped):

  index.noun   lemma pos synset_cnt p_cnt [ptr_symbol...] sense_cnt
               tagsense_cnt synset_offset [synset_offset...]
               Offsets appear in sense order. Numbers are ASCII digits,
               and a line has exactly 6 + p_cnt + synset_cnt fields.

  data.noun    synset_offset lex_filenum ss_type w_cnt word lex_id
               [word lex_id...] p_cnt [ptr...] | gloss
               The gloss is everything after the first "|". Example
               sentences (quoted segments) are part of the gloss and are
               retained in the definition text. w_cnt is hexadecimal,
               the other numbers are decimal, and a pointer has four
               fields, so the head before the "|" has exactly
               4 + 2 * w_cnt + 1 + 4 * p_cnt fields.

``load_noun_index`` keeps the parsed index in a cache next to the text
files; see ``wndb_cache``.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path

from ..errors import DataFormatError, open_utf8
from .base import DefinitionSet, check_word

INDEX_FILE = "index.noun"
DATA_FILE = "data.noun"
FIELD_COUNT_MESSAGE = "field count disagrees with pointer and synset counts"
HEAD_MESSAGE = "record head disagrees with its lex_filenum, w_cnt and p_cnt"
CASE_MESSAGE = "lemma is not lowercase, so no lookup could reach it"

_HEX_DIGITS = "0123456789abcdefABCDEF"
_new_definitions = DefinitionSet._make  # no field checks, so it builds what the constructor would


def _parse_data_noun(path: Path) -> tuple[dict[int, int], tuple[str, ...]]:
    """Map synset offset -> gloss number, and the glosses so numbered, in file order."""
    number_of: dict[int, int] = {}
    glosses: list[str] = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(" ") or line.isspace():
                continue
            bar = line.find("|")
            if bar < 0:
                raise DataFormatError(f"{path.name}:{lineno}: record has no gloss separator")
            fields = line[:bar].split()
            if len(fields) < 4 or not (fields[0].isascii() and fields[0].isdigit()):
                raise DataFormatError(f"{path.name}:{lineno}: malformed synset record")
            if fields[2] != "n":
                raise DataFormatError(f"{path.name}:{lineno}: not a noun synset ({fields[2]!r})")
            w_cnt = fields[3]
            p_at = 4 + 2 * int(w_cnt, 16) if not w_cnt.strip(_HEX_DIGITS) else 0
            # lex_filenum and p_cnt joined, so that one isascii and one isdigit check both
            numbers = fields[1] + fields[p_at] if 4 <= p_at < len(fields) else ""
            if not (
                numbers.isascii()
                and numbers.isdigit()
                and len(fields) == p_at + 1 + 4 * int(fields[p_at])
            ):
                raise DataFormatError(f"{path.name}:{lineno}: {HEAD_MESSAGE}")
            offset = int(fields[0])
            if offset in number_of:
                raise DataFormatError(f"{path.name}:{lineno}: duplicate synset offset {offset}")
            number_of[offset] = len(glosses)
            glosses.append(line[bar + 1 :].strip().rstrip(";").strip())
    return number_of, tuple(glosses)


class NounIndex(Mapping):
    """A read-only lemma -> ordered-gloss map over the compact parsed form.

    ``lemmas`` maps each lemma, in ``index.noun`` order, to the number of its
    one gloss in ``glosses``, or else to ``~i``: row ``i`` of ``senses`` holds
    its gloss numbers in sense order.
    """

    __slots__ = ("glosses", "lemmas", "senses")

    def __init__(self, glosses: tuple[str, ...], lemmas: dict[str, int], senses: tuple[tuple[int, ...], ...]):
        self.glosses, self.lemmas, self.senses = glosses, lemmas, senses

    def __getitem__(self, lemma: str) -> tuple[str, ...]:
        ref, glosses = self.lemmas[lemma], self.glosses
        return (glosses[ref],) if ref >= 0 else tuple(map(glosses.__getitem__, self.senses[~ref]))

    def __iter__(self):
        return iter(self.lemmas)

    def __len__(self) -> int:
        return len(self.lemmas)


def load_noun_index(directory: str | Path) -> NounIndex:
    """The lemma -> ordered-gloss index of a WNDB directory, from its cache when valid.

    On a miss the text files are parsed, and only an index that passed every
    check is written to the cache.
    """
    from .wndb_cache import load_cached  # compiled on the first load, not at start-up

    return load_cached(Path(directory))


def _parse_noun_index(directory: Path) -> NounIndex:
    """Build the compact index from the text files."""
    number_of, glosses = _parse_data_noun(directory / DATA_FILE)
    lemmas: dict[str, int] = {}
    senses: list[tuple[int, ...]] = []
    dangling = None  # first (lemma, offset) missing from data.noun, reported after the line checks
    with open_utf8(directory / INDEX_FILE) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(" ") or line.isspace():
                continue
            fields = line.split()
            try:
                lemma, pos, synset_cnt, p_cnt = fields[0], fields[1], int(fields[2]), int(fields[3])
                if pos != "n":
                    raise ValueError(f"unexpected pos {pos!r}")
                # skip pointer symbols; sense_cnt and tagsense_cnt precede the offsets
                numbers = fields[4 + p_cnt : 6 + p_cnt + synset_cnt]
                if int(numbers[0]) != synset_cnt:
                    raise ValueError("sense count disagrees with synset count")
                digits = fields[2] + fields[3] + "".join(numbers)
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError("numeric fields must be ASCII digits")
                if len(fields) != 6 + p_cnt + synset_cnt:
                    short = synset_cnt and len(fields) < 6 + p_cnt + synset_cnt
                    raise ValueError("missing synset offsets" if short else FIELD_COUNT_MESSAGE)
                if lemma != lemma.lower():
                    raise ValueError(CASE_MESSAGE)
                if synset_cnt == 1:
                    ref = number_of[int(numbers[2])]
                else:
                    senses.append(tuple(map(number_of.__getitem__, map(int, numbers[2:]))))
                    ref = -len(senses)  # ~(its row in senses)
            except (IndexError, ValueError) as exc:
                raise DataFormatError(f"{INDEX_FILE}:{lineno}: {exc}") from exc
            except KeyError as exc:
                dangling = dangling or (lemma, exc.args[0])
                ref = 0
            if lemma in lemmas:
                raise DataFormatError(f"{INDEX_FILE}:{lineno}: duplicate lemma {lemma!r}")
            lemmas[lemma] = ref
    if dangling is not None:
        raise DataFormatError(
            f"{INDEX_FILE}: lemma {dangling[0]!r} references offset {dangling[1]} "
            f"missing from {DATA_FILE}"
        )
    return NounIndex(glosses, lemmas, tuple(senses))


class WordNetProvider:
    """Definition lookups against a parsed WNDB noun database.

    Immutable after construction; safe for concurrent lookups. Lemmas with
    spaces are stored with underscores in WNDB, so lookups map spaces to
    underscores. No other morphology is applied: plural surface forms not
    listed as lemmas are simply not found.
    """

    deterministic = True

    def __init__(self, directory: str | Path, provider_id: str = "wordnet"):
        self.provider_id = provider_id
        self.directory = Path(directory)
        index = load_noun_index(self.directory)
        self._glosses, self._lemmas, self._senses = index.glosses, index.lemmas, index.senses

    def __len__(self) -> int:
        return len(self._lemmas)

    def lookup(self, word: str) -> DefinitionSet | None:
        check_word(word)
        ref = self._lemmas.get(word.replace(" ", "_"))
        if ref is None:
            return None
        glosses = self._glosses
        definitions = (glosses[ref],) if ref >= 0 else tuple(map(glosses.__getitem__, self._senses[~ref]))
        return _new_definitions((word, self.provider_id, definitions))
