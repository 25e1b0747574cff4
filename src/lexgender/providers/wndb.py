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
               retained in the definition text.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import DataFormatError, open_utf8
from .base import DefinitionSet, check_word

INDEX_FILE = "index.noun"
DATA_FILE = "data.noun"
FIELD_COUNT_MESSAGE = "field count disagrees with pointer and synset counts"


def _parse_data_noun(path: Path) -> dict[int, str]:
    """Map synset offset -> gloss text for every noun synset record."""
    glosses: dict[int, str] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(" ") or line.isspace():
                continue
            bar = line.find("|")
            if bar < 0:
                raise DataFormatError(f"{path.name}:{lineno}: record has no gloss separator")
            fields = line[:bar].split(None, 3)  # only the offset and ss_type are read
            if len(fields) < 4 or not (fields[0].isascii() and fields[0].isdigit()):
                raise DataFormatError(f"{path.name}:{lineno}: malformed synset record")
            if fields[2] != "n":
                raise DataFormatError(f"{path.name}:{lineno}: not a noun synset ({fields[2]!r})")
            offset = int(fields[0])
            if offset in glosses:
                raise DataFormatError(f"{path.name}:{lineno}: duplicate synset offset {offset}")
            glosses[offset] = line[bar + 1 :].strip().rstrip(";").strip()
    return glosses


def load_noun_index(directory: str | Path) -> dict[str, tuple[str, ...]]:
    """Build the lemma -> ordered-gloss index from a WNDB directory."""
    directory = Path(directory)
    glosses = _parse_data_noun(directory / DATA_FILE)
    index: dict[str, tuple[str, ...]] = {}
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
                if synset_cnt == 1:
                    entry = (glosses[int(numbers[2])],)
                else:
                    entry = tuple(map(glosses.__getitem__, map(int, numbers[2:])))
            except (IndexError, ValueError) as exc:
                raise DataFormatError(f"{INDEX_FILE}:{lineno}: {exc}") from exc
            except KeyError as exc:
                dangling = dangling or (lemma, exc.args[0])
                entry = ()
            if lemma in index:
                raise DataFormatError(f"{INDEX_FILE}:{lineno}: duplicate lemma {lemma!r}")
            index[lemma] = entry
    if dangling is not None:
        raise DataFormatError(
            f"{INDEX_FILE}: lemma {dangling[0]!r} references offset {dangling[1]} "
            f"missing from {DATA_FILE}"
        )
    return index


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
        self._index = load_noun_index(self.directory)

    def __len__(self) -> int:
        return len(self._index)

    def lookup(self, word: str) -> DefinitionSet | None:
        check_word(word)
        glosses = self._index.get(word.replace(" ", "_"))
        if glosses is None:
            return None
        return DefinitionSet(word=word, provider_id=self.provider_id, definitions=glosses)
