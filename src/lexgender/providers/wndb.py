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

``load_noun_index`` keeps the parsed index in a cache (``CACHE_FILE``) next
to the text files, keyed by a SHA-256 digest of both text files, the marshal
format, the interpreter's bytecode tag and this module's source. So an edit
to either file, whatever its size and mtime, another interpreter, or any
change to the parsing rules or the layout makes the cache stale. A cache
whose key differs, or whose records fail any check, is never read: the text
files are parsed and, once the parse has passed every check, the cache is
rewritten. A directory that cannot be written and holds no cache is parsed
on every load, without hashing anything. A cache is read only if it is a
regular file that no one but this user or the owner of ``data.noun`` can
have written. Layout: magic, key, the numbers of gloss, sense and lemma
records (4-byte little-endian), then each record as its 4-byte length, its
``marshal`` bytes and the SHA-256 of the file from the key to the end of
those bytes. The records hold the three parts of ``NounIndex`` in pieces of
at most ``_RECORD_ITEMS``: tuples of glosses, tuples of sense rows, and
dicts of lemma refs. Each record is checked in bulk, by the types of its
values and the range of its numbers, then appended. Records are read one at
a time, so a load holds one record's bytes, not the whole file.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import tempfile
from collections.abc import Mapping
from itertools import chain, islice
from pathlib import Path
from stat import S_ISREG

from ..errors import DataFormatError, open_utf8
from .base import DefinitionSet, check_word

INDEX_FILE = "index.noun"
DATA_FILE = "data.noun"
CACHE_FILE = "lexgender-noun-index.cache"
FIELD_COUNT_MESSAGE = "field count disagrees with pointer and synset counts"
HEAD_MESSAGE = "record head disagrees with its lex_filenum, w_cnt and p_cnt"
CASE_MESSAGE = "lemma is not lowercase, so no lookup could reach it"

_HEX_DIGITS = "0123456789abcdefABCDEF"
_MAGIC = b"lexgender noun index\n"
_RECORD_ITEMS = 8192  # glosses, sense rows or lemmas per record
_NONBLOCK = getattr(os, "O_NONBLOCK", 0)
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
    directory = Path(directory)
    path = directory / CACHE_FILE
    writable = os.access(directory, os.W_OK)
    if not writable and not path.exists():
        return _parse_noun_index(directory)  # no cache to read or to write: no key to hash
    key = cache_key(directory)
    index = read_cache(path, key)
    if index is None:
        index = _parse_noun_index(directory)
        # the files must not have changed while they were parsed
        if key is not None and writable and cache_key(directory) == key:
            write_cache(path, key, *cache_records(index))
    return index


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


def cache_key(directory: Path) -> bytes | None:
    """SHA-256 over both text files, marshal's version, the bytecode tag and this source.

    None when the source cannot be read, so nothing is cached. A missing or
    unreadable text file raises as the parse would.
    """
    key = hashlib.sha256(f"{marshal.version} {sys.implementation.cache_tag}\n".encode())
    try:
        key.update(hashlib.sha256(Path(__file__).read_bytes()).digest())
    except OSError:
        return None
    for name in (DATA_FILE, INDEX_FILE):
        digest = hashlib.sha256()
        with open(directory / name, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        key.update(digest.digest())
    return key.digest()


def cache_records(index: NounIndex) -> tuple[list[tuple], list[tuple], list[dict]]:
    """The gloss, sense and lemma records of ``index``."""
    lemmas = iter(index.lemmas.items())
    return (
        [index.glosses[i : i + _RECORD_ITEMS] for i in range(0, len(index.glosses), _RECORD_ITEMS)],
        [index.senses[i : i + _RECORD_ITEMS] for i in range(0, len(index.senses), _RECORD_ITEMS)],
        [dict(islice(lemmas, _RECORD_ITEMS)) for _ in range(0, len(index.lemmas), _RECORD_ITEMS)],
    )


def write_cache(path: Path, key: bytes, *parts: list) -> None:
    """Write the records of each part under ``key`` via temp file and rename; skipped if that fails."""
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    except OSError:
        return  # the directory cannot be written: it is parsed on every load
    try:
        with os.fdopen(fd, "wb") as fh:
            head = key + b"".join(len(records).to_bytes(4, "little") for records in parts)
            running = hashlib.sha256(head)
            fh.write(_MAGIC + head)
            for records in parts:
                for record in records:
                    data = marshal.dumps(record)
                    frame = len(data).to_bytes(4, "little") + data
                    running.update(frame)
                    fh.write(frame + running.digest())
        # mkstemp makes it private; it takes the read bits of the database it copies
        os.chmod(tmp, os.stat(path.parent / DATA_FILE).st_mode & 0o644)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if not isinstance(exc, OSError):  # a full disk, say, only costs the next load a parse
            raise


def read_cache(path: Path, key: bytes | None) -> NounIndex | None:
    """The index cached at ``path`` under ``key``, or None if it is missing, stale or malformed."""
    if key is None:
        return None
    try:  # a FIFO opens at once, then fails _trusted's regular-file check
        fh = open(path, "rb", opener=lambda name, flags: os.open(name, flags | _NONBLOCK))
    except OSError:
        return None
    with fh:
        try:
            st = os.fstat(fh.fileno())
            if not _trusted(st, path.parent):
                return None
        except OSError:
            return None
        try:  # only a damaged record's bytes may fail to unmarshal or to pass a check
            return _read_records(fh, key, st.st_size)
        except (OSError, EOFError, ValueError, TypeError):
            return None


def _trusted(st: os.stat_result, directory: Path) -> bool:
    """Whether ``st`` is a regular file that only this user or the database's owner can have written.

    The digests catch damage, not a crafted file, and ``marshal`` is not
    safe for crafted input. Where there are no owners to check, no cache is
    trusted.
    """
    if not hasattr(os, "getuid") or not S_ISREG(st.st_mode) or st.st_mode & 0o022:  # 0o022: group- or world-writable
        return False
    return st.st_uid in (os.getuid(), os.stat(directory / DATA_FILE).st_uid)


def _check_numbers(numbers, low: int, high: int) -> None:
    """Raise ValueError unless every one of ``numbers`` is an int, not a bool, in ``range(low, high)``."""
    if not set(map(type, numbers)) <= {int} or numbers and not low <= min(numbers) <= max(numbers) < high:
        raise ValueError("bad gloss number")


def _read_records(fh, key: bytes, size: int) -> NounIndex | None:
    """Check each record's running digest, then unmarshal it and check its contents in bulk."""
    head = fh.read(len(_MAGIC) + len(key) + 12)
    if head[:-12] != _MAGIC + key:
        return None
    running = hashlib.sha256(head[len(_MAGIC) :])
    left = size - len(head)
    gloss_records, sense_records, lemma_records = (
        int.from_bytes(head[at : at + 4], "little") for at in range(len(head) - 12, len(head), 4)
    )

    def records(count: int):
        nonlocal left
        for _ in range(count):
            length = fh.read(4)
            size = int.from_bytes(length, "little")
            left -= 4 + size + 32
            if left < 0:
                raise ValueError("short record")
            data = fh.read(size)
            running.update(length)
            running.update(data)
            if fh.read(32) != running.digest():
                raise ValueError("record digest mismatch")
            yield marshal.loads(data)

    glosses: list[str] = []
    for record in records(gloss_records):
        if type(record) is not tuple or not set(map(type, record)) <= {str}:
            raise ValueError("bad gloss record")
        glosses.extend(record)
    senses: list[tuple[int, ...]] = []
    for record in records(sense_records):
        if type(record) is not tuple or not set(map(type, record)) <= {tuple}:
            raise ValueError("bad sense record")
        _check_numbers(list(chain.from_iterable(record)), 0, len(glosses))
        senses.extend(record)
    lemmas: dict[str, int] = {}
    count = 0
    for record in records(lemma_records):
        if type(record) is not dict or not set(map(type, record)) <= {str}:
            raise ValueError("bad lemma record")
        _check_numbers(record.values(), -len(senses), len(glosses))  # ref ~i points to senses[i]
        count += len(record)
        lemmas.update(record)
    if left or len(lemmas) != count:  # bytes after the last record, or a lemma in two records
        raise ValueError("bad cache layout")
    return NounIndex(tuple(glosses), lemmas, tuple(senses))


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
