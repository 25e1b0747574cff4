"""The parsed WNDB noun index, cached next to the text files.

``load_noun_index`` imports this module on its first call, so a start-up
that loads no WordNet database neither compiles it nor imports ``hashlib``.

The cache (``CACHE_FILE`` in the WNDB directory) is keyed by a SHA-256
digest of both text files, the marshal format, the interpreter's bytecode
tag and the source of the parser and of this module. So an edit to either
file, whatever its size and mtime, another interpreter, or any change to
the parsing rules or the layout makes the cache stale. A cache whose key
differs, or whose records fail any check, is never read: the text files
are parsed and, once the parse has passed every check, the cache is
rewritten. A directory that cannot be written and holds no cache is
parsed on every load, without hashing anything. A cache is read only if it
is a regular file that no one but this user or the owner of ``data.noun``
can have written.

Layout: magic, key, the numbers of gloss, sense and lemma records (4-byte
little-endian), then each record as its 4-byte length, its ``marshal``
bytes and the SHA-256 of the file from the key to the end of those bytes.
The records hold the three parts of ``wndb.NounIndex`` in pieces of at
most ``_RECORD_ITEMS``: tuples of glosses, tuples of sense rows, and dicts
of lemma refs. Each record is checked in bulk, by the types of its values
and the range of its numbers, then appended. Records are read one at a
time, so a load holds one record's bytes, not the whole file.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import tempfile
from itertools import chain, islice
from pathlib import Path
from stat import S_ISREG

from . import wndb

CACHE_FILE = "lexgender-noun-index.cache"

_MAGIC = b"lexgender noun index\n"
_RECORD_ITEMS = 8192  # glosses, sense rows or lemmas per record
_NONBLOCK = getattr(os, "O_NONBLOCK", 0)


def load_cached(directory: Path) -> wndb.NounIndex:
    """The index of the WNDB in ``directory``: from its cache, or parsed and then cached."""
    path = directory / CACHE_FILE
    writable = os.access(directory, os.W_OK)
    if not writable and not path.exists():
        return wndb._parse_noun_index(directory)  # no cache to read or to write: no key to hash
    key = cache_key(directory)
    index = read_cache(path, key)
    if index is None:
        index = wndb._parse_noun_index(directory)
        # the files must not have changed while they were parsed
        if key is not None and writable and cache_key(directory) == key:
            write_cache(path, key, *cache_records(index))
    return index


def cache_key(directory: Path) -> bytes | None:
    """SHA-256 over both text files, marshal's version, the bytecode tag and the sources.

    None when a source cannot be read, so nothing is cached. A missing or
    unreadable text file raises as the parse would.
    """
    key = hashlib.sha256(f"{marshal.version} {sys.implementation.cache_tag}\n".encode())
    try:
        for source in (wndb.__file__, __file__):
            key.update(hashlib.sha256(Path(source).read_bytes()).digest())
    except OSError:
        return None
    for name in (wndb.DATA_FILE, wndb.INDEX_FILE):
        digest = hashlib.sha256()
        with open(directory / name, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        key.update(digest.digest())
    return key.digest()


def cache_records(index: wndb.NounIndex) -> tuple[list[tuple], list[tuple], list[dict]]:
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
        os.chmod(tmp, os.stat(path.parent / wndb.DATA_FILE).st_mode & 0o644)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if not isinstance(exc, OSError):  # a full disk, say, only costs the next load a parse
            raise


def read_cache(path: Path, key: bytes | None) -> wndb.NounIndex | None:
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
    return st.st_uid in (os.getuid(), os.stat(directory / wndb.DATA_FILE).st_uid)


def _check_numbers(numbers, low: int, high: int) -> None:
    """Raise ValueError unless every one of ``numbers`` is an int, not a bool, in ``range(low, high)``."""
    if not set(map(type, numbers)) <= {int} or numbers and not low <= min(numbers) <= max(numbers) < high:
        raise ValueError("bad gloss number")


def _read_records(fh, key: bytes, size: int) -> wndb.NounIndex | None:
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
    return wndb.NounIndex(tuple(glosses), lemmas, tuple(senses))
