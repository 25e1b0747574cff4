"""The parsed-index cache that ``load_noun_index`` keeps next to a WNDB.

A cache is read only when its key matches the text files, the marshal
format, the bytecode tag and the source of ``providers/wndb.py``, which
holds both the parser and the cache code, and only when every record
passes its checks. Anything else is ignored: the text files are parsed,
and the cache is rewritten from the result.
"""

import marshal
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from lexgender.errors import DataFormatError
from lexgender.providers import WordNetProvider, load_noun_index, wndb

CACHE = wndb.CACHE_FILE


@pytest.fixture()
def db(tmp_path, tests_data):
    """A private copy of the miniature WNDB, without any cache."""
    directory = tmp_path / "wndb"
    shutil.copytree(tests_data / "wndb_mini", directory, ignore=shutil.ignore_patterns(f"{CACHE}*"))
    return directory


def _parsed(directory: Path) -> dict:
    return wndb._parse_noun_index(directory)


def _cached(directory: Path):
    """The index the cache in ``directory`` holds under the current key, or None."""
    return wndb.read_cache(directory / CACHE, wndb.cache_key(directory))


def _names(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.iterdir())


def test_first_load_writes_the_cache_and_the_second_reads_it(db):
    index = load_noun_index(db)
    assert index == _parsed(db) and list(index) == list(_parsed(db))
    assert _names(db) == ["data.noun", "index.noun", CACHE]
    with mock.patch.object(wndb, "_parse_noun_index", side_effect=AssertionError("parsed again")):
        again = load_noun_index(db)
    assert again == index and list(again) == list(index)


def test_same_size_edit_with_restored_mtime_is_parsed(db):
    load_noun_index(db)
    data = db / "data.noun"
    before = data.stat()
    text = data.read_text(encoding="utf-8")
    data.write_text(text.replace("a woman belonging", "a woman BELONGING"), encoding="utf-8")
    os.utime(data, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = data.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_noun_index(db)["nun"] == ("a woman BELONGING to a religious order",)
    assert _cached(db)["nun"] == ("a woman BELONGING to a religious order",)


def _tamper(db: Path, change) -> None:
    """Rewrite the cache under its valid key, its gloss, sense and lemma records passed through ``change``."""
    records = wndb.cache_records(_parsed(db))
    wndb.write_cache(db / CACHE, wndb.cache_key(db), *change(*map(list, records)))


def _with_lemma(lemmas, lemma, ref):
    return [{**lemmas[0], lemma: ref}, *lemmas[1:]]


def _with_row(senses, lemmas, lemma, row):
    """The sense records, as one record, with the row that ``lemma`` points to replaced by ``row``."""
    rows = [old for record in senses for old in record]
    rows[~next(record[lemma] for record in lemmas if lemma in record)] = row
    return [tuple(rows)]


def _one_sense_only(lemmas):
    """The lemma records without the lemmas that point into the sense table."""
    return [{lemma: ref for lemma, ref in record.items() if ref >= 0} for record in lemmas]


# ``dog`` has two senses, so it points into the sense table; ``nun`` has one
TAMPERED = {
    "gloss-record-a-list": lambda g, s, l: ([list(g[0]), *g[1:]], s, l),
    "lemma-record-a-list": lambda g, s, l: (g, s, [list(l[0].items()), *l[1:]]),
    "gloss-record-a-code-object": lambda g, s, l: ([compile("('a fruit',)", "<cache>", "eval")], s, l),
    "lemma-record-a-code-object": lambda g, s, l: (g, s, [compile("{}", "<cache>", "eval")]),
    "gloss-not-str": lambda g, s, l: ([(b"a fruit", *g[0][1:]), *g[1:]], s, l),
    "lemma-not-str": lambda g, s, l: (g, s, [{**{b"apple": 0}, **l[0]}, *l[1:]]),
    "gloss-number-past-end": lambda g, s, l: (g, s, _with_lemma(l, "nun", sum(map(len, g)))),
    # without a sense table a negative number can only be a gloss number
    "gloss-number-negative": lambda g, s, l: (g, [], _with_lemma(_one_sense_only(l), "nun", -1)),
    "gloss-number-a-float": lambda g, s, l: (g, s, _with_lemma(l, "nun", 0.0)),
    "gloss-number-a-bool": lambda g, s, l: (g, s, _with_lemma(l, "nun", False)),
    "sense-number-past-end": lambda g, s, l: (g, _with_row(s, l, "dog", (0, sum(map(len, g)))), l),
    "sense-number-negative": lambda g, s, l: (g, _with_row(s, l, "dog", (0, -1)), l),
    "sense-numbers-a-list": lambda g, s, l: (g, _with_row(s, l, "dog", [0, 1]), l),
    "lemma-in-two-records": lambda g, s, l: (g, s, [*l, {"nun": 0}]),
    "lemma-records-as-gloss-records": lambda g, s, l: (g + l, s, []),
    "lemma-ref-below-the-sense-table": lambda g, s, l: (g, s, _with_lemma(l, "nun", -1 - sum(map(len, s)))),
    "sense-table-dropped": lambda g, s, l: (g, [], l),
    "sense-number-a-bool": lambda g, s, l: (g, _with_row(s, l, "dog", (0, True)), l),
    "sense-number-a-float": lambda g, s, l: (g, _with_row(s, l, "dog", (0, 1.0)), l),
    "sense-record-a-list": lambda g, s, l: (g, [list(s[0]), *s[1:]], l),
    "sense-record-of-ints": lambda g, s, l: (g, [(0, 1), *s[1:]], l),
    "sense-records-as-gloss-records": lambda g, s, l: (g + s, [], l),
}


def test_untampered_records_are_read(db):
    _tamper(db, lambda g, s, l: (g, s, l))
    assert _cached(db) == _parsed(db)


@pytest.mark.parametrize("change", TAMPERED.values(), ids=TAMPERED.keys())
def test_tampered_cache_is_ignored_and_rewritten(db, change):
    fresh = load_noun_index(db)
    _tamper(db, change)
    assert _cached(db) is None
    assert load_noun_index(db) == fresh
    assert _cached(db) == fresh


# the layout: magic, 32-byte key, three 4-byte record counts (gloss, sense,
# lemma), then records, each a 4-byte length, that many marshal bytes and a
# 32-byte running digest
KEY_AT = len(wndb._MAGIC)
COUNTS_AT = KEY_AT + 32
LEMMA_COUNT_AT = COUNTS_AT + 8
RECORDS_AT = COUNTS_AT + 12


def _put(data: bytes, at: int, value: bytes) -> bytes:
    return data[:at] + value + data[at + len(value) :]


def _without_last_record(data: bytes) -> bytes:
    """The cache with one lemma record fewer, counted and cut off."""
    starts, at = [], RECORDS_AT
    while at < len(data):
        starts.append(at)
        at += 4 + int.from_bytes(data[at : at + 4], "little") + 32
    lemma_records = int.from_bytes(data[LEMMA_COUNT_AT:RECORDS_AT], "little")
    return _put(data, LEMMA_COUNT_AT, (lemma_records - 1).to_bytes(4, "little"))[: starts[-1]]


BROKEN = {
    "empty": lambda data: b"",
    "header-only": lambda data: data[:RECORDS_AT],
    "short-length": lambda data: data[: RECORDS_AT + 2],
    "short-record": lambda data: data[:-1],
    "bytes-after-the-last-record": lambda data: data + b"\0",
    "record-after-the-last-record": lambda data: data + (2).to_bytes(4, "little") + marshal.dumps(()),
    "another-magic": lambda data: _put(data, 0, b"X"),
    "another-key": lambda data: _put(data, KEY_AT, bytes(32)),
    "gloss-record-count-raised": lambda data: _put(data, COUNTS_AT, (2).to_bytes(4, "little")),
    "sense-record-count-lowered": lambda data: _put(data, COUNTS_AT + 4, (0).to_bytes(4, "little")),
    "lemma-record-count-lowered": lambda data: _put(data, LEMMA_COUNT_AT, (0).to_bytes(4, "little")),
    "record-length-past-the-end": lambda data: _put(data, RECORDS_AT, (1 << 31).to_bytes(4, "little")),
    "gloss-text-changed": lambda data: data.replace(b"a woman belonging", b"a woman Belonging"),
    "last-record-dropped": _without_last_record,
}


@pytest.mark.parametrize("change", BROKEN.values(), ids=BROKEN.keys())
def test_broken_cache_file_is_ignored_and_rewritten(db, change):
    fresh = load_noun_index(db)
    path = db / CACHE
    path.write_bytes(change(path.read_bytes()))
    assert _cached(db) is None
    assert load_noun_index(db) == fresh
    assert _cached(db) == fresh


class _SpyFile:
    """A binary file that records the size of every ``read``."""

    def __init__(self, path, sizes):
        self._fh = open(path, "rb")
        self.sizes = sizes

    def read(self, size=-1):
        self.sizes.append(size)
        return self._fh.read(size)

    def fileno(self):
        return self._fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_a_record_length_past_the_end_is_never_read(db, monkeypatch):
    load_noun_index(db)
    path = db / CACHE
    path.write_bytes(_put(path.read_bytes(), RECORDS_AT, (0xFFFFFFFF).to_bytes(4, "little")))
    sizes = []

    def spy_open(file, *args, **kwargs):
        return _SpyFile(file, sizes) if Path(file).name == CACHE else open(file, *args, **kwargs)

    monkeypatch.setattr(wndb, "open", spy_open, raising=False)
    assert wndb.read_cache(path, wndb.cache_key(db)) is None
    assert sizes and max(sizes) <= path.stat().st_size


def test_an_error_of_the_opener_is_not_read_as_no_cache(db, monkeypatch):
    load_noun_index(db)

    def broken_open(*args, **kwargs):
        raise TypeError("a bug in the opener")

    key = wndb.cache_key(db)  # before the patch: the key reads the text files through open
    monkeypatch.setattr(wndb, "open", broken_open, raising=False)
    with pytest.raises(TypeError, match="a bug in the opener"):
        wndb.read_cache(db / CACHE, key)


def test_cache_of_another_database_is_ignored(db, tmp_path):
    other = tmp_path / "other"
    shutil.copytree(db, other)
    (other / "data.noun").write_text(
        (other / "data.noun").read_text(encoding="utf-8").replace("a woman", "a person"),
        encoding="utf-8",
    )
    load_noun_index(other)
    shutil.copy(other / CACHE, db / CACHE)
    assert load_noun_index(db)["nun"] == ("a woman belonging to a religious order",)


def test_key_covers_files_marshal_bytecode_tag_and_source(db, tmp_path, monkeypatch):
    key = wndb.cache_key(db)
    assert wndb.cache_key(db) == key and len(key) == 32
    with monkeypatch.context() as patch:
        patch.setattr(marshal, "version", marshal.version + 1)
        assert wndb.cache_key(db) != key
    with monkeypatch.context() as patch:
        patch.setattr(sys.implementation, "cache_tag", "other-tag")
        assert wndb.cache_key(db) != key
    source = tmp_path / Path(wndb.__file__).name  # the parser and the cache layout
    source.write_bytes(Path(wndb.__file__).read_bytes() + b"\n")
    with monkeypatch.context() as patch:
        patch.setattr(wndb, "__file__", str(source))
        assert wndb.cache_key(db) != key
        patch.setattr(wndb, "__file__", str(tmp_path / "missing.py"))
        assert wndb.cache_key(db) is None
        assert load_noun_index(db) == _parsed(db)  # no source to key on: parsed, not cached
        assert CACHE not in _names(db)
    (db / "index.noun").write_bytes((db / "index.noun").read_bytes() + b"\n")
    assert wndb.cache_key(db) != key


def test_read_only_directory_loads_without_a_cache(db, monkeypatch):
    db.chmod(0o555)
    try:
        if os.access(db, os.W_OK):  # permissions do not bind this user: refuse the write as the OS would
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(tempfile, "mkstemp", refuse)
        assert load_noun_index(db) == _parsed(db)
        assert load_noun_index(db) == _parsed(db)
        assert _names(db) == ["data.noun", "index.noun"]
    finally:
        db.chmod(0o755)


def _deny_writes(monkeypatch, directory: Path) -> None:
    """Make ``os.access`` report ``directory`` as read-only, whoever runs the tests."""
    access = os.access

    def fake(path, mode, *args, **kwargs):
        if mode & os.W_OK and Path(path) == directory:
            return False
        return access(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "access", fake)


def test_read_only_directory_without_a_cache_is_parsed_without_hashing(db, monkeypatch):
    _deny_writes(monkeypatch, db)
    monkeypatch.setattr(wndb, "cache_key", mock.Mock(side_effect=AssertionError("hashed")))
    assert load_noun_index(db) == _parsed(db)
    assert _names(db) == ["data.noun", "index.noun"]


def test_read_only_directory_with_a_cache_reads_it(db, monkeypatch):
    fresh = load_noun_index(db)
    _deny_writes(monkeypatch, db)
    with mock.patch.object(wndb, "_parse_noun_index", side_effect=AssertionError("parsed again")):
        assert load_noun_index(db) == fresh


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o600, 0o444], ids=oct)
def test_cache_is_no_more_readable_than_the_database(db, mode):
    (db / "data.noun").chmod(mode)
    load_noun_index(db)
    assert (db / CACHE).stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("mode", [0o664, 0o646, 0o666], ids=oct)
def test_cache_writable_by_others_is_ignored_and_rewritten(db, mode):
    fresh = load_noun_index(db)
    (db / CACHE).chmod(mode)
    assert _cached(db) is None
    assert load_noun_index(db) == fresh
    assert (db / CACHE).stat().st_mode & 0o777 == 0o644 and _cached(db) == fresh


@pytest.mark.parametrize("idle_writer", [False, True], ids=["no writer", "idle writer"])
def test_cache_that_is_a_fifo_is_ignored_and_replaced(db, make_fifo, within_5s, idle_writer):
    make_fifo(db / CACHE, idle_writer)
    provider = within_5s(WordNetProvider, db)
    assert provider.lookup("nun") == WordNetProvider(db).lookup("nun") is not None
    assert (db / CACHE).is_file() and _cached(db) == _parsed(db)


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0, reason="giving a file away needs root")
def test_cache_owned_by_neither_this_user_nor_the_database_owner_is_ignored(db):
    fresh = load_noun_index(db)
    stranger = 4242
    os.chown(db / CACHE, stranger, -1)
    assert _cached(db) is None
    assert load_noun_index(db) == fresh and (db / CACHE).stat().st_uid == os.getuid()
    # the database's owner may have written it
    os.chown(db / CACHE, stranger, -1)
    os.chown(db / "data.noun", stranger, -1)
    assert _cached(db) == fresh


def test_failed_write_leaves_no_temp_file(db, monkeypatch):
    def refuse(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    assert load_noun_index(db) == _parsed(db)
    assert _names(db) == ["data.noun", "index.noun"]


def test_a_write_error_that_is_not_an_os_error_propagates_and_leaves_no_temp_file(db):
    with pytest.raises(ValueError, match="unmarshallable"):
        wndb.write_cache(db / CACHE, b"key", [object()])
    assert _names(db) == ["data.noun", "index.noun"]


def test_cache_beside_a_missing_database_is_not_read(db):
    load_noun_index(db)
    key = wndb.cache_key(db)
    (db / "data.noun").unlink()  # so the owner check cannot stat it
    assert wndb.read_cache(db / CACHE, key) is None


def test_malformed_database_raises_and_writes_no_cache(db):
    data = db / "data.noun"
    good = data.read_text(encoding="utf-8")
    data.write_text(good + "00000120 18 n 01 lute 0 | a stringed instrument\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"^data\\.noun:14: {wndb.HEAD_MESSAGE}$") as first:
        load_noun_index(db)
    assert _names(db) == ["data.noun", "index.noun"]
    with pytest.raises(DataFormatError) as parsed:
        _parsed(db)
    assert str(first.value) == str(parsed.value)
    # a valid cache of the old text does not hide the error, and is left as it was
    data.write_text(good, encoding="utf-8")
    load_noun_index(db)
    cache = (db / CACHE).read_bytes()
    data.write_text(good.replace("00000080", "0000008x"), encoding="utf-8")
    with pytest.raises(DataFormatError, match="malformed synset record"):
        load_noun_index(db)
    assert (db / CACHE).read_bytes() == cache


def test_files_changed_during_the_parse_are_not_cached(db, monkeypatch):
    parse = wndb._parse_noun_index

    def parse_then_edit(directory):
        index = parse(directory)
        with open(directory / "index.noun", "a", encoding="utf-8") as fh:
            fh.write("\n")
        return index

    monkeypatch.setattr(wndb, "_parse_noun_index", parse_then_edit)
    load_noun_index(db)
    assert CACHE not in _names(db)
