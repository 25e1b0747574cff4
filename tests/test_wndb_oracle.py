"""``load_noun_index`` against the two-pass WNDB parser it replaced.

The oracle below is the loader as it was before ``index.noun`` was
resolved against the glosses in the same pass: parse ``data.noun``, parse
``index.noun`` into lemma -> offsets, then join. Both must build the same
index, and a malformed database must fail with the same message, which
names the file and line. There are four intended differences, where the
oracle took lines that the loader rejects: an ``index.noun`` lemma must be
lowercase, where the oracle took lemmas no lookup could reach; numeric
``index.noun`` fields must be ASCII digits, where the oracle took
anything ``int()`` takes; an ``index.noun`` line must have exactly the
fields its counts call for, where the oracle ignored fields after the
offsets and let a sense-less line end after ``sense_cnt``; and a
``data.noun`` record head must have a decimal ``lex_filenum`` and
``p_cnt``, a hexadecimal ``w_cnt`` and exactly the fields they call for,
where the oracle read only the offset and ``ss_type``.
"""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexgender.data import wndb_dir
from lexgender.errors import DataFormatError, open_utf8
from lexgender.providers import load_noun_index, wndb
from lexgender.providers.wndb import CASE_MESSAGE, FIELD_COUNT_MESSAGE, HEAD_MESSAGE

from conftest import TESTS_DATA, _copy_wndb

DIGITS_MESSAGE = "numeric fields must be ASCII digits"


def _oracle_data_noun(path: Path) -> dict[int, str]:
    glosses: dict[int, str] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(" ") or not line.strip():
                continue
            head, sep, gloss = line.partition("|")
            if not sep:
                raise DataFormatError(f"{path.name}:{lineno}: record has no gloss separator")
            fields = head.split()
            if len(fields) < 4 or not (fields[0].isascii() and fields[0].isdigit()):
                raise DataFormatError(f"{path.name}:{lineno}: malformed synset record")
            if fields[2] != "n":
                raise DataFormatError(f"{path.name}:{lineno}: not a noun synset ({fields[2]!r})")
            offset = int(fields[0])
            if offset in glosses:
                raise DataFormatError(f"{path.name}:{lineno}: duplicate synset offset {offset}")
            glosses[offset] = gloss.strip().rstrip(";").strip()
    return glosses


def _oracle_index_noun(path: Path) -> dict[str, tuple[int, ...]]:
    index: dict[str, tuple[int, ...]] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(" ") or not line.strip():
                continue
            fields = line.split()
            try:
                lemma, pos, synset_cnt, p_cnt = fields[0], fields[1], int(fields[2]), int(fields[3])
                if pos != "n":
                    raise ValueError(f"unexpected pos {pos!r}")
                rest = fields[4 + p_cnt:]
                sense_cnt = int(rest[0])
                if sense_cnt != synset_cnt:
                    raise ValueError("sense count disagrees with synset count")
                offsets = tuple(int(off) for off in rest[2 : 2 + synset_cnt])
                if len(offsets) != synset_cnt:
                    raise ValueError("missing synset offsets")
            except (IndexError, ValueError) as exc:
                raise DataFormatError(f"{path.name}:{lineno}: {exc}") from exc
            if lemma in index:
                raise DataFormatError(f"{path.name}:{lineno}: duplicate lemma {lemma!r}")
            index[lemma] = offsets
    return index


def oracle_load_noun_index(directory) -> dict[str, tuple[str, ...]]:
    directory = Path(directory)
    glosses = _oracle_data_noun(directory / "data.noun")
    index: dict[str, tuple[str, ...]] = {}
    for lemma, offsets in _oracle_index_noun(directory / "index.noun").items():
        try:
            index[lemma] = tuple(glosses[off] for off in offsets)
        except KeyError as exc:
            raise DataFormatError(
                f"index.noun: lemma {lemma!r} references offset {exc.args[0]} "
                f"missing from data.noun"
            ) from exc
    return index


def _outcome(load, directory):
    """("ok", index), or ("error", file:line prefix, line number or None, message)."""
    try:
        return ("ok", load(directory))
    except DataFormatError as exc:
        prefix, _, message = str(exc).partition(" ")
        line = prefix.rstrip(":").partition(":")[2]
        return ("error", prefix, int(line) if line else None, message)


def _position(error) -> tuple[bool, int]:
    """Where an error outcome stopped: data.noun is read to the end before index.noun."""
    return (error[1].startswith("index.noun"), error[2])


def _assert_parse_matches_oracle(source: Path, tmp_path: Path) -> None:
    directory = _copy_wndb(source, tmp_path)  # a fresh copy, so the load parses it and reads no cache
    assert not (directory / wndb.CACHE_FILE).exists()
    assert load_noun_index(directory) == oracle_load_noun_index(directory)


def test_bundled_db_matches_oracle(tmp_path):
    _assert_parse_matches_oracle(wndb_dir(), tmp_path)


def test_mini_fixture_matches_oracle(tmp_path):
    _assert_parse_matches_oracle(TESTS_DATA / "wndb_mini", tmp_path)


_LEMMAS = ["apple", "nun", "fig_tree", "monk", "pear", "widow"]
_GLOSSES = ["a fruit", 'an adult female; "the nun prayed"', "tree ;", "", "a | b"]
# Tokens a mutation may put in place of a well-formed one: signs, "_",
# non-ASCII digits, non-numbers and an uppercase lemma, next to values a
# field can legally take.
_TOKENS = ["+1", "-1", "+0", "1_0", "0000_0001", "\u0661", "\u00b2", "x", "Nun", "n", "v", "|", "@", "0", "1", "2"]
_EXTRA_LINES = ["  1 header | with bar", "", "\t ", "not a record", "apple n 1 0 1 0 1"]


def _mutate(draw, lines: list[str]) -> None:
    kind = draw(st.sampled_from(["replace", "drop", "append", "insert", "duplicate"]))
    if kind == "insert" or not lines:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_EXTRA_LINES)))
        return
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
        return
    tokens = lines[at].split(" ")
    i = draw(st.integers(0, len(tokens) - 1))
    if kind == "drop":
        del tokens[i]
    elif kind == "append":
        tokens.append(draw(st.sampled_from(_TOKENS)))
    else:
        tokens[i] = draw(st.sampled_from(_TOKENS))
    lines[at] = " ".join(tokens)


@st.composite
def _databases(draw):
    """A small well-formed WNDB pair, then up to two mutations per file."""
    offsets = draw(st.lists(st.integers(0, 99), min_size=1, max_size=5, unique=True))
    data = [
        f"{off:0{draw(st.sampled_from([1, 8]))}d} 18 n 01 w 0 000 | {draw(st.sampled_from(_GLOSSES))}"
        for off in offsets
    ]
    index = ["  1 header"]
    for n, lemma in enumerate(draw(st.lists(st.sampled_from(_LEMMAS), min_size=1, max_size=5, unique=True))):
        senses = draw(st.lists(st.sampled_from(offsets), max_size=3))
        if senses and draw(st.integers(0, 7)) == 0:
            senses[-1] = 100 + n  # missing from data.noun
        symbols = draw(st.lists(st.sampled_from(["@", "~", "+"]), max_size=3))
        tagsense = draw(st.integers(0, 2))
        index.append(
            " ".join(
                [lemma, "n", str(len(senses)), str(len(symbols)), *symbols, str(len(senses)), str(tagsense)]
                + [f"{off:08d}" for off in senses]
            )
        )
    for lines in (data, index):
        for _ in range(draw(st.integers(0, 2))):
            _mutate(draw, lines)
    return data, index


def _write_db(directory: Path, db) -> None:
    data, index = db
    (directory / "data.noun").write_text("".join(f"{line}\n" for line in data), encoding="utf-8")
    (directory / "index.noun").write_text("".join(f"{line}\n" for line in index), encoding="utf-8")


@settings(max_examples=400, deadline=None)
@given(_databases())
@example((["1 18 n 01 w 0 000 | a fruit"], ["apple n 1 0 1 0 7", "nun n 1 0 1 0 8"]))  # two dangle
def test_generated_db_matches_oracle(db):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_db(directory, db)
        new = _outcome(load_noun_index, directory)
        old = _outcome(oracle_load_noun_index, directory)
    if new[0] == "error" and new[3] in (CASE_MESSAGE, DIGITS_MESSAGE, FIELD_COUNT_MESSAGE, HEAD_MESSAGE):
        # the oracle took this line: it loads, or fails later or at the join
        assert old[0] == "ok" or old[2] is None or _position(old) >= _position(new)
    else:
        assert old == new


@settings(max_examples=200, deadline=None)
@given(_databases())
def test_second_load_reads_the_cache(db):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_db(directory, db)
        first = _outcome(load_noun_index, directory)
        cached = (directory / wndb.CACHE_FILE).exists()
        if first[0] == "ok":
            with mock.patch.object(wndb, "_parse_noun_index", side_effect=AssertionError("parsed again")):
                second = _outcome(load_noun_index, directory)
            assert cached and first == second == _outcome(oracle_load_noun_index, directory)
        else:
            assert not cached and _outcome(load_noun_index, directory) == first
        names = sorted(path.name for path in directory.iterdir())
        assert names == ["data.noun", "index.noun"] + [wndb.CACHE_FILE] * cached  # no temp file left


@pytest.mark.parametrize(
    "line",
    [
        "nun n +1 0 1 0 00000000",
        "nun n \u0661 0 1 0 00000000",
        "nun n 1 +0 1 0 00000000",
        "nun n 1 0_0 1 0 00000000",
        "nun n 1 0 +1 0 00000000",
        "nun n 1 0 1 x 00000000",
        "nun n 1 0 1 -0 00000000",
        "nun n 1 0 1 0 0000_0000",
        "nun n 1 0 1 0 +0",
        "nun n 1 0 1 0 \u0660",
        "nun n 1 0 1 0 \uff10",
        "nun n 2 0 2 0 00000000 +0",
        "nun n +1 0 1 0 +0",
    ],
    ids=[
        "synset_cnt-sign",
        "synset_cnt-arabic-indic",
        "p_cnt-sign",
        "p_cnt-underscore",
        "sense_cnt-sign",
        "tagsense_cnt-letter",
        "tagsense_cnt-sign",
        "offset-underscore",
        "offset-sign",
        "offset-arabic-indic",
        "offset-fullwidth",
        "second-offset-sign",
        "every-field-signed",
    ],
)
def test_index_numbers_must_be_ascii_digits(tmp_path, line):
    (tmp_path / "data.noun").write_text("00000000 18 n 01 nun 0 000 | a woman\n", encoding="utf-8")
    (tmp_path / "index.noun").write_text(f"  1 header\n{line}\n", encoding="utf-8")
    assert oracle_load_noun_index(tmp_path)["nun"][0] == "a woman"
    with pytest.raises(DataFormatError, match=f"^index\\.noun:2: {DIGITS_MESSAGE}$"):
        load_noun_index(tmp_path)


@pytest.mark.parametrize("lemma", ["Apple", "APPLE", "fig_Tree", "\u01c5ab"])
def test_index_lemmas_must_be_lowercase(tmp_path, lemma):
    (tmp_path / "data.noun").write_text("1 18 n 01 w 0 000 | a fruit\n", encoding="utf-8")
    (tmp_path / "index.noun").write_text(f"  1 header\n{lemma} n 1 0 1 0 00000001\n", encoding="utf-8")
    assert oracle_load_noun_index(tmp_path)[lemma] == ("a fruit",)
    with pytest.raises(DataFormatError, match=f"^index\\.noun:2: {CASE_MESSAGE}$"):
        load_noun_index(tmp_path)


def test_lemmas_without_cased_letters_load(tmp_path):
    (tmp_path / "data.noun").write_text("1 18 n 01 w 0 000 | a fruit\n", encoding="utf-8")
    (tmp_path / "index.noun").write_text(".22 n 1 0 1 0 00000001\n3-d n 1 0 1 0 00000001\n", encoding="utf-8")
    assert load_noun_index(tmp_path) == {".22": ("a fruit",), "3-d": ("a fruit",)}


@pytest.mark.parametrize(
    "line",
    [
        "apple n 0 0 0",
        "apple n 1 0 1 0 1 2 x",
        "apple n 1 0 1 0 1 2",
        "apple n 0 0 0 0 1",
        "apple n 1 1 @ 1 0 1 x",
    ],
    ids=["sense-less-ends-early", "trailing-fields", "extra-offset", "sense-less-with-offset", "after-pointers"],
)
def test_index_field_count_must_match_counts(tmp_path, line):
    (tmp_path / "data.noun").write_text("1 18 n 01 w 0 000 | a fruit\n", encoding="utf-8")
    (tmp_path / "index.noun").write_text(f"{line}\n", encoding="utf-8")
    assert "apple" in oracle_load_noun_index(tmp_path)
    with pytest.raises(DataFormatError, match=f"^index\\.noun:1: {FIELD_COUNT_MESSAGE}$"):
        load_noun_index(tmp_path)


@pytest.mark.parametrize(
    "record",
    [
        "00000001 x n y | a fruit",
        "00000001 \u0661\u0668 n 01 w 0 000 | a fruit",
        "00000001 18 n +1 w 0 000 | a fruit",
        "00000001 18 n 0x1 w 0 000 | a fruit",
        "00000001 18 n 0g w 0 000 | a fruit",
        "00000001 18 n 01 w 0 +0 | a fruit",
        "00000001 18 n 01 w 0 00\u00b2 | a fruit",
        "00000001 18 n 01 w 000 | a fruit",
        "00000001 18 n 01 w 0 v 0 000 | a fruit",
        "00000001 18 n 02 w 0 000 | a fruit",
        "00000001 18 n 01 w 0 001 @ 00000001 n | a fruit",
        "00000001 18 n 01 w 0 000 @ | a fruit",
    ],
    ids=[
        "no-counts",
        "lex_filenum-arabic-indic",
        "w_cnt-sign",
        "w_cnt-0x-prefix",
        "w_cnt-not-hex",
        "p_cnt-sign",
        "p_cnt-superscript",
        "word-without-lex_id",
        "extra-word",
        "missing-word",
        "short-pointer",
        "extra-field",
    ],
)
def test_data_record_head_must_match_counts(tmp_path, record):
    (tmp_path / "data.noun").write_text(f"  1 header\n{record}\n", encoding="utf-8")
    (tmp_path / "index.noun").write_text("apple n 1 0 1 0 00000001\n", encoding="utf-8")
    assert oracle_load_noun_index(tmp_path)["apple"] == ("a fruit",)
    with pytest.raises(DataFormatError, match=f"^data\\.noun:2: {HEAD_MESSAGE}$"):
        load_noun_index(tmp_path)


def test_hex_word_count_reads_its_words(tmp_path):
    words = " ".join(f"w{i} 0" for i in range(10))
    (tmp_path / "data.noun").write_text(f"00000001 18 n 0A {words} 000 | a fruit\n", encoding="utf-8")
    (tmp_path / "index.noun").write_text("apple n 1 0 1 0 00000001\n", encoding="utf-8")
    assert load_noun_index(tmp_path) == {"apple": ("a fruit",)}
