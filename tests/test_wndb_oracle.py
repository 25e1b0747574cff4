"""``load_noun_index`` against the two-pass WNDB parser it replaced.

The oracle below is the loader as it was before ``index.noun`` was
resolved against the glosses in the same pass: parse ``data.noun``, parse
``index.noun`` into lemma -> offsets, then join. Both must build the same
index, and a malformed database must fail with the same message, which
names the file and line. There are two intended differences, where the
oracle took lines that the loader rejects: numeric ``index.noun`` fields
must be ASCII digits, where the oracle took anything ``int()`` takes, and
an ``index.noun`` line must have exactly the fields its counts call for,
where the oracle ignored fields after the offsets and let a sense-less
line end after ``sense_cnt``.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexgender.data import wndb_dir
from lexgender.errors import DataFormatError, open_utf8
from lexgender.providers import load_noun_index
from lexgender.providers.wndb import FIELD_COUNT_MESSAGE

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


def test_bundled_db_matches_oracle():
    assert load_noun_index(wndb_dir()) == oracle_load_noun_index(wndb_dir())


def test_mini_fixture_matches_oracle(tests_data):
    directory = tests_data / "wndb_mini"
    assert load_noun_index(directory) == oracle_load_noun_index(directory)


_LEMMAS = ["apple", "nun", "fig_tree", "monk", "pear", "widow"]
_GLOSSES = ["a fruit", 'an adult female; "the nun prayed"', "tree ;", "", "a | b"]
# Tokens a mutation may put in place of a well-formed one: signs, "_",
# non-ASCII digits and non-numbers, next to values a field can legally take.
_TOKENS = ["+1", "-1", "+0", "1_0", "0000_0001", "\u0661", "\u00b2", "x", "n", "v", "|", "@", "0", "1", "2"]
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


@settings(max_examples=400, deadline=None)
@given(_databases())
@example((["1 18 n 01 w 0 000 | a fruit"], ["apple n 1 0 1 0 7", "nun n 1 0 1 0 8"]))  # two dangle
def test_generated_db_matches_oracle(db):
    data, index = db
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "data.noun").write_text("".join(f"{line}\n" for line in data), encoding="utf-8")
        (directory / "index.noun").write_text("".join(f"{line}\n" for line in index), encoding="utf-8")
        new = _outcome(load_noun_index, directory)
        old = _outcome(oracle_load_noun_index, directory)
    if new[0] == "error" and new[3] in (DIGITS_MESSAGE, FIELD_COUNT_MESSAGE):
        # the oracle took this line: it loads, or fails later or at the join
        assert old[0] == "ok" or old[2] is None or old[2] >= new[2]
    else:
        assert old == new


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
