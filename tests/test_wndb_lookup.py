"""``WordNetProvider.lookup`` on the compact index against the naive loader.

The oracle of ``test_wndb_oracle`` builds a plain dict of gloss tuples.
Every lemma it holds that ``check_word`` accepts, with ``_`` read as a
space, must look up to the same glosses, from a parsed load and from a
cached one; a lemma it does not hold must look up to None.
"""

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from test_wndb_oracle import _LEMMAS, _databases, _write_db, oracle_load_noun_index

from lexgender.errors import DataFormatError
from lexgender.providers import DefinitionSet, WordNetProvider, check_word, wndb


def _checks(lemmas) -> list[tuple[str, str]]:
    """(lemma, word) for every lemma whose word passes ``check_word``."""
    pairs = []
    for lemma in lemmas:
        word = lemma.replace("_", " ")
        try:
            check_word(word)
        except ValueError:
            continue
        pairs.append((lemma, word))
    return pairs


@settings(max_examples=300, deadline=None)
@given(_databases())
@example((["1 18 n 01 w 0 000 | a fruit"], ["apple n 0 0 0 0", "nun n 1 0 1 0 1", "fig_tree n 2 0 2 0 1 1"]))
def test_lookup_gives_the_oracle_glosses(db):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_db(directory, db)
        try:
            parsed = WordNetProvider(directory)
        except DataFormatError:
            return  # the errors are compared with the oracle's in test_wndb_oracle
        assert (directory / wndb.CACHE_FILE).exists()
        with mock.patch.object(wndb, "_parse_noun_index", side_effect=AssertionError("parsed again")):
            cached = WordNetProvider(directory)
        expected = oracle_load_noun_index(directory)
    for provider in (parsed, cached):
        assert len(provider) == len(expected)
        for lemma, word in _checks(expected):
            assert provider.lookup(word) == DefinitionSet(word, "wordnet", expected[lemma])
        for lemma, word in _checks(set(_LEMMAS) - set(expected)):
            assert provider.lookup(word) is None
        assert provider.lookup("qzxv") is None


def test_zero_sense_lemma_is_found_without_definitions(tmp_path):
    (tmp_path / "data.noun").write_text("1 18 n 01 w 0 000 | a fruit\n", encoding="utf-8")
    (tmp_path / "index.noun").write_text("apple n 0 0 0 0\npear n 1 0 1 0 1\n", encoding="utf-8")
    for _ in range(2):  # parsed, then cached
        provider = WordNetProvider(tmp_path)
        assert provider.lookup("apple") == DefinitionSet("apple", "wordnet", ())
        assert provider.lookup("pear") == DefinitionSet("pear", "wordnet", ("a fruit",))
        assert provider.lookup("fig") is None
    assert (tmp_path / wndb.CACHE_FILE).exists()
