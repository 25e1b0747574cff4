"""Work budgets: how often the grid search, ``classify`` and the corpus pipeline ask a source or parse a line,
and what a cached WNDB load and a warm live hit cost in file operations.

A counting in-memory source records every lookup, so a change that looks a
word up once per cell, or on a route that needs no dictionary, fails here
without any counter in the library. Corpus ingest is counted by wrapping
its line parser, and the cache reads by wrapping ``open`` and ``os`` calls.
No budget is timed.
"""

import builtins
import os
import shutil
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from lexgender import corpus
from lexgender.classifier import ROUTE_SEED, ROUTE_SUFFIX, classify, suffix_heuristic
from lexgender.core import GenderLabel, default_lexicon
from lexgender.corpus import NounRecord, classify_inventory, ingest_tagged
from lexgender.data import gold_path
from lexgender.evaluation import GoldEntry, grid_search, load_gold
from lexgender.providers import wndb
from lexgender.providers.base import DefinitionSet
from lexgender.providers.httpdict import CachedHttpProvider, write_entry_atomic

MASC, FEM, NEUT = GenderLabel.MASC, GenderLabel.FEM, GenderLabel.NEUT


class TableProvider:
    """Snapshot-like in-memory source: word -> definitions; counts its lookups."""

    deterministic = True

    def __init__(self, provider_id, table):
        self.provider_id = provider_id
        self.table = table
        self.lookups = Counter()

    def lookup(self, word):
        self.lookups[word] += 1
        if word not in self.table:
            return None
        return DefinitionSet(word, self.provider_id, tuple(self.table[word]))


GOLD = [
    GoldEntry("woman", FEM, "family"),  # seed route
    GoldEntry("chairman", MASC, "title"),  # suffix route
    GoldEntry("nurse", FEM, "occupation"),
    GoldEntry("nurse", NEUT, "occupation"),  # listed twice: still one lookup
    GoldEntry("grand-father", MASC, "family"),  # found after the strip, in alpha
    GoldEntry("step-mother", FEM, "family"),  # stripped in alpha, found as it is in beta
    GoldEntry("crew", NEUT, "misc"),
    GoldEntry("qzxv", NEUT, "misc"),  # in no source
]
TABLES = {
    "alpha": {
        "nurse": ["a woman who tends the sick", "a man who tends the sick"],
        "grandfather": ["the father of a parent"],
        "stepmother": ["the wife of a father"],
        "crew": ["the men of a ship", "a woman and a man"],
    },
    "beta": {
        "nurse": ["a person who tends the sick, often a woman"],
        "step-mother": ["a mother by marriage"],
        "crew": ["a group of men and women women"],
    },
}


def _strip(word):
    return "".join(ch for ch in word if ch.isalnum())


def _budget(table, words):
    """Each distinct dictionary-routed word once, and its stripped form once where missing."""
    lexicon, budget = default_lexicon(), Counter()
    for word in dict.fromkeys(words):
        if lexicon.shortcut_label(word) or suffix_heuristic(word):
            continue  # seed and suffix routes: no dictionary
        budget[word] += 1
        if word not in table and _strip(word) != word:
            budget[_strip(word)] += 1
    return budget


@pytest.mark.parametrize(
    "ranges",
    [{"d_range": (4,), "t_range": (20,), "w_range": (5,)}, {}],
    ids=["1-cell", "441-cell"],
)
def test_grid_search_looks_each_word_up_once_per_source(ranges):
    providers = [TableProvider(pid, table) for pid, table in TABLES.items()]
    result = grid_search(GOLD, providers, **ranges)
    assert len(result.table) == (1 if ranges else 441)
    for provider in providers:
        assert provider.lookups == _budget(provider.table, (entry.word for entry in GOLD)), provider.provider_id
    # the stripped retry only where the word is missing as it is
    assert "stepmother" in providers[0].lookups and "stepmother" not in providers[1].lookups


@pytest.mark.parametrize(
    "ranges",
    [{"d_range": (2,), "t_range": (10,), "w_range": (5,)}, {}],
    ids=["1-cell", "441-cell"],
)
def test_grid_search_budget_on_the_bundled_gold_list(ranges):
    # an empty source lacks every word, so each hyphenated one is retried
    # stripped; "step-mother" and "stepmother" are then asked for twice
    gold = load_gold(gold_path())
    provider = TableProvider("alpha", {})
    grid_search(gold, [provider], **ranges)
    assert provider.lookups == _budget({}, (entry.word for entry in gold))
    assert provider.lookups["stepmother"] == 2


@pytest.mark.parametrize(
    "word, route",
    [("woman", ROUTE_SEED), ("Husbands", ROUTE_SEED), ("policewoman", ROUTE_SUFFIX), ("busboy", ROUTE_SUFFIX)],
)
def test_classify_does_no_lookup_on_the_seed_and_suffix_routes(word, route):
    providers = [TableProvider(pid, table) for pid, table in TABLES.items()]
    assert classify(word, providers).route == route
    assert [provider.lookups for provider in providers] == [Counter(), Counter()]


def test_classify_inventory_classifies_each_distinct_surface_once():
    # an NN and an NNS record of one surface share one classification
    records = [
        NounRecord(surface, pos, 1)
        for surface in ("crew", "grand-father", "nurse", "qzxv", "step-mother", "woman", "chairman")
        for pos in ("NN", "NNS")
    ]
    providers = [TableProvider(pid, table) for pid, table in TABLES.items()]
    results = classify_inventory(records, providers)
    assert list(results) == list(dict.fromkeys(record.surface for record in records))
    for provider in providers:
        budget = _budget(provider.table, (record.surface for record in records))
        assert provider.lookups == budget, provider.provider_id


def test_ingest_parses_each_distinct_line_once(monkeypatch):
    parsed = Counter()
    noun_key = corpus._noun_key

    def counting(line):
        parsed[line] += 1
        return noun_key(line)

    monkeypatch.setattr(corpus, "_noun_key", counting)
    sentence = ["the\tDT\n", "nun\tNN\n", "and\tCC\n", "the\tDT\n", "monks\tNNS\n", "\n"]
    lines = sentence * 50 + ["nun\tNNS\n", "Nun\tNN\n"] + sentence * 50
    records = ingest_tagged(lines)
    assert parsed == Counter(dict.fromkeys(lines, 1))
    assert records == [NounRecord("monks", "NNS", 100), NounRecord("nun", "NN", 101), NounRecord("nun", "NNS", 1)]


def test_a_cached_wndb_load_hashes_each_text_file_once_and_parses_nothing(tmp_path, tests_data, monkeypatch):
    db = tmp_path / "wndb"
    db.mkdir()
    for name in (wndb.DATA_FILE, wndb.INDEX_FILE):
        shutil.copy(tests_data / "wndb_mini" / name, db / name)
    fresh = wndb.load_noun_index(db)  # writes the cache
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if Path(file).parent == db:
            opened[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for parser in ("_parse_noun_index", "_parse_data_noun"):
        monkeypatch.setattr(wndb, parser, mock.Mock(side_effect=AssertionError(f"{parser} ran on a cached load")))
    assert wndb.load_noun_index(db) == fresh
    assert opened == Counter({wndb.DATA_FILE: 1, wndb.INDEX_FILE: 1, wndb.CACHE_FILE: 1})


class _RefusingLock:
    """A lock that fails the test when anything takes it."""

    def acquire(self, *args, **kwargs):
        raise AssertionError("a warm hit took the lock")

    __enter__ = acquire

    def __exit__(self, *exc):
        return False


class _NoSession:
    def get(self, *args, **kwargs):
        raise AssertionError("a warm hit sent a request")


def _counting(calls, name, real):
    def call(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return call


# os calls a cache read might make; os.path.exists and Path.exists both call os.stat
OS_CALLS = ("open", "read", "close", "stat", "lstat", "fstat", "access", "listdir", "scandir", "makedirs")


def test_a_warm_live_hit_reads_one_file_without_stat_lock_or_request(tmp_path, monkeypatch):
    provider = CachedHttpProvider("merriam_webster", tmp_path, session=_NoSession())
    (tmp_path / "merriam_webster").mkdir()
    write_entry_atomic(str(tmp_path / "merriam_webster" / "nun.json"), {"found": True, "definitions": ["a woman"]})
    provider._lock = _RefusingLock()
    calls = Counter()
    with monkeypatch.context() as patch:
        for name in OS_CALLS:
            patch.setattr(os, name, _counting(calls, name, getattr(os, name)))
        found = provider.lookup("nun")
    assert found.definitions == ("a woman",)
    assert calls == Counter({"open": 1, "read": 2, "close": 1})
    assert provider.request_count == 0
