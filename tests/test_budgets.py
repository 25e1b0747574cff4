"""Lookup budgets: how often the grid search and ``classify`` ask a source.

A counting in-memory source records every lookup, so a change that looks a
word up once per cell, or on a route that needs no dictionary, fails here
without any counter in the library.
"""

from collections import Counter

import pytest

from lexgender.classifier import ROUTE_SEED, ROUTE_SUFFIX, classify, suffix_heuristic
from lexgender.core import GenderLabel, default_lexicon
from lexgender.data import gold_path
from lexgender.evaluation import GoldEntry, grid_search, load_gold
from lexgender.providers.base import DefinitionSet

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


def _budget(table, gold):
    """Each dictionary-routed gold word once, and its stripped form once where missing."""
    lexicon, budget = default_lexicon(), Counter()
    for word in dict.fromkeys(entry.word for entry in gold):
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
        assert provider.lookups == _budget(provider.table, GOLD), provider.provider_id
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
    assert provider.lookups == _budget({}, gold)
    assert provider.lookups["stepmother"] == 2


@pytest.mark.parametrize(
    "word, route",
    [("woman", ROUTE_SEED), ("Husbands", ROUTE_SEED), ("policewoman", ROUTE_SUFFIX), ("busboy", ROUTE_SUFFIX)],
)
def test_classify_does_no_lookup_on_the_seed_and_suffix_routes(word, route):
    providers = [TableProvider(pid, table) for pid, table in TABLES.items()]
    assert classify(word, providers).route == route
    assert [provider.lookups for provider in providers] == [Counter(), Counter()]

