"""Paths to the data files bundled with the package.

Bundled content:

- ``gold.tsv``: the 134-entry gold list of nouns with near-unambiguous
  lexical gender (53 masculine, 53 feminine, 28 neutral), organized by
  category
- ``snapshots/``: frozen definition snapshots of the three dictionary
  sources for the gold words plus assorted regression words, so
  evaluation runs offline and reproducibly
- ``wndb/``: a miniature WordNet-style noun database (WNDB format) backing
  the "wordnet" source
- ``toy_tagged.tsv``: a small POS-tagged corpus for exercising the corpus
  pipeline end to end
"""

from pathlib import Path


def data_path(*parts: str) -> Path:
    return Path(__file__).parent.joinpath(*parts)


def gold_path() -> Path:
    return data_path("gold.tsv")


def wndb_dir() -> Path:
    return data_path("wndb")


def snapshot_path(provider_id: str) -> Path:
    return data_path("snapshots", f"{provider_id}.json")


def toy_corpus_path() -> Path:
    return data_path("toy_tagged.tsv")


BUNDLED_SNAPSHOT_IDS = ("wordnet", "merriam_webster", "dictionary_com")
