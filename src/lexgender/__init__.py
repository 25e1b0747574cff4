"""Lexical gender detection for English nouns via dictionary definitions.

The classifier, core and error names load with the package. The evaluation
names (``GoldEntry``, ``GridSearchResult``, ``Metrics``, ``evaluate``,
``evaluate_results``, ``grid_search``, ``load_gold``) are imported from
``lexgender.evaluation`` on first access, so a run that only classifies
never loads it.
"""

from .classifier import (
    ClassificationResult,
    ProviderVerdict,
    ROUTE_DICTIONARY,
    ROUTE_SEED,
    ROUTE_SUFFIX,
    SeedHit,
    classify,
    classify_with_provider,
    combine,
    count_gendered,
    count_hits,
    seed_hits,
    suffix_heuristic,
    tokenize,
)
from .core import (
    ClassifierParams,
    GenderLabel,
    SeedLexicon,
    SeedPair,
    default_lexicon,
)
from .errors import DataFormatError, LexgenderError, TransportError

_LAZY_NAMES = frozenset(
    ("GoldEntry", "GridSearchResult", "Metrics", "evaluate", "evaluate_results", "grid_search", "load_gold")
)


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation

    return getattr(evaluation, name)


__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "ClassifierParams",
    "DataFormatError",
    "GenderLabel",
    "GoldEntry",
    "GridSearchResult",
    "LexgenderError",
    "Metrics",
    "ProviderVerdict",
    "ROUTE_DICTIONARY",
    "ROUTE_SEED",
    "ROUTE_SUFFIX",
    "SeedHit",
    "SeedLexicon",
    "SeedPair",
    "TransportError",
    "classify",
    "classify_with_provider",
    "combine",
    "count_gendered",
    "count_hits",
    "default_lexicon",
    "evaluate",
    "evaluate_results",
    "grid_search",
    "load_gold",
    "seed_hits",
    "suffix_heuristic",
    "tokenize",
]
