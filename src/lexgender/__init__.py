"""Lexical gender detection for English nouns via dictionary definitions."""

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
from .evaluation import (
    GoldEntry,
    GridSearchResult,
    Metrics,
    evaluate,
    evaluate_results,
    grid_search,
    load_gold,
)

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
