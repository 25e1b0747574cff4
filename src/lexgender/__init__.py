"""Lexical gender detection for English nouns via dictionary definitions.

The package exports the classifier, core and error names. Scoring against
a gold list lives in ``lexgender.evaluation`` and corpus work in
``lexgender.corpus``; importing the package loads neither.
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

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "ClassifierParams",
    "DataFormatError",
    "GenderLabel",
    "LexgenderError",
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
    "seed_hits",
    "suffix_heuristic",
    "tokenize",
]
