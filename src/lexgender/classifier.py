"""The lexical gender classifier.

Pipeline for one target word:

1. normalize (lowercase, trim)
2. seed shortcut: a word that is itself a seed form or seed plural gets
   that gender immediately
3. suffix heuristic: -woman/-girl endings are feminine, -man/-boy endings
   masculine (with the woman/human exceptions), because dictionaries often
   define such words generically
4. per-dictionary counting: within the first d definitions and first t
   tokens of each, count tokens equal to the first w seed pairs' forms or
   their plurals; more masculine than feminine tokens means masculine,
   the reverse feminine, equal counts (including zero) neutral
5. majority vote over the per-dictionary labels; if a word is missing from
   a dictionary and the remaining dictionaries disagree, the result is
   neutral

A word not found by a provider is retried once with punctuation and
whitespace removed (grand-father -> grandfather).

Counting works from seed hits: every token of a word's definitions that is
a seed form, recorded once with its definition index, token index, pair
index and gender. Counting at any (d, t, w) only filters those hits, so
the grid search tokenizes each word's definitions once for all its cells.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, Sequence, TypeVar

from .core import ClassifierParams, GenderLabel, SeedLexicon, default_lexicon
from .providers.base import DefinitionSet, Provider

#: Classification routes.
ROUTE_SEED = "seed_shortcut"
ROUTE_SUFFIX = "suffix_heuristic"
ROUTE_DICTIONARY = "dictionary"

# Used when a caller passes no lexicon; never mutated, so one build serves
# every call.
_DEFAULT_LEXICON = default_lexicon()

# Characters stripped from token edges. ASCII punctuation plus the curly
# quotes and dashes common in dictionary prose.
_STRIP_CHARS = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~‘’“”–—…"


class ProviderVerdict(NamedTuple):
    """One dictionary's counts and resulting label for one word."""

    provider_id: str
    label: GenderLabel
    masc_count: int = 0
    fem_count: int = 0
    definitions_used: int = 0


class SeedHit(NamedTuple):
    """One seed-form token in a word's definitions; all indexes count from 0."""

    definition: int
    token: int
    pair: int
    masculine: bool


class ClassificationResult(NamedTuple):
    """Full outcome for one target word."""

    word: str
    normalized: str
    route: str
    verdicts: tuple[ProviderVerdict, ...]
    combined: GenderLabel


def tokenize(definition: str) -> list[str]:
    """Lowercase tokens of a definition, in order.

    Splits on whitespace and strips leading/trailing punctuation from each
    token; internal punctuation (hyphens, apostrophes) is retained, so
    "father-in-law" stays one token distinct from "father". Empty tokens
    are dropped.
    """
    tokens = []
    for raw in definition.lower().split():
        token = raw.strip(_STRIP_CHARS)
        if token:
            tokens.append(token)
    return tokens


def suffix_heuristic(word: str) -> GenderLabel | None:
    """Morphological call on the word's ending, if any.

    -woman/-girl endings are feminine; -man/-boy endings masculine unless
    the -man is part of -woman (checked first) or the word is "human" or a
    -human compound, which are not gendered despite the spelling.
    """
    if word.endswith(("woman", "girl")):
        return GenderLabel.FEM
    if word.endswith("human"):
        return None
    if word.endswith(("man", "boy")):
        return GenderLabel.MASC
    return None


def seed_hits(definitions: Sequence[str], lexicon: SeedLexicon) -> tuple[SeedHit, ...]:
    """Every token of ``definitions`` that is a seed form or seed plural, in text order.

    Matches whole tokens only, never substrings: "female" is not also "male".
    """
    index = lexicon.form_index
    hits = []
    for i, definition in enumerate(definitions):
        for j, token in enumerate(tokenize(definition)):
            found = index.get(token)
            if found is not None:
                hits.append(SeedHit(i, j, *found))
    return tuple(hits)


def count_hits(hits: Sequence[SeedHit], params: ClassifierParams) -> tuple[int, int]:
    """(masculine, feminine) counts of the hits within the first d definitions,
    the first t tokens of each and the first w seed pairs."""
    d, t, w = params.d, params.t, params.w
    masc = fem = 0
    for definition, token, pair, masculine in hits:
        if definition < d and token < t and pair < w:
            if masculine:
                masc += 1
            else:
                fem += 1
    return masc, fem


def count_gendered(
    defs: DefinitionSet, params: ClassifierParams, lexicon: SeedLexicon
) -> tuple[int, int]:
    """(masculine, feminine) token counts over the truncated definition text."""
    return count_hits(seed_hits(defs.definitions[: params.d], lexicon), params)


def label_from_counts(masc: int, fem: int) -> GenderLabel:
    """More masculine tokens: masc; more feminine: fem; equal (or none): neut."""
    if masc > fem:
        return GenderLabel.MASC
    if fem > masc:
        return GenderLabel.FEM
    return GenderLabel.NEUT


@cache
def _not_found(provider_id: str) -> ProviderVerdict:
    """The not_found verdict of one provider; immutable, so one serves every word."""
    return ProviderVerdict(provider_id, GenderLabel.NOT_FOUND)


def classify_with_provider(
    provider: Provider, word: str, params: ClassifierParams, lexicon: SeedLexicon
) -> ProviderVerdict:
    """Look up, count, threshold: one dictionary's verdict for one word."""
    defs = provider.lookup(word)
    if defs is None:
        return _not_found(provider.provider_id)
    masc, fem = count_gendered(defs, params, lexicon)
    return ProviderVerdict(
        provider_id=provider.provider_id,
        label=label_from_counts(masc, fem),
        masc_count=masc,
        fem_count=fem,
        definitions_used=min(params.d, len(defs.definitions)),
    )


def combine(labels: Sequence[GenderLabel]) -> GenderLabel:
    """Majority-vote fusion of per-dictionary labels.

    not_found carries no vote. A strict majority of the votes cast wins;
    any tie or three-way disagreement falls back to neutral. Only when no
    dictionary knows the word at all is the combined label not_found.
    """
    if not labels:
        raise ValueError("combine requires at least one label")
    votes = [label for label in labels if label is not GenderLabel.NOT_FOUND]
    if not votes:
        return GenderLabel.NOT_FOUND
    for label in set(votes):
        if votes.count(label) * 2 > len(votes):
            return label
    return GenderLabel.NEUT


def _strip_punctuation(word: str) -> str:
    if word.isalnum():
        return word
    return "".join([ch for ch in word if ch.isalnum()])


T = TypeVar("T")


def resolve(
    word: str,
    providers: Sequence[Provider],
    lexicon: SeedLexicon,
    attempt: Callable[[Provider, str], T | None],
) -> tuple[str, str, GenderLabel | None, tuple[T | None, ...]]:
    """Route choice and lookup for one target word: (normalized, route, label, outcomes).

    The seed shortcut and then the suffix heuristic decide ``label`` with no
    dictionary. Otherwise the route is the dictionary one: ``attempt(provider,
    word)`` runs for every provider and returns None when the provider lacks
    the word, which is then retried once with punctuation and whitespace
    removed. ``outcomes`` holds one result per provider (empty off that route).
    """
    if not providers:
        raise ValueError("classify requires at least one provider")
    normalized = word.strip().lower()
    if not normalized:
        raise ValueError("classify requires a non-empty word")

    label = lexicon.shortcut_label(normalized)
    if label is not None:
        return normalized, ROUTE_SEED, label, ()
    label = suffix_heuristic(normalized)
    if label is not None:
        return normalized, ROUTE_SUFFIX, label, ()

    stripped = _strip_punctuation(normalized)
    retry = stripped and stripped != normalized
    outcomes = []
    for provider in providers:
        outcome = attempt(provider, normalized)
        if outcome is None and retry:
            outcome = attempt(provider, stripped)
        outcomes.append(outcome)
    return normalized, ROUTE_DICTIONARY, None, tuple(outcomes)


def classify(
    word: str,
    providers: Sequence[Provider],
    params: ClassifierParams | None = None,
    lexicon: SeedLexicon | None = None,
) -> ClassificationResult:
    """Classify one target word through the full pipeline."""
    if params is None:
        params = ClassifierParams()
    if lexicon is None:
        lexicon = _DEFAULT_LEXICON

    def attempt(provider: Provider, candidate: str) -> ProviderVerdict | None:
        verdict = classify_with_provider(provider, candidate, params, lexicon)
        return None if verdict.label is GenderLabel.NOT_FOUND else verdict

    normalized, route, label, outcomes = resolve(word, providers, lexicon, attempt)
    if label is not None:
        return ClassificationResult(word, normalized, route, (), label)
    verdicts = tuple([
        _not_found(provider.provider_id) if verdict is None else verdict
        for provider, verdict in zip(providers, outcomes)
    ])
    combined = combine([v.label for v in verdicts])
    return ClassificationResult(word, normalized, route, verdicts, combined)
