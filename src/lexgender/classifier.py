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

Counting reads at most t tokens of each of a source's first d definitions,
in one loop that builds no token list and strips only the tokens that are
not alphanumeric; ``tokenize`` is the reference form of that token rule,
and the tests hold both to an independent oracle. The grid search instead
records every seed token once as a seed hit (definition, token, pair,
gender), so it tokenizes each word's definitions once for all its cells,
and counts the hits once per distinct set of them that its cells admit,
not once per cell.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence

from .core import ClassifierParams, GenderLabel, SeedLexicon, default_lexicon
from .providers.base import DefinitionSet, Provider

#: Classification routes.
ROUTE_SEED = "seed_shortcut"
ROUTE_SUFFIX = "suffix_heuristic"
ROUTE_DICTIONARY = "dictionary"

# Used when a caller passes no lexicon or params; immutable, so one build
# serves every call.
_DEFAULT_LEXICON = default_lexicon()
_DEFAULT_PARAMS = ClassifierParams()

_MASC, _FEM, _NEUT, _NOT_FOUND = GenderLabel  # in declaration order; read faster than off the class

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


# Neither type checks its fields, so ``_make`` builds what the slower generated
# ``__new__`` would.
_new_verdict = ProviderVerdict._make
_new_result = ClassificationResult._make


def tokenize(definition: str) -> list[str]:
    """Lowercase tokens of a definition, in order.

    Splits on whitespace and strips leading/trailing punctuation from each
    token; internal punctuation (hyphens, apostrophes) is retained, so
    "father-in-law" stays one token distinct from "father". Empty tokens
    are dropped and take no position. No strip character is alphanumeric,
    so an alphanumeric token is taken as it is.
    """
    tokens = []
    for raw in definition.lower().split():
        token = raw if raw.isalnum() else raw.strip(_STRIP_CHARS)
        if token:
            tokens.append(token)
    return tokens


def suffix_heuristic(word: str) -> GenderLabel | None:
    """Morphological call on the word's ending, if any.

    -woman/-girl endings are feminine; -man/-boy endings masculine unless
    the -man is part of -woman (checked first) or the word is "human" or a
    -human compound, which are not gendered despite the spelling.
    """
    if not word.endswith(("man", "girl", "boy")):  # -woman and -human end in -man
        return None
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


def label_from_counts(masc: int, fem: int) -> GenderLabel:
    """More masculine tokens: masc; more feminine: fem; equal (or none): neut."""
    if masc > fem:
        return _MASC
    if fem > masc:
        return _FEM
    return _NEUT


@cache
def _not_found(provider_id: str) -> ProviderVerdict:
    """The not_found verdict of one provider; immutable, so one serves every word."""
    return ProviderVerdict(provider_id, _NOT_FOUND)


def _verdict(
    provider_id: str, definitions: Sequence[str], d: int, t: int, w: int, index: dict
) -> ProviderVerdict:
    """One source's verdict: seed forms of the first w pairs (``index`` is the lexicon's
    ``form_index``) among the first t tokens of each of the first d definitions.

    Tokens are those of ``tokenize``, found in the same way, without a token list."""
    definitions = definitions[:d]
    masc = fem = 0
    for definition in definitions:
        left = t
        for raw in definition.lower().split():
            token = raw if raw.isalnum() else raw.strip(_STRIP_CHARS)
            if not token:
                continue
            hit = index.get(token)
            if hit is not None and hit[0] < w:
                if hit[1]:
                    masc += 1
                else:
                    fem += 1
            left -= 1
            if not left:
                break
    return _new_verdict((provider_id, label_from_counts(masc, fem), masc, fem, len(definitions)))


def count_gendered(
    defs: DefinitionSet, params: ClassifierParams, lexicon: SeedLexicon
) -> tuple[int, int]:
    """(masculine, feminine) token counts over the truncated definition text.

    A ``w`` past the lexicon's pairs is a ValueError."""
    lexicon.check_w(params.w)
    verdict = _verdict(defs.provider_id, defs.definitions, *params, lexicon.form_index)
    return verdict.masc_count, verdict.fem_count


def classify_with_provider(
    provider: Provider, word: str, params: ClassifierParams, lexicon: SeedLexicon
) -> ProviderVerdict:
    """Look up, count, threshold: one dictionary's verdict for one word.

    A ``w`` past the lexicon's pairs is a ValueError, raised before the lookup."""
    lexicon.check_w(params.w)
    defs = provider.lookup(word)
    if defs is None:
        return _not_found(provider.provider_id)
    return _verdict(provider.provider_id, defs.definitions, *params, lexicon.form_index)


def combine(labels: Sequence[GenderLabel]) -> GenderLabel:
    """Majority-vote fusion of per-dictionary labels.

    not_found carries no vote. A strict majority of the votes cast wins;
    any tie or three-way disagreement falls back to neutral. Only when no
    dictionary knows the word at all is the combined label not_found.
    """
    if not labels:
        raise ValueError("combine requires at least one label")
    votes = [label for label in labels if label is not _NOT_FOUND]
    if len(votes) < 2:  # no vote, or one that is a majority by itself
        return votes[0] if votes else _NOT_FOUND
    for label in votes:  # a few votes are counted faster than a set is built
        if votes.count(label) * 2 > len(votes):
            return label
    return _NEUT


def _strip_punctuation(word: str) -> str:
    if word.isalnum():
        return word
    return "".join([ch for ch in word if ch.isalnum()])


def resolve(
    word: str, providers: Sequence[Provider], lexicon: SeedLexicon
) -> tuple[str, str, GenderLabel | None, tuple[DefinitionSet | None, ...]]:
    """Route choice and lookup for one target word: (normalized, route, label, found).

    The seed shortcut and then the suffix heuristic decide ``label`` with no
    dictionary. Otherwise the route is the dictionary one: every provider
    looks the word up, and one that lacks it is asked once more with
    punctuation and whitespace removed. ``found`` holds each provider's
    definitions, None where it lacks the word (empty off that route).
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
    found = []
    for provider in providers:
        defs = provider.lookup(normalized)
        if defs is None and retry:
            defs = provider.lookup(stripped)
        found.append(defs)
    return normalized, ROUTE_DICTIONARY, None, tuple(found)


def classify(
    word: str,
    providers: Sequence[Provider],
    params: ClassifierParams | None = None,
    lexicon: SeedLexicon | None = None,
) -> ClassificationResult:
    """Classify one target word through the full pipeline.

    A ``w`` past the lexicon's pairs is a ValueError, whatever the route.
    """
    d, t, w = _DEFAULT_PARAMS if params is None else params
    if lexicon is None:
        lexicon = _DEFAULT_LEXICON
    lexicon.check_w(w)
    normalized, route, label, found = resolve(word, providers, lexicon)
    if label is not None:
        return _new_result((word, normalized, route, (), label))
    index = lexicon.form_index
    verdicts = tuple([
        _not_found(provider.provider_id) if defs is None
        else _verdict(provider.provider_id, defs.definitions, d, t, w, index)
        for provider, defs in zip(providers, found)
    ])
    return _new_result((word, normalized, route, verdicts, combine([v.label for v in verdicts])))
