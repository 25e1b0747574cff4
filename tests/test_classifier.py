import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgender.classifier import (
    ROUTE_DICTIONARY,
    ROUTE_SEED,
    ROUTE_SUFFIX,
    _strip_punctuation,
    classify,
    classify_with_provider,
    combine,
    count_gendered,
    count_hits,
    seed_hits,
    seed_shortcut,
    suffix_heuristic,
    tokenize,
)
from lexgender.core import ClassifierParams, GenderLabel, default_lexicon
from lexgender.providers.base import DefinitionSet

LEXICON = default_lexicon()
MASC, FEM, NEUT, NF = (
    GenderLabel.MASC,
    GenderLabel.FEM,
    GenderLabel.NEUT,
    GenderLabel.NOT_FOUND,
)


class DictProvider:
    """Minimal in-memory provider for classifier tests."""

    deterministic = True

    def __init__(self, table, provider_id="stub"):
        self.table = table
        self.provider_id = provider_id
        self.lookups = []

    def lookup(self, word):
        self.lookups.append(word)
        if word not in self.table:
            return None
        return DefinitionSet(word, self.provider_id, tuple(self.table[word]))


def defs(*definitions, word="x", provider="stub"):
    return DefinitionSet(word, provider, tuple(definitions))


# --- tokenize ---------------------------------------------------------------


def test_tokenize_plain_sentence():
    assert tokenize("a woman belonging to a religious order") == [
        "a", "woman", "belonging", "to", "a", "religious", "order",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_token_positions():
    tokens = tokenize("the wife or widow of a baron")
    assert tokens[1] == "wife"


def test_tokenize_strips_edge_punctuation_keeps_internal():
    assert tokenize("a vehicle (ship, aircraft, etc.)") == [
        "a", "vehicle", "ship", "aircraft", "etc",
    ]
    assert tokenize("one's father-in-law!") == ["one's", "father-in-law"]


def test_tokenize_lowercases():
    assert tokenize('The Ancient Greeks; "Nymphs"') == ["the", "ancient", "greeks", "nymphs"]


@given(st.text(max_size=80))
@settings(max_examples=200)
def test_tokenize_properties(text):
    tokens = tokenize(text)
    for token in tokens:
        assert token == token.lower()
        assert token  # no empties
        assert token[0] not in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
        assert token[-1] not in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"


@given(st.text(alphabet=st.one_of(st.sampled_from("-' ."), st.characters()), max_size=12))
@settings(max_examples=300)
def test_strip_punctuation_matches_naive(word):
    assert _strip_punctuation(word) == "".join(ch for ch in word if ch.isalnum())


# --- seed shortcut ----------------------------------------------------------


@pytest.mark.parametrize(
    "word,expected",
    [
        ("woman", FEM),
        ("men", MASC),
        ("aunt", FEM),
        ("uncles", MASC),
        ("wives", FEM),
        ("nurse", None),
        ("mankind", None),
    ],
)
def test_seed_shortcut(word, expected):
    assert seed_shortcut(word, LEXICON) == expected


# --- suffix heuristic -------------------------------------------------------


@pytest.mark.parametrize(
    "word,expected",
    [
        ("businessman", MASC),
        ("salesman", MASC),
        ("cowboy", MASC),
        ("policewoman", FEM),
        ("chairwoman", FEM),
        ("schoolgirl", FEM),
        ("woman", FEM),  # caught by the -woman branch before -man
        ("human", None),
        ("superhuman", None),
        ("nurse", None),
        ("madam", None),
        ("person", None),
    ],
)
def test_suffix_heuristic(word, expected):
    assert suffix_heuristic(word) == expected


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=12))
def test_woman_suffix_is_never_masculine(prefix):
    assert suffix_heuristic(prefix + "woman") is FEM


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=12))
def test_girl_suffix_is_feminine(prefix):
    assert suffix_heuristic(prefix + "girl") is FEM


# --- count_gendered ---------------------------------------------------------

DEFAULTS = ClassifierParams()


def test_count_nun_definition():
    assert count_gendered(defs("a woman belonging to a religious order"), DEFAULTS, LEXICON) == (0, 1)


def test_count_widow_cancellation():
    counts = count_gendered(
        defs("a woman whose husband is dead especially one who has not remarried"),
        DEFAULTS,
        LEXICON,
    )
    assert counts == (1, 1)


def test_count_crew_masculine_skew():
    crew = defs(
        "the men and women who man a vehicle (ship, aircraft, etc.)",
        "an organized group of workmen",
        'an informal body of friends; "he still hangs out with the same crew"',
        "the team of men manning a racing shell",
    )
    masc, fem = count_gendered(crew, DEFAULTS, LEXICON)
    assert masc > fem
    assert (masc, fem) == (3, 1)


def test_count_empty_definition_list():
    assert count_gendered(defs(), DEFAULTS, LEXICON) == (0, 0)


def test_count_token_equality_not_substring():
    # "female" must not count as "male"; "policewoman" is not "woman"
    assert count_gendered(defs("a female policewoman"), DEFAULTS, LEXICON) == (0, 1)


def test_count_plural_seed_forms():
    assert count_gendered(defs("men and women and wives"), DEFAULTS, LEXICON) == (1, 2)


def test_count_respects_d():
    d1 = ClassifierParams(d=1)
    assert count_gendered(defs("a man", "a woman"), d1, LEXICON) == (1, 0)


def test_count_respects_t():
    t2 = ClassifierParams(t=2)
    assert count_gendered(defs("one two man woman"), t2, LEXICON) == (0, 0)
    assert count_gendered(defs("man two three woman"), t2, LEXICON) == (1, 0)


def test_count_respects_w():
    w2 = ClassifierParams(w=2)
    # wife is pair 3, not counted at w=2
    assert count_gendered(defs("the wife of a baron"), w2, LEXICON) == (0, 0)
    assert count_gendered(defs("the wife of a baron"), ClassifierParams(w=3), LEXICON) == (0, 1)


def _oracle_tokenize(text):
    # independent character-level reimplementation of the tokenization rule
    punct = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~‘’“”–—…")
    out = []
    for raw in text.lower().split():
        while raw and raw[0] in punct:
            raw = raw[1:]
        while raw and raw[-1] in punct:
            raw = raw[:-1]
        if raw:
            out.append(raw)
    return out


def _oracle_count(definitions, d, t, w, lexicon):
    masc = fem = 0
    for definition in list(definitions)[:d]:
        for token in _oracle_tokenize(definition)[:t]:
            for pair in lexicon.pairs[:w]:
                if token in (pair.masculine, lexicon.plurals[pair.masculine]):
                    masc += 1
                if token in (pair.feminine, lexicon.plurals[pair.feminine]):
                    fem += 1
    return masc, fem


VOCAB = (
    "the a of to and or in person who man woman men women male female males females "
    "wife husband wives husbands daughter son daughters sons mother father mothers "
    "fathers girl boy girls boys sister brother sisters brothers aunt uncle aunts "
    "uncles mankind female-led superwoman (man) 'woman' wife's man's “men” "
    "royal order religious group; vessel, castle."
).split()


def _random_definition_set(rng):
    n_defs = rng.randint(0, 8)
    definitions = tuple(
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 45)))
        for _ in range(n_defs)
    )
    return defs(*definitions)


def test_count_matches_naive_oracle_randomized():
    rng = random.Random(99)
    for _ in range(300):
        definition_set = _random_definition_set(rng)
        params = ClassifierParams(d=rng.randint(1, 10), t=rng.randint(1, 40), w=rng.randint(1, 8))
        expected = _oracle_count(definition_set.definitions, params.d, params.t, params.w, LEXICON)
        assert count_gendered(definition_set, params, LEXICON) == expected


@settings(max_examples=200, deadline=None)
@given(
    definitions=st.lists(
        st.lists(st.one_of(st.sampled_from(VOCAB), st.text(max_size=6)), max_size=45).map(" ".join),
        max_size=10,
    ),
    d=st.integers(1, 12),
    t=st.integers(1, 50),
    w=st.integers(1, 8),
)
def test_hit_counts_match_naive_oracle(definitions, d, t, w):
    params = ClassifierParams(d=d, t=t, w=w)
    expected = _oracle_count(definitions, d, t, w, LEXICON)
    assert count_gendered(defs(*definitions), params, LEXICON) == expected
    # as the grid search counts: hits of every definition, filtered per cell
    assert count_hits(seed_hits(definitions, LEXICON), params) == expected


def test_count_truncation_monotonic_randomized():
    rng = random.Random(7)
    for _ in range(200):
        definition_set = _random_definition_set(rng)
        d, t, w = rng.randint(1, 6), rng.randint(1, 25), rng.randint(1, 8)
        d2, t2 = d + rng.randint(0, 4), t + rng.randint(0, 15)
        masc1, fem1 = count_gendered(definition_set, ClassifierParams(d=d, t=t, w=w), LEXICON)
        masc2, fem2 = count_gendered(definition_set, ClassifierParams(d=d2, t=t2, w=w), LEXICON)
        assert masc1 <= masc2 and fem1 <= fem2


# --- per-provider verdicts --------------------------------------------------


def test_verdict_thresholds_exhaustive():
    # exactly one of masc/fem/neut for every count pair; never not_found
    provider = DictProvider({})
    for masc in range(6):
        for fem in range(6):
            tokens = ["man"] * masc + ["woman"] * fem
            provider.table = {"x": [" ".join(tokens)]}
            verdict = classify_with_provider(provider, "x", ClassifierParams(t=12), LEXICON)
            assert (verdict.masc_count, verdict.fem_count) == (masc, fem)
            if masc > fem:
                assert verdict.label is MASC
            elif fem > masc:
                assert verdict.label is FEM
            else:
                assert verdict.label is NEUT


def test_verdict_not_found():
    verdict = classify_with_provider(DictProvider({}), "qzxv", DEFAULTS, LEXICON)
    assert verdict.label is NF
    assert verdict.masc_count == verdict.fem_count == 0
    assert verdict.definitions_used == 0


def test_verdicts_against_wordnet_database(wordnet):
    monk = classify_with_provider(wordnet, "monk", DEFAULTS, LEXICON)
    assert monk.label is MASC
    widow = classify_with_provider(wordnet, "widow", DEFAULTS, LEXICON)
    assert widow.label is NEUT
    assert (widow.masc_count, widow.fem_count) == (1, 1)


def test_verdict_found_but_empty_is_neutral():
    verdict = classify_with_provider(DictProvider({"x": []}), "x", DEFAULTS, LEXICON)
    assert verdict.label is NEUT
    assert verdict.definitions_used == 0


# --- combine ----------------------------------------------------------------


def test_combine_examples():
    assert combine([MASC, MASC, FEM]) is MASC
    assert combine([NF, MASC, FEM]) is NEUT
    assert combine([NF, NF, NF]) is NF
    assert combine([MASC, FEM, NEUT]) is NEUT
    assert combine([NF, FEM, FEM]) is FEM
    assert combine([NF, NF, MASC]) is MASC
    assert combine([NEUT, NEUT, FEM]) is NEUT


def test_combine_empty_rejected():
    with pytest.raises(ValueError):
        combine([])


def test_combine_single_label():
    for label in GenderLabel:
        assert combine([label]) is label


@given(st.lists(st.sampled_from(list(GenderLabel)), min_size=1, max_size=7), st.randoms())
def test_combine_permutation_invariant(labels, rng):
    shuffled = list(labels)
    rng.shuffle(shuffled)
    assert combine(shuffled) is combine(labels)


@given(
    st.sampled_from([MASC, FEM, NEUT]),
    st.integers(min_value=1, max_value=5),
)
def test_combine_unanimity(label, n):
    assert combine([label] * n) is label


# --- full pipeline ----------------------------------------------------------


def test_classify_seed_route_skips_dictionaries():
    provider = DictProvider({})
    result = classify("aunt", [provider])
    assert result.route == ROUTE_SEED
    assert result.combined is FEM
    assert result.verdicts == ()
    assert provider.lookups == []


def test_classify_suffix_route_skips_dictionaries():
    provider = DictProvider({})
    result = classify("businessman", [provider])
    assert result.route == ROUTE_SUFFIX
    assert result.combined is MASC
    assert provider.lookups == []


def test_classify_normalizes_input():
    result = classify("  Aunt ", [DictProvider({})])
    assert result.word == "  Aunt "
    assert result.normalized == "aunt"
    assert result.combined is FEM


def test_classify_dictionary_route_majority():
    a = DictProvider({"sculptor": ["a man who carves"]}, "a")
    b = DictProvider({"sculptor": ["an artist who carves statues"]}, "b")
    c = DictProvider({"sculptor": ["one who sculpts"]}, "c")
    result = classify("sculptor", [a, b, c])
    assert result.route == ROUTE_DICTIONARY
    assert [v.label for v in result.verdicts] == [MASC, NEUT, NEUT]
    assert result.combined is NEUT


def test_classify_punctuation_retry():
    provider = DictProvider({"grandfather": ["the father of your father or mother"]})
    result = classify("grand-father", [provider])
    assert provider.lookups == ["grand-father", "grandfather"]
    assert result.combined is MASC


def test_classify_whitespace_retry():
    provider = DictProvider({"businessperson": ["a capitalist who engages in enterprise"]})
    result = classify("business person", [provider])
    assert provider.lookups == ["business person", "businessperson"]
    assert result.combined is NEUT


def test_classify_no_retry_for_plain_words():
    provider = DictProvider({})
    result = classify("qzxv", [provider])
    assert provider.lookups == ["qzxv"]
    assert result.combined is NF


def test_classify_single_person_not_found_on_snapshots(bundled_providers):
    # absent everywhere, and the whitespace-stripped retry misses too
    result = classify("single person", bundled_providers)
    assert result.combined is NF
    assert all(v.label is NF for v in result.verdicts)


def test_classify_requires_word_and_provider():
    with pytest.raises(ValueError):
        classify("   ", [DictProvider({})])
    with pytest.raises(ValueError):
        classify("word", [])


def test_classify_deterministic():
    provider = DictProvider({"sculptor": ["a man who carves", "a woman who carves"]})
    first = classify("sculptor", [provider])
    second = classify("sculptor", [provider])
    assert first == second


def test_route_invariants():
    # non-dictionary routes carry a gendered label and no verdicts
    for word in ["woman", "men", "businessman", "showgirl"]:
        result = classify(word, [DictProvider({})])
        assert result.route in (ROUTE_SEED, ROUTE_SUFFIX)
        assert result.combined in (MASC, FEM)
        assert result.verdicts == ()


def test_exhaustive_vote_triples_against_truth_table():
    def truth(labels):
        cast = [l for l in labels if l is not NF]
        if not cast:
            return NF
        best, n = max(((l, cast.count(l)) for l in set(cast)), key=lambda x: x[1])
        return best if n > len(cast) / 2 else NEUT

    for triple in itertools.product(list(GenderLabel), repeat=3):
        assert combine(list(triple)) is truth(triple), triple
