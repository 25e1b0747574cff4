import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexgender.core import (
    ClassifierParams,
    GenderLabel,
    SeedLexicon,
    SeedPair,
    default_lexicon,
)


def test_default_lexicon_pair_order():
    lexicon = default_lexicon()
    assert len(lexicon.pairs) == 8
    assert (lexicon.pairs[0].feminine, lexicon.pairs[0].masculine) == ("woman", "man")
    assert (lexicon.pairs[7].feminine, lexicon.pairs[7].masculine) == ("aunt", "uncle")
    assert [p.rank for p in lexicon.pairs] == list(range(1, 9))


def test_default_lexicon_full_table():
    expected = [
        ("woman", "man"),
        ("female", "male"),
        ("wife", "husband"),
        ("daughter", "son"),
        ("mother", "father"),
        ("girl", "boy"),
        ("sister", "brother"),
        ("aunt", "uncle"),
    ]
    assert [(p.feminine, p.masculine) for p in default_lexicon().pairs] == expected


def test_plural_table():
    lexicon = default_lexicon()
    assert lexicon.plurals["wife"] == "wives"
    assert lexicon.plurals["man"] == "men"
    assert lexicon.plurals["aunt"] == "aunts"
    # every seed form has exactly one plural, and no two share one
    forms = {f for p in lexicon.pairs for f in (p.feminine, p.masculine)}
    assert set(lexicon.plurals) == forms
    assert len(set(lexicon.plurals.values())) == len(lexicon.plurals)


def test_default_lexicon_is_pure():
    assert default_lexicon() == default_lexicon()


def test_no_form_repeats_across_pairs():
    lexicon = default_lexicon()
    forms = [f for p in lexicon.pairs for f in (p.feminine, p.masculine)]
    assert len(forms) == len(set(forms))
    for pair in lexicon.pairs:
        assert pair.feminine != pair.masculine


def test_truncation_preserves_rank_order():
    lexicon = default_lexicon()
    for w in range(1, 9):
        assert lexicon.truncated(w) == lexicon.pairs[:w]


def test_form_sets_include_plurals():
    lexicon = default_lexicon()
    assert lexicon.feminine_forms(1) == {"woman", "women"}
    assert lexicon.masculine_forms(3) == {"man", "men", "male", "males", "husband", "husbands"}


def test_shortcut_label_covers_all_pairs_and_plurals():
    lexicon = default_lexicon()
    assert lexicon.shortcut_label("woman") is GenderLabel.FEM
    assert lexicon.shortcut_label("men") is GenderLabel.MASC
    assert lexicon.shortcut_label("uncles") is GenderLabel.MASC
    assert lexicon.shortcut_label("nurse") is None


def test_params_defaults():
    params = ClassifierParams()
    assert (params.d, params.t, params.w) == (4, 20, 5)


@pytest.mark.parametrize("kwargs", [{"d": 0}, {"t": 0}, {"w": 0}, {"w": 9}, {"d": -3}])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ClassifierParams(**kwargs)


def test_seed_pair_validation():
    with pytest.raises(ValueError):
        SeedPair(1, "Woman", "man")
    with pytest.raises(ValueError):
        SeedPair(1, "", "man")
    with pytest.raises(ValueError):
        SeedPair(1, "man", "man")


def test_lexicon_rejects_duplicate_forms():
    pairs = (SeedPair(1, "woman", "man"), SeedPair(2, "woman", "male"))
    with pytest.raises(ValueError):
        SeedLexicon(pairs=pairs, plurals={"woman": "women", "man": "men", "male": "males"})


def test_lexicon_rejects_missing_plural():
    with pytest.raises(ValueError):
        SeedLexicon(pairs=(SeedPair(1, "woman", "man"),), plurals={"woman": "women"})


def test_lexicon_rejects_plural_equal_to_another_seed_form():
    # "men" as man's plural and as a seed form of its own would be counted twice
    pairs = (SeedPair(1, "woman", "man"), SeedPair(2, "lady", "men"))
    plurals = {"woman": "women", "man": "men", "lady": "ladies", "men": "mens"}
    with pytest.raises(ValueError, match="'men'"):
        SeedLexicon(pairs=pairs, plurals=plurals)


@given(st.integers(min_value=1, max_value=8))
def test_form_sets_grow_with_w(w):
    lexicon = default_lexicon()
    if w < 8:
        assert lexicon.feminine_forms(w) <= lexicon.feminine_forms(w + 1)
        assert lexicon.masculine_forms(w) <= lexicon.masculine_forms(w + 1)
    assert not lexicon.feminine_forms(w) & lexicon.masculine_forms(w)
