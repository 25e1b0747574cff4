"""The result and parameter types are immutable NamedTuples whose checks cannot be skipped."""

import copy
import pickle

import pytest

from lexgender.classifier import ClassificationResult, ProviderVerdict, SeedHit
from lexgender.core import ClassifierParams, GenderLabel, SeedLexicon, SeedPair, default_lexicon
from lexgender.corpus import CompositionReport, NounRecord
from lexgender.evaluation import EvalReport, GoldEntry, GridSearchResult, Metrics
from lexgender.providers import DIALECTS, SITES, DefinitionSet

_METRICS = Metrics(1, 1.0, 1.0, 1.0, 1.0, ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
_VERDICT = ProviderVerdict("wordnet", GenderLabel.FEM, 0, 1, 1)

VALUES = [
    SeedPair(1, "woman", "man"),
    default_lexicon(),
    ClassifierParams(),
    _VERDICT,
    SeedHit(0, 1, 0, False),
    ClassificationResult("Nun", "nun", "dictionary", (_VERDICT,), GenderLabel.FEM),
    DefinitionSet("nun", "wordnet", ("a woman",)),
    CompositionReport({"fem": {"NN": 1, "NNS": 0, "all": 1}}, 1),
    NounRecord("nun", "NN", 1),
    GoldEntry("nun", GenderLabel.FEM, "religion"),
    _METRICS,
    EvalReport(*_METRICS, per_provider={"combined": _METRICS}),
    GridSearchResult(ClassifierParams(), 1.0, {(4, 20, 5): 1.0}),
    DIALECTS["mw"],
    SITES["merriam_webster"],
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_types_reject_attribute_assignment(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):  # no per-instance __dict__ to hold a new name
        value.extra = None


@pytest.mark.parametrize(
    "build",
    [
        lambda: ClassifierParams()._replace(d=0),
        lambda: ClassifierParams()._replace(w=9),
        lambda: ClassifierParams._make((4, 20, 0)),
        lambda: SeedPair(1, "woman", "man")._replace(masculine="woman"),
        lambda: SeedPair._make((1, "Woman", "man")),
        lambda: default_lexicon()._replace(plurals={}),
        lambda: SeedLexicon._make((default_lexicon().pairs * 2, dict(default_lexicon().plurals))),
    ],
    ids=["replace-d", "replace-w", "make-params", "replace-pair", "make-pair", "replace-lexicon", "make-lexicon"],
)
def test_replace_and_make_run_the_constructor_checks(build):
    with pytest.raises(ValueError):
        build()


def test_replace_and_make_keep_valid_values():
    assert ClassifierParams()._replace(d=2) == ClassifierParams(2, 20, 5)
    assert ClassifierParams._make((2, 10, 3)) == ClassifierParams(d=2, t=10, w=3)
    assert ClassifierParams() == (4, 20, 5)
    d, t, w = ClassifierParams()
    assert (d, t, w) == (4, 20, 5)
    assert ClassifierParams()._asdict() == {"d": 4, "t": 20, "w": 5}


def test_lexicon_replace_rebuilds_the_form_index():
    lexicon = default_lexicon()
    first_two = lexicon._replace(pairs=lexicon.pairs[:2])
    assert set(first_two.form_index) == {"woman", "women", "man", "men", "female", "females", "male", "males"}
    assert first_two.shortcut_label("wives") is None
    assert lexicon.shortcut_label("wives") is GenderLabel.FEM


def test_lexicon_equality_copy_and_pickle():
    lexicon = default_lexicon()
    assert lexicon == default_lexicon()
    assert lexicon != lexicon._replace(pairs=lexicon.pairs[:7])
    assert copy.deepcopy(lexicon) == lexicon
    restored = pickle.loads(pickle.dumps(lexicon))
    assert restored == lexicon and restored.form_index == lexicon.form_index
