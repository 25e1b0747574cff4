import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgender.classifier import classify
from lexgender.core import ClassifierParams, GenderLabel, default_lexicon
from lexgender.errors import DataFormatError
from lexgender.evaluation import (
    GoldEntry,
    classify_gold,
    evaluate,
    evaluate_results,
    grid_search,
    load_gold,
    provider_predictions,
)
from lexgender.providers import SnapshotProvider
from lexgender.providers.base import DefinitionSet

MASC, FEM, NEUT, NF = (
    GenderLabel.MASC,
    GenderLabel.FEM,
    GenderLabel.NEUT,
    GenderLabel.NOT_FOUND,
)


# --- load_gold ----------------------------------------------------------------


def test_bundled_gold_loads(gold):
    assert len(gold) == 134
    assert gold[0].word == "brother"


def test_gold_row_parsing(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("# comment\nwaiter\tmasc\toccupation\n\n")
    entries = load_gold(path)
    assert entries == [GoldEntry("waiter", MASC, "occupation")]


def test_gold_empty_file(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("# only a comment\n")
    assert load_gold(path) == []


@pytest.mark.parametrize(
    "row",
    [
        "waiter\tmasc",  # missing category
        "waiter\tmasc\toccupation\textra",
        "waiter\tnot_found\toccupation",  # lookup failure is never gold
        "waiter\tblue\toccupation",
        "Waiter\tmasc\toccupation",  # must be lowercase
        "waiter\tmasc\tsport",  # unknown category
        b"caf\xe9\tneut\tobject",  # not UTF-8
    ],
)
def test_gold_malformed_rows(tmp_path, row):
    path = tmp_path / "gold.tsv"
    if isinstance(row, bytes):
        path.write_bytes(row + b"\n")
        match = r"gold\.tsv: not UTF-8 text"
    else:
        path.write_text(row + "\n")
        match = r":1"
    with pytest.raises(DataFormatError, match=match):
        load_gold(path)


def test_gold_conflicting_labels_rejected(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("waiter\tmasc\toccupation\nwaiter\tneut\toccupation\n")
    with pytest.raises(DataFormatError, match="already listed"):
        load_gold(path)


def test_gold_repeated_pairing_rows_kept(tmp_path):
    # the bundled list pairs some words twice (dad/mum and dad/mom)
    path = tmp_path / "gold.tsv"
    path.write_text("dad\tmasc\tfamily\ndad\tmasc\tfamily\n")
    assert len(load_gold(path)) == 2


# --- evaluate -----------------------------------------------------------------


GOLD4 = [
    GoldEntry("a", MASC, "misc"),
    GoldEntry("b", FEM, "misc"),
    GoldEntry("c", NEUT, "misc"),
    GoldEntry("d", MASC, "misc"),
]


def test_evaluate_identity():
    predictions = {"a": MASC, "b": FEM, "c": NEUT, "d": MASC}
    report = evaluate(predictions, GOLD4)
    assert report.accuracy == 1.0
    assert report.weighted_precision == 1.0
    assert report.weighted_recall == 1.0
    assert report.weighted_f1 == 1.0
    for i, row in enumerate(report.confusion):
        for j, value in enumerate(row):
            assert value == (0 if i != j else row[i])


def test_evaluate_half_right():
    gold = [GoldEntry("a", MASC, "misc"), GoldEntry("b", FEM, "misc")]
    report = evaluate({"a": MASC, "b": NEUT}, gold)
    assert report.accuracy == 0.5


def test_evaluate_not_found_is_fourth_column():
    report = evaluate({"a": NF, "b": FEM, "c": NEUT, "d": MASC}, GOLD4)
    assert report.confusion[0][3] == 1
    assert report.accuracy == 0.75


def test_evaluate_not_found_as_neut_flag():
    gold = [GoldEntry("a", NEUT, "misc")]
    assert evaluate({"a": NF}, gold).accuracy == 0.0
    assert evaluate({"a": NF}, gold, not_found_as_neut=True).accuracy == 1.0


def test_evaluate_missing_prediction():
    with pytest.raises(ValueError, match="missing prediction"):
        evaluate({"a": MASC}, GOLD4)


def test_evaluate_row_sums_match_supports(gold, bundled_providers):
    results = classify_gold(gold, bundled_providers)
    report = evaluate_results(results, gold)
    supports = {label: 0 for label in (MASC, FEM, NEUT)}
    for entry in gold:
        supports[entry.label] += 1
    for row, label in zip(report.confusion, (MASC, FEM, NEUT)):
        assert sum(row) == supports[label]
    assert report.n == 134
    for metrics in report.per_provider.values():
        assert 0.0 <= metrics.accuracy <= 1.0
        assert 0.0 <= metrics.weighted_f1 <= 1.0


def test_accuracy_equals_diagonal_over_n(gold, bundled_providers):
    results = classify_gold(gold, bundled_providers)
    report = evaluate_results(results, gold)
    diagonal = sum(report.confusion[i][i] for i in range(3))
    assert report.accuracy == diagonal / report.n


def test_per_provider_keys(gold, bundled_providers):
    results = classify_gold(gold, bundled_providers)
    report = evaluate_results(results, gold)
    assert set(report.per_provider) == {
        "wordnet",
        "merriam_webster",
        "dictionary_com",
        "combined",
    }
    assert report.per_provider["combined"].accuracy == report.accuracy


def test_provider_predictions_uses_heuristic_labels(bundled_providers):
    results = {
        "businessman": classify("businessman", bundled_providers),
        "widow": classify("widow", bundled_providers),
    }
    for provider_id in ("wordnet", "merriam_webster", "dictionary_com"):
        predictions = provider_predictions(results, provider_id)
        assert predictions["businessman"] is MASC
    assert provider_predictions(results, "wordnet")["widow"] is NEUT
    assert provider_predictions(results, "merriam_webster")["widow"] is FEM


# --- metric oracle ------------------------------------------------------------


def _oracle_metrics(gold, predictions):
    """Direct formula computation from the confusion matrix."""
    gold_labels = [MASC, FEM, NEUT]
    pred_labels = [MASC, FEM, NEUT, NF]
    matrix = {(g, p): 0 for g in gold_labels for p in pred_labels}
    for entry in gold:
        matrix[(entry.label, predictions[entry.word])] += 1
    n = len(gold)
    accuracy = sum(matrix[(label, label)] for label in gold_labels) / n
    weighted_p = weighted_r = weighted_f = 0.0
    for label in gold_labels:
        support = sum(matrix[(label, p)] for p in pred_labels)
        predicted = sum(matrix[(g, label)] for g in gold_labels)
        tp = matrix[(label, label)]
        p = tp / predicted if predicted else 0.0
        r = tp / support if support else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        weighted_p += p * support / n
        weighted_r += r * support / n
        weighted_f += f * support / n
    return accuracy, weighted_p, weighted_r, weighted_f


def test_evaluate_matches_metric_oracle_randomized():
    rng = random.Random(4242)
    labels = [MASC, FEM, NEUT]
    for _ in range(150):
        n = rng.randint(1, 60)
        gold = [GoldEntry(f"w{i}", rng.choice(labels), "misc") for i in range(n)]
        predictions = {f"w{i}": rng.choice(labels + [NF]) for i in range(n)}
        report = evaluate(predictions, gold)
        accuracy, wp, wr, wf = _oracle_metrics(gold, predictions)
        assert abs(report.accuracy - accuracy) < 1e-9
        assert abs(report.weighted_precision - wp) < 1e-9
        assert abs(report.weighted_recall - wr) < 1e-9
        assert abs(report.weighted_f1 - wf) < 1e-9


# --- grid search ----------------------------------------------------------------


def _grid_providers(tests_data):
    return [
        SnapshotProvider(tests_data / "grid20_alpha.json"),
        SnapshotProvider(tests_data / "grid20_beta.json"),
    ]


def test_grid_search_singleton_ranges(tests_data, gold):
    providers = _grid_providers(tests_data)
    grid_gold = load_gold(tests_data / "grid20_gold.tsv")
    result = grid_search(grid_gold, providers, d_range=[4], t_range=[20], w_range=[5])
    assert (result.best.d, result.best.t, result.best.w) == (4, 20, 5)
    assert list(result.table) == [(4, 20, 5)]


def test_grid_search_rejects_live_providers(tests_data):
    class FakeLive:
        provider_id = "live"
        deterministic = False

        def lookup(self, word):  # pragma: no cover
            return None

    grid_gold = load_gold(tests_data / "grid20_gold.tsv")
    with pytest.raises(ValueError, match="deterministic"):
        grid_search(grid_gold, [FakeLive()])


def test_grid_search_table_covers_all_cells(tests_data):
    providers = _grid_providers(tests_data)
    grid_gold = load_gold(tests_data / "grid20_gold.tsv")
    result = grid_search(
        grid_gold, providers, d_range=[2, 3], t_range=[5, 10], w_range=[2, 8]
    )
    assert len(result.table) == 8
    assert result.table[(result.best.d, result.best.t, result.best.w)] == result.best_accuracy


def test_grid_search_order_invariant_argmax(tests_data):
    providers = _grid_providers(tests_data)
    grid_gold = load_gold(tests_data / "grid20_gold.tsv")
    forward = grid_search(grid_gold, providers, d_range=[2, 5, 8], t_range=[5, 20], w_range=[2, 5, 8])
    reversed_ranges = grid_search(
        grid_gold, providers, d_range=[8, 5, 2], t_range=[20, 5], w_range=[8, 5, 2]
    )
    assert forward.best == reversed_ranges.best
    assert forward.table == reversed_ranges.table


def test_grid_search_tie_break_lexicographic():
    # one word, no gendered tokens anywhere: every cell scores the same
    providers = [  # snapshot-less in-memory provider
        type(
            "P",
            (),
            {
                "provider_id": "p",
                "deterministic": True,
                "lookup": lambda self, word: None,
            },
        )()
    ]
    gold = [GoldEntry("missing", NEUT, "misc")]
    result = grid_search(gold, providers, d_range=[3, 2], t_range=[10, 5], w_range=[4, 2])
    assert (result.best.d, result.best.t, result.best.w) == (2, 5, 2)


@pytest.mark.parametrize(
    "ranges",
    [
        {"d_range": []},
        {"t_range": range(10, 5)},
        {"w_range": ()},
    ],
)
def test_grid_search_empty_range_rejected_before_lookup(ranges):
    class Recording:
        provider_id = "p"
        deterministic = True

        def __init__(self):
            self.lookups = []

        def lookup(self, word):
            self.lookups.append(word)
            return None

    provider = Recording()
    gold = [GoldEntry("nurse", NEUT, "occupation")]
    with pytest.raises(ValueError, match="empty grid"):
        grid_search(gold, [provider], **ranges)
    assert provider.lookups == []


class TableProvider:
    """Snapshot-like in-memory source: word -> list of definitions."""

    deterministic = True

    def __init__(self, provider_id, table):
        self.provider_id = provider_id
        self.table = table

    def lookup(self, word):
        if word not in self.table:
            return None
        return DefinitionSet(word, self.provider_id, tuple(self.table[word]))


# Gold words by the route they take; each drawn gold list has one of each.
ROUTE_WORDS = (
    ("woman", "men", "wives", "uncle", "girls"),  # seed forms and plurals
    ("chairman", "policewoman", "cowgirl", "busboy"),  # suffix heuristic
    ("human", "superhuman"),  # the -human exception: dictionary route
    ("grand-father", "step-mother", "half sister"),  # found after the strip
    ("nurse", "monk", "crew", "widow"),  # plain dictionary words
    ("onlyalpha",),  # missing from one source
    ("qzxv",),  # missing from every source
)
TABLE_KEYS = (
    "woman", "chairman", "human", "superhuman", "grandfather", "stepmother",
    "halfsister", "grand-father", "nurse", "monk", "crew", "widow",
)
GRID_VOCAB = (
    "a the of person who man woman men women male female wife husbands son "
    "mother fathers girl boy sister brothers aunt uncles (man) “women” royal"
).split()

definitions_st = st.lists(
    st.lists(st.sampled_from(GRID_VOCAB), max_size=14).map(" ".join), max_size=5
)
table_st = st.dictionaries(st.sampled_from(TABLE_KEYS), definitions_st)


@settings(max_examples=60, deadline=None)
@given(
    must=st.tuples(*(st.sampled_from(words) for words in ROUTE_WORDS)),
    extra=st.lists(st.sampled_from([w for words in ROUTE_WORDS for w in words]), max_size=6),
    labels=st.lists(st.sampled_from([MASC, FEM, NEUT]), min_size=24, max_size=24),
    alpha=table_st,
    beta=table_st,
    only_alpha=definitions_st,
    d_range=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    t_range=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    w_range=st.lists(st.integers(1, 8), min_size=1, max_size=3),
)
def test_grid_cells_match_classify_and_evaluate(
    must, extra, labels, alpha, beta, only_alpha, d_range, t_range, w_range
):
    words = list(must) + extra
    label_of = dict(zip(dict.fromkeys(words), labels))
    gold = [GoldEntry(word, label_of[word], "misc") for word in words]
    providers = [
        TableProvider("alpha", {**alpha, "onlyalpha": only_alpha}),
        TableProvider("beta", beta),
    ]
    result = grid_search(gold, providers, d_range=d_range, t_range=t_range, w_range=w_range)
    cells = sorted(result.table)
    assert cells == sorted(
        {(d, t, w) for d in d_range for t in t_range for w in w_range}
    )
    for cell in cells:
        params = ClassifierParams(*cell)
        expected = evaluate_results(classify_gold(gold, providers, params), gold).accuracy
        assert result.table[cell] == expected, cell
    best = max(cells, key=lambda cell: (result.table[cell], [-v for v in cell]))
    assert (result.best.d, result.best.t, result.best.w) == best
    assert result.best_accuracy == result.table[best]
