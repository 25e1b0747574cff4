"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import random
import time

import pytest

from lexgender.classifier import classify, combine, count_gendered, suffix_heuristic
from lexgender.core import ClassifierParams, GenderLabel, default_lexicon
from lexgender.data import gold_path, snapshot_path, BUNDLED_SNAPSHOT_IDS
from lexgender.corpus import (
    classify_inventory,
    composition_report,
    gendered_sample,
    ingest_tagged,
)
from lexgender.evaluation import (
    GoldEntry,
    classify_gold,
    evaluate,
    evaluate_results,
    grid_search,
    load_gold,
)
from lexgender.providers import SnapshotProvider, WordNetProvider
from lexgender.providers.base import DefinitionSet

MASC, FEM, NEUT, NF = (
    GenderLabel.MASC,
    GenderLabel.FEM,
    GenderLabel.NEUT,
    GenderLabel.NOT_FOUND,
)

LEXICON = default_lexicon()


def _report(line):
    print(f"\nPASS {line}")


def test_criterion_1_gold_reproduction_on_snapshots():
    """Combined accuracy >= 0.80 on the bundled gold list + snapshots, < 10 s."""
    started = time.perf_counter()
    providers = [SnapshotProvider(snapshot_path(pid)) for pid in BUNDLED_SNAPSHOT_IDS]
    gold = load_gold(gold_path())
    results = classify_gold(gold, providers)
    report = evaluate_results(results, gold)
    elapsed = time.perf_counter() - started
    assert report.n == 134
    assert report.accuracy >= 0.80, f"combined accuracy {report.accuracy:.4f} below 0.80"
    assert elapsed < 10.0, f"offline evaluation took {elapsed:.2f}s"
    _report(
        f"criterion 1: combined accuracy {report.accuracy:.4f} >= 0.80 "
        f"in {elapsed:.2f}s offline"
    )


def test_criterion_2_gold_composition():
    """Exactly 53 masc / 53 fem / 28 neut = 134 entries."""
    gold = load_gold(gold_path())
    counts = {label: 0 for label in (MASC, FEM, NEUT)}
    for entry in gold:
        counts[entry.label] += 1
    assert len(gold) == 134
    assert counts == {MASC: 53, FEM: 53, NEUT: 28}
    _report("criterion 2: gold composition 53 masc / 53 fem / 28 neut = 134")


def test_criterion_3_wordnet_error_regressions(bundled_wndb):
    """WordNet-only WNDB classification: widow -> neut, crew -> masc."""
    wordnet = WordNetProvider(bundled_wndb)
    widow = classify("widow", [wordnet])
    crew = classify("crew", [wordnet])
    assert widow.combined is NEUT, widow
    assert widow.verdicts[0].masc_count == widow.verdicts[0].fem_count == 1
    assert crew.combined is MASC, crew
    assert crew.verdicts[0].masc_count > crew.verdicts[0].fem_count
    _report("criterion 3: on WNDB data widow -> neut and crew -> masc")


class _TripwireProvider:
    provider_id = "tripwire"
    deterministic = True

    def __init__(self):
        self.lookups = 0

    def lookup(self, word):
        self.lookups += 1
        return DefinitionSet(word, self.provider_id, ())


def test_criterion_4_suffix_heuristic_suite():
    """Every gold word with a gendered suffix is decided without a dictionary."""
    gold = load_gold(gold_path())
    suffixed = sorted(
        {e.word for e in gold if e.word.endswith(("man", "woman", "boy", "girl"))}
    )
    assert suffixed, "gold list lost its suffixed words"
    tripwire = _TripwireProvider()
    for word in suffixed:
        expected = FEM if word.endswith(("woman", "girl")) else MASC
        result = classify(word, [tripwire])
        assert result.combined is expected, (word, result.combined)
        assert result.verdicts == ()
    assert tripwire.lookups == 0, "a suffixed word reached the dictionaries"

    # woman and human are never masculine
    providers = [SnapshotProvider(snapshot_path(pid)) for pid in BUNDLED_SNAPSHOT_IDS]
    assert classify("woman", providers).combined is FEM
    assert classify("human", providers).combined is NEUT
    assert suffix_heuristic("human") is None
    _report(
        f"criterion 4: {len(suffixed)} suffixed gold words decided heuristically; "
        "woman/human never masc"
    )


def test_criterion_5_vote_truth_table():
    """combine matches a hand-written truth table over all 64 triples."""

    def truth_table_row(labels):
        votes = [label for label in labels if label is not NF]
        if not votes:
            return NF
        tally = {label: votes.count(label) for label in set(votes)}
        top = max(tally, key=tally.get)
        if tally[top] * 2 > len(votes):
            return top
        return NEUT

    checked = 0
    for triple in itertools.product(list(GenderLabel), repeat=3):
        assert combine(list(triple)) is truth_table_row(triple), triple
        checked += 1
    assert checked == 64

    # pinned rows, including the mixed not-found rule
    assert combine([MASC, MASC, FEM]) is MASC
    assert combine([NF, MASC, FEM]) is NEUT
    assert combine([NF, NF, NF]) is NF
    assert combine([MASC, FEM, NEUT]) is NEUT
    _report("criterion 5: vote fusion matches the 64-row truth table")


def test_criterion_6_counting_oracle():
    """count_gendered equals a naive full-scan oracle on 200 random sets."""

    punct = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~‘’“”–—…")

    def oracle(definitions, d, t, w):
        masc = fem = 0
        for definition in definitions[:d]:
            tokens = []
            for raw in definition.lower().split():
                while raw and raw[0] in punct:
                    raw = raw[1:]
                while raw and raw[-1] in punct:
                    raw = raw[:-1]
                if raw:
                    tokens.append(raw)
            for token in tokens[:t]:
                for pair in LEXICON.pairs[:w]:
                    if token in (pair.masculine, LEXICON.plurals[pair.masculine]):
                        masc += 1
                    if token in (pair.feminine, LEXICON.plurals[pair.feminine]):
                        fem += 1
        return masc, fem

    vocabulary = (
        "the a of or person man woman men women male female males females wife wives "
        "husband husbands daughter son daughters sons mother father mothers fathers "
        "girl boy girls boys sister brother sisters brothers aunt uncle aunts uncles "
        "(men) 'wife' woman's “female” mankind superwoman castle; rope, jar."
    ).split()

    rng = random.Random(20240)
    for trial in range(200):
        definitions = tuple(
            " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 45)))
            for _ in range(rng.randint(0, 9))
        )
        params = ClassifierParams(
            d=rng.randint(1, 10), t=rng.randint(1, 40), w=rng.randint(1, 8)
        )
        definition_set = DefinitionSet("x", "stub", definitions)
        assert count_gendered(definition_set, params, LEXICON) == oracle(
            definitions, params.d, params.t, params.w
        ), trial
    _report("criterion 6: counting equals the naive oracle on 200 random sets")


def test_criterion_7_metric_oracle():
    """evaluate matches direct formula computation within 1e-9 on 100 sets."""

    def oracle(gold, predictions):
        gold_labels = [MASC, FEM, NEUT]
        matrix = {(g, p): 0 for g in gold_labels for p in list(GenderLabel)}
        for entry in gold:
            matrix[(entry.label, predictions[entry.word])] += 1
        n = len(gold)
        accuracy = sum(matrix[(label, label)] for label in gold_labels) / n
        precision = recall = f1 = 0.0
        for label in gold_labels:
            support = sum(matrix[(label, p)] for p in list(GenderLabel))
            predicted = sum(matrix[(g, label)] for g in gold_labels)
            tp = matrix[(label, label)]
            p = tp / predicted if predicted else 0.0
            r = tp / support if support else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            precision += p * support / n
            recall += r * support / n
            f1 += f * support / n
        return accuracy, precision, recall, f1

    rng = random.Random(77)
    labels = [MASC, FEM, NEUT]
    for trial in range(100):
        n = rng.randint(1, 80)
        gold = [GoldEntry(f"w{i}", rng.choice(labels), "misc") for i in range(n)]
        predictions = {f"w{i}": rng.choice(labels + [NF]) for i in range(n)}
        report = evaluate(predictions, gold)
        accuracy, precision, recall, f1 = oracle(gold, predictions)
        assert abs(report.accuracy - accuracy) < 1e-9, trial
        assert abs(report.weighted_precision - precision) < 1e-9, trial
        assert abs(report.weighted_recall - recall) < 1e-9, trial
        assert abs(report.weighted_f1 - f1) < 1e-9, trial
    _report("criterion 7: metrics match formula oracle within 1e-9 on 100 sets")


def test_criterion_8_grid_search_soundness(tests_data):
    """Grid argmax equals a naive per-cell re-evaluation over 441 cells."""
    providers = [
        SnapshotProvider(tests_data / "grid20_alpha.json"),
        SnapshotProvider(tests_data / "grid20_beta.json"),
    ]
    gold = load_gold(tests_data / "grid20_gold.tsv")
    assert len(gold) == 20

    d_range = range(2, 11)
    t_range = (5, 10, 15, 20, 25, 30, 35)
    w_range = range(2, 9)

    result = grid_search(gold, providers, d_range=d_range, t_range=t_range, w_range=w_range)
    assert len(result.table) == 9 * 7 * 7

    # independent naive pass: fresh classification per cell, no shared caching
    naive_best = None
    naive_accuracy = -1.0
    for d in d_range:
        for t in t_range:
            for w in w_range:
                params = ClassifierParams(d=d, t=t, w=w)
                correct = 0
                for entry in gold:
                    outcome = classify(entry.word, providers, params, LEXICON)
                    if outcome.combined is entry.label:
                        correct += 1
                accuracy = correct / len(gold)
                assert result.table[(d, t, w)] == accuracy, (d, t, w)
                if accuracy > naive_accuracy:
                    naive_best, naive_accuracy = (d, t, w), accuracy

    assert (result.best.d, result.best.t, result.best.w) == naive_best
    assert result.best_accuracy == naive_accuracy
    _report(
        f"criterion 8: grid argmax {naive_best} (accuracy {naive_accuracy:.3f}) "
        "matches naive re-evaluation over 441 cells"
    )


def test_criterion_9_corpus_shape(toy_corpus_file):
    """Toy-corpus composition and gendered sample match hand counts."""
    providers = [SnapshotProvider(snapshot_path(pid)) for pid in BUNDLED_SNAPSHOT_IDS]
    with open(toy_corpus_file) as fh:
        records = ingest_tagged(fh)

    # hand counts: 20 distinct (surface, POS) nouns in the bundled file
    assert len(records) == 20
    results = classify_inventory(records, providers)
    report = composition_report(results, records)
    assert report.counts["masc"] == {"NN": 5, "NNS": 1, "all": 6}
    assert report.counts["fem"] == {"NN": 5, "NNS": 2, "all": 7}
    assert report.counts["neut"] == {"NN": 4, "NNS": 1, "all": 5}
    assert report.counts["not_found"] == {"NN": 1, "NNS": 1, "all": 2}
    assert report.total == 20

    expected_sample = [
        "businessman",
        "crew",
        "grand-father",
        "king",
        "man",
        "monk",
        "nun",
        "nuns",
        "policewoman",
        "queen",
        "sons",
        "soprano",
        "widow",
        "women",
    ]
    assert gendered_sample(results) == expected_sample
    _report("criterion 9: toy-corpus composition and gendered sample match hand counts")
