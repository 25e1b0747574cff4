import io
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgender import corpus
from lexgender.classifier import classify
from lexgender.core import GenderLabel
from lexgender.corpus import (
    NOUN_TAGS,
    InventoryAborted,
    NounRecord,
    _clean_surface,
    classify_inventory,
    composition_report,
    gendered_sample,
    ingest_tagged,
)
from lexgender.errors import DataFormatError, TransportError

MASC, FEM, NEUT, NF = (
    GenderLabel.MASC,
    GenderLabel.FEM,
    GenderLabel.NEUT,
    GenderLabel.NOT_FOUND,
)


def lines(text):
    return io.StringIO(text)


# --- ingest -------------------------------------------------------------------


def test_ingest_single_noun():
    records = ingest_tagged(lines("the\tDT\nnun\tNN\n"))
    assert records == [NounRecord("nun", "NN", 1)]


def test_ingest_aggregates_frequency():
    records = ingest_tagged(lines("kings\tNNS\n\nkings\tNNS\n"))
    assert records == [NounRecord("kings", "NNS", 2)]


def test_ingest_drops_special_characters():
    assert ingest_tagged(lines("f@@\tNN\n")) == []
    assert ingest_tagged(lines("x9\tNN\n")) == []


def test_ingest_keeps_hyphen_apostrophe():
    records = ingest_tagged(lines("grand-father\tNN\no'clock\tNN\n--\tNN\n"))
    assert [r.surface for r in records] == ["--", "grand-father", "o'clock"]


def test_ingest_lowercases():
    assert ingest_tagged(lines("Nun\tNN\n"))[0].surface == "nun"


def test_ingest_skips_other_pos():
    assert ingest_tagged(lines("run\tVB\nblue\tJJ\n")) == []


def test_ingest_nn_and_nns_are_distinct_records():
    records = ingest_tagged(lines("king\tNN\nkings\tNNS\n"))
    assert {(r.surface, r.pos) for r in records} == {("king", "NN"), ("kings", "NNS")}


def test_ingest_malformed_line():
    with pytest.raises(DataFormatError, match="line 2"):
        ingest_tagged(lines("the\tDT\nnun NN\n"))
    with pytest.raises(DataFormatError):
        ingest_tagged(lines("a\tb\tc\n"))


def test_ingest_frequency_sum_equals_retained_lines():
    rng = random.Random(11)
    vocabulary = ["nun", "king", "tree", "f@@", "idea"]
    tags = ["NN", "NNS", "DT", "VB"]
    rows = []
    retained = 0
    for _ in range(300):
        token, pos = rng.choice(vocabulary), rng.choice(tags)
        rows.append(f"{token}\t{pos}")
        if pos in ("NN", "NNS") and token != "f@@":
            retained += 1
        if rng.random() < 0.1:
            rows.append("")
    records = ingest_tagged(lines("\n".join(rows) + "\n"))
    assert sum(r.frequency for r in records) == retained


def naive_clean_surface(token):
    surface = token.lower()
    if not surface:
        return None
    for ch in surface:
        if not (ch.isalpha() or ch in "-'"):
            return None
    return surface


def naive_ingest(lines):
    """One pass of per-line work over every line: the oracle for ingest_tagged."""
    counts = Counter()
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise DataFormatError(f"line {lineno}: expected token<TAB>POS, got {line!r}")
        token, pos = fields
        if pos not in NOUN_TAGS:
            continue
        surface = naive_clean_surface(token)
        if surface is None:
            continue
        counts[(surface, pos)] += 1
    return [NounRecord(surface, pos, n) for (surface, pos), n in sorted(counts.items())]


def ingest_outcome(ingest, rows):
    try:
        return ingest(rows)
    except DataFormatError as exc:
        return f"DataFormatError: {exc}"


@given(st.text(alphabet=st.one_of(st.sampled_from("-'"), st.characters()), max_size=12))
@settings(max_examples=300)
def test_clean_surface_matches_naive(token):
    assert _clean_surface(token) == naive_clean_surface(token)


TOKENS = ["nun", "Nun", "kings", "grand-father", "o'clock", "--", "x9", "f@@", "café", "İd", ""]
TAGS = ["NN", "NNS", "DT", "VB", "NN\r", ""]
ROWS = st.one_of(
    st.builds(
        "{}\t{}".format,
        st.one_of(st.sampled_from(TOKENS), st.text(max_size=4)),
        st.one_of(st.sampled_from(TAGS), st.text(max_size=3)),
    ),
    st.sampled_from(["", " ", " \t ", "a b", "a\tb\tc", "\tNN", "nun\t"]),  # breaks, malformed
).flatmap(lambda row: st.sampled_from([row, row + "\n"]))


@given(
    pool=st.lists(ROWS, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), max_size=60),
    batch_lines=st.integers(1, 9),
)
@settings(max_examples=300, deadline=None)
def test_ingest_matches_naive_oracle(pool, picks, batch_lines):
    # rows repeat, so batches hold both lines first seen there and lines seen before
    rows = [pool[i % len(pool)] for i in picks]
    with mock.patch.object(corpus, "_BATCH_LINES", batch_lines):
        assert ingest_outcome(ingest_tagged, rows) == ingest_outcome(naive_ingest, rows)


def test_ingest_reports_malformed_line_past_the_first_batch():
    batch = corpus._BATCH_LINES
    rows = ["nun\tNN\n"] * (batch + 5) + ["nun NN\n"] + ["kings\tNNS\n"] * batch + ["nun NN\n"]
    with pytest.raises(DataFormatError, match=rf"^line {batch + 6}: ") as excinfo:
        ingest_tagged(rows)
    assert f"DataFormatError: {excinfo.value}" == ingest_outcome(naive_ingest, rows)
    good = rows[: batch + 5] + rows[batch + 6 : -1]
    assert ingest_tagged(good) == naive_ingest(good) == [
        NounRecord("kings", "NNS", batch),
        NounRecord("nun", "NN", batch + 5),
    ]


# --- classify_inventory ---------------------------------------------------------


def test_inventory_classifies_each_surface_once(bundled_providers):
    records = [
        NounRecord("nun", "NN", 3),
        NounRecord("nun", "NNS", 1),  # same surface, shared result
        NounRecord("table", "NN", 2),
    ]
    results = classify_inventory(records, bundled_providers)
    assert set(results) == {"nun", "table"}
    assert results["nun"].combined is FEM
    assert results["table"].combined is NEUT


def test_inventory_empty():
    assert classify_inventory([], [object()]) == {}


def test_inventory_aborts_with_partial_progress(bundled_providers):
    class ExplodingProvider:
        provider_id = "live"
        deterministic = False

        def lookup(self, word):
            if word == "table":
                raise TransportError("socket closed")
            return None

    records = [NounRecord("nun", "NN", 1), NounRecord("table", "NN", 1)]
    providers = [bundled_providers[0], ExplodingProvider()]
    with pytest.raises(InventoryAborted) as excinfo:
        classify_inventory(records, providers)
    assert excinfo.value.word == "table"
    assert set(excinfo.value.partial) == {"nun"}


# --- gendered_sample -----------------------------------------------------------


def test_sample_includes_any_provider_gendered(bundled_providers):
    # crew: wordnet says masc, the other two say neut, combined is neut
    results = {"crew": classify("crew", bundled_providers)}
    assert results["crew"].combined is NEUT
    assert gendered_sample(results) == ["crew"]


def test_sample_excludes_all_neutral_and_not_found(bundled_providers):
    results = {
        "table": classify("table", bundled_providers),  # all three neut
        "qzxv": classify("qzxv", bundled_providers),  # all three not found
        "human": classify("human", bundled_providers),
        "mx.": classify("mx.", bundled_providers),  # (not_found, neut, neut)
    }
    assert [v.label for v in results["mx."].verdicts] == [NF, NEUT, NEUT]
    assert gendered_sample(results) == []


def test_sample_includes_heuristic_words(bundled_providers):
    results = {
        "policewoman": classify("policewoman", bundled_providers),
        "men": classify("men", bundled_providers),
    }
    assert gendered_sample(results) == ["men", "policewoman"]


def test_sample_sorted_and_subset(bundled_providers, toy_corpus_file):
    with open(toy_corpus_file) as fh:
        records = ingest_tagged(fh)
    results = classify_inventory(records, bundled_providers)
    sample = gendered_sample(results)
    assert sample == sorted(sample)
    assert set(sample) <= set(results)
    for word in sample:
        result = results[word]
        assert result.combined in (MASC, FEM) or any(
            v.label in (MASC, FEM) for v in result.verdicts
        )


# --- composition_report ----------------------------------------------------------


def test_composition_trivial_counts(bundled_providers):
    records = [NounRecord("monk", "NN", 5), NounRecord("nuns", "NNS", 2)]
    results = classify_inventory(records, bundled_providers)
    report = composition_report(results, records)
    assert report.counts["masc"] == {"NN": 1, "NNS": 0, "all": 1}
    assert report.counts["fem"] == {"NN": 0, "NNS": 1, "all": 1}
    assert report.total == 2


def test_composition_all_neutral(bundled_providers):
    records = [NounRecord("table", "NN", 1), NounRecord("person", "NN", 1)]
    results = classify_inventory(records, bundled_providers)
    report = composition_report(results, records)
    assert report.counts["masc"]["all"] == 0
    assert report.counts["fem"]["all"] == 0
    assert report.counts["neut"]["all"] == 2


def test_composition_requires_results(bundled_providers):
    records = [NounRecord("table", "NN", 1)]
    with pytest.raises(ValueError, match="table"):
        composition_report({}, records)


def test_composition_nn_plus_nns_equals_all(bundled_providers, toy_corpus_file):
    with open(toy_corpus_file) as fh:
        records = ingest_tagged(fh)
    results = classify_inventory(records, bundled_providers)
    report = composition_report(results, records)
    for label in ("masc", "fem", "neut", "not_found"):
        row = report.counts[label]
        assert row["NN"] + row["NNS"] == row["all"]
    assert sum(report.counts[l]["all"] for l in report.counts) == report.total


def test_composition_permutation_invariant(bundled_providers, toy_corpus_file):
    with open(toy_corpus_file) as fh:
        records = ingest_tagged(fh)
    results = classify_inventory(records, bundled_providers)
    forward = composition_report(results, records)
    rng = random.Random(3)
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert composition_report(results, shuffled).counts == forward.counts
