"""Tests of the benchmark's own parts: generators, stub session, tracer, statistics."""

from __future__ import annotations

import json

import pytest
import requests

import generate
from lexgender import classifier
from lexgender.classifier import classify
from lexgender.corpus import ingest_tagged
from lexgender.providers import CachedHttpProvider, SnapshotProvider, WordNetProvider
from lexgender.providers.htmlextract import extract_definitions_html
from lexgender.providers.httpdict import SITES
from run import percentile_with_tail
from stub import StubSession, TransportGuard
from tracing import Tracer
from workloads import _import_times

SCALE = 0.02
DIALECT = {site_id: site.dialect for site_id, site in SITES.items()}


def _tree_bytes(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _corpus(directory, seed):
    generate.write_wndb(directory / "wndb", seed, SCALE)
    generate.write_corpus(directory, directory / "wndb", seed, SCALE)
    return _tree_bytes(directory)


def test_corpus_and_wndb_are_byte_identical_per_seed(tmp_path):
    first = _corpus(tmp_path / "a", 7)
    assert first == _corpus(tmp_path / "b", 7)
    other = _corpus(tmp_path / "c", 8)
    assert other["tagged.tsv"] != first["tagged.tsv"]
    assert other["wndb/data.noun"] != first["wndb/data.noun"]


def test_live_pages_are_byte_identical_per_seed(tmp_path):
    generate.write_live(tmp_path / "a", 7, n_words=24)
    generate.write_live(tmp_path / "b", 7, n_words=24)
    generate.write_live(tmp_path / "c", 8, n_words=24)
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


def test_generated_wndb_parses_to_the_manifest_glosses(tmp_path):
    manifest = generate.write_wndb(tmp_path, 3, SCALE)
    provider = WordNetProvider(tmp_path)
    assert len(provider) == manifest["lemmas"]
    for lemma, glosses in manifest["expected"].items():
        assert list(provider.lookup(lemma).definitions) == glosses


def test_generated_wndb_has_wordnet_senses_per_lemma(tmp_path):
    manifest = generate.write_wndb(tmp_path, 3, SCALE)
    with open(tmp_path / "index.noun", encoding="utf-8") as fh:
        counts = [int(line.split()[2]) for line in fh if not line.startswith(" ")]
    assert len(counts) == manifest["lemmas"] and sum(counts) == manifest["senses"]
    # wnstats(7WN), WordNet 3.0 nouns: 146,312 senses of 117,798 lemmas, 101,863 with one
    assert sum(counts) / len(counts) == pytest.approx(146_312 / 117_798, abs=0.001)
    assert counts.count(1) / len(counts) == pytest.approx(101_863 / 117_798, abs=0.001)


def test_generated_corpus_ingests(tmp_path):
    generate.write_wndb(tmp_path / "wndb", 3, SCALE)
    info = generate.write_corpus(tmp_path, tmp_path / "wndb", 3, SCALE)
    with open(tmp_path / "tagged.tsv", encoding="utf-8") as fh:
        records = ingest_tagged(fh)
    assert {r.pos for r in records} == {"NN", "NNS"}
    assert any("-" in r.surface for r in records)
    assert any(" " in w for w in info["words"])


def test_extraction_of_generated_pages_matches_the_snapshots(tmp_path):
    generate.write_live(tmp_path, 5, n_words=36)
    for site in generate.SITE_IDS:
        entries = json.loads((tmp_path / f"{site}.json").read_text(encoding="utf-8"))["entries"]
        for page in sorted((tmp_path / "pages" / site).glob("*.html")):
            definitions = extract_definitions_html(page.read_text(encoding="utf-8"), DIALECT[site])
            assert definitions == entries[page.stem]["definitions"]


def test_stub_serves_pages_counts_requests_and_404s(tmp_path):
    generate.write_live(tmp_path / "in", 5, n_words=36)
    pages = {
        site: {p.stem: p.read_text(encoding="utf-8") for p in (tmp_path / "in" / "pages" / site).glob("*.html")}
        for site in SITES
    }
    stub = StubSession(SITES, pages, delay_s=0.0001)
    words = json.loads((tmp_path / "in" / "words.json").read_text(encoding="utf-8"))["words"]
    live = [CachedHttpProvider(site, tmp_path / "cache", 0.0001, session=stub) for site in SITES]
    reference = [SnapshotProvider(tmp_path / "in" / f"{site}.json") for site in SITES]
    with TransportGuard() as guard:
        for word in words:
            assert classify(word, live) == classify(word, reference)
    assert not guard.violations
    assert len(stub.requests) == len(set(stub.requests)) > 0
    assert stub.wait_s > 0
    assert stub.get("https://www.dictionary.com/browse/no-such-word").status_code == 404


def test_transport_guard_refuses_real_requests():
    with TransportGuard() as guard:
        with pytest.raises(RuntimeError):
            requests.Session().get("http://localhost:9/")
    assert guard.violations == ["http://localhost:9/"]


def test_tracer_self_time_counts_and_restore():
    original = classifier.tokenize
    tracer = Tracer()
    tracer.install()
    try:
        assert classifier.tokenize is not original
        with tracer.span("op.job"):
            classifier.tokenize("a woman")
            classifier.tokenize("a man")
    finally:
        tracer.uninstall()
    assert classifier.tokenize is original
    assert tracer.calls("classifier.tokenize", "op.job") == 2
    by_layer = tracer.self_time_by_layer("op.job")
    assert set(by_layer) == {"bench", "classifier"}
    assert sum(by_layer.values()) == pytest.approx(tracer.total("op.job"))
    assert [name for _, _, name, _, _ in tracer.spans] == ["op.job"]


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0)],
)
def test_percentile_keeps_ten_samples_above_it(n, expected):
    p, value = percentile_with_tail([float(i) for i in range(n)])
    assert p == expected
    if p is not None:
        assert sum(1 for i in range(n) if i > value) >= 10


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       512 |        512 |   _io
import time:       120 |        900 |     lexgender.core
import time:       300 |       1400 |   lexgender
import time:      2000 |     160000 | requests
import time:       700 |     240000 | lexgender.cli
"""


def test_import_times_read_cumulative_seconds():
    assert _import_times(IMPORTTIME) == (0.24, 0.16)


def test_import_times_without_requests():
    """Once ``requests`` is imported lazily, ``import lexgender.cli`` lists no such line."""
    lazy = "\n".join(line for line in IMPORTTIME.splitlines() if not line.endswith("| requests"))
    assert _import_times(lazy) == (0.24, 0.0)
