import json
import os
import re
import threading
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import unquote

import pytest
import requests

from lexgender.errors import DataFormatError, TransportError
from lexgender.providers import (
    CachedHttpProvider,
    SnapshotProvider,
    WordNetProvider,
    cache_file,
    extract_definitions_html,
    load_noun_index,
    snapshot_write,
)

# --- WNDB parsing -----------------------------------------------------------


def test_mini_fixture_index_size(tests_data):
    index = load_noun_index(tests_data / "wndb_mini")
    assert len(index) == 10


def test_mini_fixture_sense_counts_match_line_counts(tests_data):
    # independent oracle: count offsets straight off the index file text
    index = load_noun_index(tests_data / "wndb_mini")
    expected = {}
    for line in (tests_data / "wndb_mini" / "index.noun").read_text().splitlines():
        if line.startswith(" ") or not line.strip():
            continue
        fields = line.split()
        expected[fields[0]] = int(fields[2])
    assert expected == {lemma: len(glosses) for lemma, glosses in index.items()}


def test_mini_fixture_sense_order_and_examples(tests_data):
    index = load_noun_index(tests_data / "wndb_mini")
    assert index["dog"][0].startswith("a member of the genus Canis")
    # example sentences (quoted segments) stay part of the gloss
    assert '"the dog barked all night"' in index["dog"][0]
    assert index["dog"][1].startswith("a hinged catch")


def test_single_sense_lemma_has_one_definition(tests_data):
    provider = WordNetProvider(tests_data / "wndb_mini", provider_id="mini")
    assert len(provider.lookup("cat").definitions) == 1


def test_multiword_lemma_lookup(tests_data):
    provider = WordNetProvider(tests_data / "wndb_mini")
    found = provider.lookup("fig tree")
    assert found is not None
    assert found.definitions[0].startswith("any moraceous tree")


def test_wndb_lookup_not_found(tests_data):
    provider = WordNetProvider(tests_data / "wndb_mini")
    assert provider.lookup("qzxv") is None


def test_bundled_wndb_nun_and_monk(wordnet):
    assert wordnet.lookup("nun").definitions[0] == "a woman belonging to a religious order"
    assert (
        wordnet.lookup("monk").definitions[0]
        == "a man who is a member of a religious order and lives in a monastery"
    )


def test_bundled_wndb_parses_clean(wordnet):
    # every lemma resolves to at least one non-empty gloss, in stored order
    assert len(wordnet) > 100
    for word in ("crew", "widow", "queen"):
        found = wordnet.lookup(word)
        assert all(d.strip() for d in found.definitions)


def test_wndb_malformed_record_reports_line(tmp_path):
    (tmp_path / "data.noun").write_text(
        "00000001 18 n 01 apple 0 001 @ 00000001 n 0000 | a fruit\nnot a record\n"
    )
    (tmp_path / "index.noun").write_text("apple n 1 1 @ 1 0 00000001\n")
    with pytest.raises(DataFormatError, match="data.noun:2"):
        load_noun_index(tmp_path)
    # "²" passes str.isdigit() but int() rejects it
    (tmp_path / "data.noun").write_text(
        "00000001 18 n 01 apple 0 000 | a fruit\n\u00b20000001 18 n 01 pear 0 000 | a fruit\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="data.noun:2: malformed synset record"):
        load_noun_index(tmp_path)
    (tmp_path / "data.noun").write_text("00000001 18 n 01 apple 0 001 @ 00000001 n 0000 | a fruit\n")
    (tmp_path / "index.noun").write_bytes(b"apple n 1 1 @ 1 0 00000001\n\xff\n")
    with pytest.raises(DataFormatError, match=r"index\.noun: not UTF-8 text \(byte 0xff"):
        load_noun_index(tmp_path)


def test_wndb_duplicate_synset_offset_reports_line(tmp_path):
    (tmp_path / "data.noun").write_text(
        "00000001 18 n 01 apple 0 000 | a fruit\n00000001 18 n 01 pear 0 000 | another fruit\n"
    )
    (tmp_path / "index.noun").write_text("apple n 1 0 1 0 00000001\n")
    with pytest.raises(DataFormatError, match="data.noun:2: duplicate synset offset 1"):
        load_noun_index(tmp_path)


def test_wndb_duplicate_lemma_reports_line(tmp_path):
    (tmp_path / "data.noun").write_text(
        "00000001 18 n 01 apple 0 000 | a fruit\n00000002 18 n 01 apple 0 000 | a tree\n"
    )
    (tmp_path / "index.noun").write_text(
        "apple n 1 0 1 0 00000001\napple n 1 0 1 0 00000002\n"
    )
    with pytest.raises(DataFormatError, match="index.noun:2: duplicate lemma 'apple'"):
        load_noun_index(tmp_path)


@pytest.mark.parametrize(
    "index_line, message",
    [
        ("apple v 1 0 1 0 00000001", "unexpected pos 'v'"),
        ("apple n 1 0 2 0 00000001", "sense count disagrees with synset count"),
        ("apple n 2 0 2 0 00000001", "missing synset offsets"),
        ("apple n 2 0 2 0 00000099", "missing synset offsets"),
        ("apple n 1 9 @ 1 0 00000001", "list index out of range"),
    ],
    ids=["wrong-pos", "sense-count", "too-few-offsets", "too-few-dangling", "pointers-past-end"],
)
def test_wndb_index_error_reports_line(tmp_path, index_line, message):
    (tmp_path / "data.noun").write_text("00000001 18 n 01 apple 0 000 | a fruit\n")
    (tmp_path / "index.noun").write_text(f"  1 header\npear n 1 0 1 0 00000001\n{index_line}\n")
    with pytest.raises(DataFormatError, match=f"^index\\.noun:3: {re.escape(message)}$"):
        load_noun_index(tmp_path)


def test_wndb_missing_gloss_separator(tmp_path):
    (tmp_path / "data.noun").write_text("00000001 18 n 01 apple 0 001 @ 00000001 n 0000\n")
    (tmp_path / "index.noun").write_text("apple n 1 1 @ 1 0 00000001\n")
    with pytest.raises(DataFormatError, match="no gloss separator"):
        load_noun_index(tmp_path)


def test_wndb_dangling_offset(tmp_path):
    (tmp_path / "data.noun").write_text(
        "00000001 18 n 01 apple 0 001 @ 00000001 n 0000 | a fruit\n"
    )
    (tmp_path / "index.noun").write_text("apple n 2 1 @ 2 0 00000001 00000099\n")
    with pytest.raises(DataFormatError, match="00000099|99"):
        load_noun_index(tmp_path)


def test_wndb_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_noun_index(tmp_path)


def _full_wndb_dir():
    candidates = [os.environ.get("LEXGENDER_WNDB_DIR", "")]
    candidates += ["/usr/share/wordnet", "/usr/local/share/wordnet/dict"]
    for candidate in candidates:
        if candidate and (Path(candidate) / "index.noun").exists():
            return candidate
    return None


@pytest.mark.skipif(
    _full_wndb_dir() is None,
    reason="no full WordNet database available (set LEXGENDER_WNDB_DIR)",
)
def test_full_wndb_smoke():
    index = load_noun_index(_full_wndb_dir())
    assert len(index) > 100_000
    assert "nun" in index and "crew" in index


def test_wndb_rejects_non_noun_synset(tmp_path):
    (tmp_path / "data.noun").write_text(
        "00000001 18 v 01 run 0 001 @ 00000001 v 0000 | move fast\n"
    )
    (tmp_path / "index.noun").write_text("run n 1 1 @ 1 0 00000001\n")
    with pytest.raises(DataFormatError, match="not a noun"):
        load_noun_index(tmp_path)


# --- HTML extraction --------------------------------------------------------


def test_mw_page_definitions_in_order(tests_data):
    html = (tests_data / "html" / "mw_nun.html").read_text()
    definitions = extract_definitions_html(html, "mw")
    assert definitions[0] == "a woman belonging to a religious order"
    assert definitions == [
        "a woman belonging to a religious order",
        "a pigeon with a crest of feathers on the head",
    ]


def test_mw_page_excludes_verb_section(tests_data):
    html = (tests_data / "html" / "mw_nun.html").read_text()
    assert "to make a nun of" not in extract_definitions_html(html, "mw")


def test_mw_six_senses_page_order(tests_data):
    html = (tests_data / "html" / "mw_six_senses.html").read_text()
    definitions = extract_definitions_html(html, "mw")
    assert len(definitions) == 6
    assert definitions[0] == "a reward of victory or mark of honor"
    assert definitions[1] == "a royal or imperial headdress worn as a symbol of sovereignty"
    assert definitions[-1] == "a British coin worth five shillings"


def test_dcom_page_noun_section_only(tests_data):
    html = (tests_data / "html" / "dcom_nun.html").read_text()
    definitions = extract_definitions_html(html, "dcom")
    assert definitions == [
        "a woman member of a religious order, especially one bound by vows of "
        "poverty, chastity, and obedience",
    ]


def test_empty_html_is_transport_error():
    with pytest.raises(TransportError):
        extract_definitions_html("", "mw")
    with pytest.raises(TransportError):
        extract_definitions_html("   \n ", "dcom")


def test_definitionless_page_returns_empty():
    html = "<html><body><p>word not in this dictionary</p></body></html>"
    assert extract_definitions_html(html, "mw") == []


def test_unknown_dialect_rejected():
    with pytest.raises(ValueError):
        extract_definitions_html("<html></html>", "oed")


# --- live provider with cache ----------------------------------------------


def _mw_page(*senses):
    body = "".join(
        f'<div class="sb"><span class="dtText"><strong class="mw_t_bc">: </strong>{s}</span></div>'
        for s in senses
    )
    return (
        '<html><body><div class="entry"><span class="fl">noun</span>'
        f'<div class="vg">{body}</div></div></body></html>'
    )


class StubSession:
    def __init__(self, pages, status=200, exc=None):
        self.pages = pages
        self.status = status
        self.exc = exc
        self.calls = 0

    def get(self, url, headers=None, timeout=None):
        self.calls += 1
        if self.exc is not None:
            raise self.exc
        word = unquote(url.rsplit("/", 1)[1])
        if word not in self.pages:
            return SimpleNamespace(status_code=404, text="")
        return SimpleNamespace(status_code=self.status, text=self.pages[word])


def _live(tmp_path, session, provider_id="merriam_webster"):
    return CachedHttpProvider(
        provider_id,
        cache_root=tmp_path,
        min_request_interval=0.001,
        session=session,
    )


def test_live_provider_rejects_bad_config(tmp_path):
    with pytest.raises(ValueError, match="no site configured"):
        _live(tmp_path, StubSession({}), provider_id="carrier_pigeon")
    with pytest.raises(ValueError, match="min_request_interval must be > 0"):
        CachedHttpProvider("merriam_webster", tmp_path, min_request_interval=0, session=StubSession({}))


def test_live_lookup_parses_and_caches(tmp_path):
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    provider = _live(tmp_path, session)
    found = provider.lookup("nun")
    assert found.definitions == ("a woman belonging to a religious order",)
    assert cache_file(tmp_path, "merriam_webster", "nun").exists()


def test_cache_coherence_single_request(tmp_path):
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    provider = _live(tmp_path, session)
    provider.lookup("nun")
    provider.lookup("nun")
    assert session.calls == 1
    # a second provider instance over the same cache needs no network at all
    other = _live(tmp_path, StubSession({}))
    assert other.lookup("nun").definitions == ("a woman belonging to a religious order",)
    assert other.request_count == 0


def test_live_not_found_is_cached_not_error(tmp_path):
    session = StubSession({})
    provider = _live(tmp_path, session)
    assert provider.lookup("qzxv") is None
    assert provider.lookup("qzxv") is None
    assert session.calls == 1


def test_network_failure_is_transport_error(tmp_path):
    session = StubSession({}, exc=requests.exceptions.ConnectionError("boom"))
    provider = _live(tmp_path, session)
    with pytest.raises(TransportError):
        provider.lookup("nun")
    # nothing cached: a later attempt may succeed
    assert not cache_file(tmp_path, "merriam_webster", "nun").exists()


def test_http_error_status_is_transport_error(tmp_path):
    session = StubSession({"nun": _mw_page("x")}, status=503)
    provider = _live(tmp_path, session)
    with pytest.raises(TransportError):
        provider.lookup("nun")


def test_cache_filename_percent_encodes(tmp_path):
    path = cache_file(tmp_path, "merriam_webster", "single person")
    assert path.name == "single%20person.json"


def test_cache_entry_schema_matches_snapshot_entry(tmp_path):
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    provider = _live(tmp_path, session)
    provider.lookup("nun")
    entry = json.loads(cache_file(tmp_path, "merriam_webster", "nun").read_text())
    assert entry == {"found": True, "definitions": ["a woman belonging to a religious order"]}


def test_concurrent_lookups_share_cache(tmp_path):
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    provider = _live(tmp_path, session)
    results = []

    def work():
        results.append(provider.lookup("nun"))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(r.definitions == ("a woman belonging to a religious order",) for r in results)


def test_lookup_precondition():
    provider = SnapshotProvider.__new__(SnapshotProvider)  # bypass file load
    provider._entries = {}
    provider.provider_id = "stub"
    for bad in ("", " nun", "Nun"):
        with pytest.raises(ValueError):
            provider.lookup(bad)


# --- snapshots ----------------------------------------------------------------


def test_snapshot_roundtrip_identity(tmp_path, wordnet):
    words = ["nun", "monk", "crew", "widow", "qzxv", "table"]
    snapshot_write(wordnet, words, tmp_path / "wn.json")
    snap = SnapshotProvider(tmp_path / "wn.json")
    assert snap.provider_id == wordnet.provider_id
    for word in words:
        assert snap.lookup(word) == wordnet.lookup(word)


def test_snapshot_records_not_found_explicitly(tmp_path, wordnet):
    snapshot = snapshot_write(wordnet, ["nun", "qzxv"], tmp_path / "wn.json")
    assert snapshot["entries"]["qzxv"] == {"found": False, "definitions": []}
    assert len(snapshot["entries"]) == 2


def test_snapshot_absent_key_is_not_found(tmp_path, wordnet):
    snapshot_write(wordnet, ["nun"], tmp_path / "wn.json")
    snap = SnapshotProvider(tmp_path / "wn.json")
    assert snap.lookup("qzxv") is None


def test_snapshot_bad_file_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"provider\": \"x\"}")
    with pytest.raises(DataFormatError):
        SnapshotProvider(bad)
    bad.write_text("not json")
    with pytest.raises(DataFormatError):
        SnapshotProvider(bad)
    bad.write_text('{"provider": "x", "entries": []}')
    with pytest.raises(DataFormatError):
        SnapshotProvider(bad)
    bad.write_bytes(b'{"provider": "x", "entries": {"caf\xe9": {"found": false, "definitions": []}}}')
    with pytest.raises(DataFormatError, match=r"bad\.json: not UTF-8 text"):
        SnapshotProvider(bad)


def _snapshot_file(tmp_path, entry):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps({"provider": "x", "entries": {"nun": entry}}))
    return path


def test_snapshot_entry_without_found_rejected(tmp_path):
    with pytest.raises(DataFormatError, match="'nun'"):
        SnapshotProvider(_snapshot_file(tmp_path, {"definitions": ["a woman"]}))


def test_snapshot_definitions_string_rejected(tmp_path):
    # a bare string would otherwise be split into one-character definitions
    with pytest.raises(DataFormatError, match="'nun'"):
        SnapshotProvider(_snapshot_file(tmp_path, {"found": True, "definitions": "a man"}))


MALFORMED_ENTRIES = [
    None,
    ["a woman"],
    {"found": "yes", "definitions": []},
    {"found": True},
    {"found": True, "definitions": ["a woman", 3]},
    [],
    {"found": True, "definitions": "a woman"},
    {"found": True, "definitions": [1, 2]},
]


@pytest.mark.parametrize("entry", MALFORMED_ENTRIES)
def test_snapshot_malformed_entries_rejected(tmp_path, entry):
    with pytest.raises(DataFormatError):
        SnapshotProvider(_snapshot_file(tmp_path, entry))


UNDECODABLE_ENTRY = b'{"found": true, "definitions": ["a nun\xff"]}'


@pytest.mark.parametrize(
    "entry", [*MALFORMED_ENTRIES, pytest.param(UNDECODABLE_ENTRY, id="undecodable")]
)
def test_cache_malformed_entries_rejected(tmp_path, entry):
    path = cache_file(tmp_path, "merriam_webster", "nun")
    path.parent.mkdir(parents=True)
    if entry is UNDECODABLE_ENTRY:
        path.write_bytes(entry)
        match = r"nun\.json: not UTF-8 text"
    else:
        path.write_text(json.dumps(entry))
        match = "'nun'"
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    with pytest.raises(DataFormatError, match=match):
        _live(tmp_path, session).lookup("nun")
    assert session.calls == 0  # a corrupt entry is reported, never silently refetched


def test_bundled_snapshots_cover_gold(bundled_providers, gold):
    words = {entry.word for entry in gold}
    for provider in bundled_providers:
        assert {w for w in words if provider.lookup(w)} , provider.provider_id


def test_bundled_wordnet_snapshot_matches_wndb(bundled_providers, wordnet, gold):
    snapshot = next(p for p in bundled_providers if p.provider_id == "wordnet")
    for entry in gold:
        assert snapshot.lookup(entry.word) == wordnet.lookup(entry.word)
