import errno
import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import unquote

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexgender.errors import DataFormatError, TransportError
from lexgender.providers import (
    SITES,
    CachedHttpProvider,
    SnapshotProvider,
    WordNetProvider,
    cache_file,
    check_word,
    extract_definitions_html,
    load_noun_index,
    snapshot_write,
)
from lexgender.providers.httpdict import _MISSING, _READ_SIZE, read_entry, write_entry_atomic

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
    with pytest.raises(TransportError, match=r"^merriam_webster: request for 'nun' failed: boom$"):
        provider.lookup("nun")
    # nothing cached: a later attempt may succeed
    assert not cache_file(tmp_path, "merriam_webster", "nun").exists()


def test_a_session_error_not_from_requests_is_transport_error(tmp_path):
    # an injected session may raise a plain OSError, which no requests error class covers
    provider = _live(tmp_path, StubSession({}, exc=TimeoutError("timed out")))
    with pytest.raises(TransportError, match=r"^merriam_webster: request for 'nun' failed: timed out$") as excinfo:
        provider.lookup("nun")
    assert isinstance(excinfo.value.__cause__, TimeoutError)
    assert not cache_file(tmp_path, "merriam_webster", "nun").exists()


def test_http_error_status_is_transport_error(tmp_path):
    session = StubSession({"nun": _mw_page("x")}, status=503)
    provider = _live(tmp_path, session)
    with pytest.raises(TransportError, match=r"^merriam_webster: HTTP 503 for 'nun'$"):
        provider.lookup("nun")


@pytest.mark.parametrize("page", ["", "   \n "], ids=["empty", "whitespace"])
@pytest.mark.parametrize("provider_id", sorted(SITES))
def test_empty_page_is_transport_error(tmp_path, provider_id, page):
    provider = _live(tmp_path, StubSession({"nun": page}), provider_id)
    with pytest.raises(TransportError) as excinfo:
        provider.lookup("nun")
    assert str(excinfo.value) == f"{provider_id}: empty page for 'nun'"
    # nothing cached: a later attempt may succeed
    assert not cache_file(tmp_path, provider_id, "nun").exists()


def test_cache_filename_percent_encodes(tmp_path):
    path = cache_file(tmp_path, "merriam_webster", "single person")
    assert path.name == "single%20person.json"


def test_cache_filename_of_long_word_is_bounded(tmp_path):
    longest = "a" * 250  # the longest name kept as it is
    assert cache_file(tmp_path, "merriam_webster", longest).name == longest + ".json"
    names = {cache_file(tmp_path, "merriam_webster", word).name for word in ("a" * 251, "a" * 252, "é" * 50)}
    assert len(names) == 3
    for name in names:
        assert len(name.encode()) == 255 and "=" in name


def test_long_word_is_cached(tmp_path):
    word = "é" * 50  # percent-encoded, 300 bytes: longer than a file name may be
    session = StubSession({word: _mw_page("a woman belonging to a religious order")})
    assert _live(tmp_path, session).lookup(word).definitions == ("a woman belonging to a religious order",)
    assert session.calls == 1
    assert cache_file(tmp_path, "merriam_webster", word).exists()
    other = _live(tmp_path, StubSession({}))
    assert other.lookup(word).definitions == ("a woman belonging to a religious order",)
    assert other.request_count == 0


def test_cache_entry_schema_matches_snapshot_entry(tmp_path):
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    provider = _live(tmp_path, session)
    provider.lookup("nun")
    entry = json.loads(cache_file(tmp_path, "merriam_webster", "nun").read_text())
    assert entry == {"found": True, "definitions": ["a woman belonging to a religious order"]}


class SlowSession(StubSession):
    """A stub whose every response takes ``delay`` seconds, as a network round trip would."""

    def __init__(self, pages, delay):
        super().__init__(pages)
        self.delay = delay

    def get(self, url, headers=None, timeout=None):
        time.sleep(self.delay)
        return super().get(url, headers, timeout)


def test_concurrent_lookups_share_cache(tmp_path):
    # four callers miss on one word at once: one request, and every caller gets its entry
    session = SlowSession({"nun": _mw_page("a woman belonging to a religious order")}, delay=0.05)
    provider = _live(tmp_path, session)
    start = threading.Barrier(4)
    results = []

    def work():
        start.wait()
        results.append(provider.lookup("nun"))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert session.calls == 1 and provider.request_count == 1
    assert [r.definitions for r in results] == [("a woman belonging to a religious order",)] * 4


class BlockingSession(StubSession):
    """A stub whose requests wait until ``release`` is set, and report when they start."""

    def __init__(self, pages):
        super().__init__(pages)
        self.started = threading.Event()
        self.release = threading.Event()

    def get(self, url, headers=None, timeout=None):
        self.started.set()
        if not self.release.wait(5):
            raise TimeoutError("the test never released the request")
        return super().get(url, headers, timeout)


def test_warm_hit_does_not_wait_for_a_fetch(tmp_path):
    _live(tmp_path, StubSession({"nun": _mw_page("a woman belonging to a religious order")})).lookup("nun")
    session = BlockingSession({"monk": _mw_page("a man belonging to a religious order")})
    provider = _live(tmp_path, session)
    missed, hit = [], []
    miss = threading.Thread(target=lambda: missed.append(provider.lookup("monk")), daemon=True)
    miss.start()
    try:
        assert session.started.wait(5)  # the miss holds the fetch lock, inside session.get
        warm = threading.Thread(target=lambda: hit.append(provider.lookup("nun")), daemon=True)
        warm.start()
        warm.join(5)
        assert not warm.is_alive(), "a warm hit waited for another word's fetch"
        assert hit[0].definitions == ("a woman belonging to a religious order",)
    finally:
        session.release.set()
        miss.join(5)
    assert not miss.is_alive() and missed[0].definitions == ("a man belonging to a religious order",)
    assert session.calls == 1


def test_cache_entry_that_is_a_directory_is_data_error(tmp_path):
    path = cache_file(tmp_path, "merriam_webster", "nun")
    path.mkdir(parents=True)
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        _live(tmp_path, session).lookup("nun")
    assert session.calls == 0


@pytest.mark.parametrize("idle_writer", [False, True], ids=["no writer", "idle writer"])
def test_cache_entry_that_is_a_fifo_is_data_error_not_a_hang(tmp_path, make_fifo, within_5s, idle_writer):
    path = cache_file(tmp_path, "merriam_webster", "nun")
    path.parent.mkdir(parents=True)
    make_fifo(path, idle_writer)
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    with pytest.raises(DataFormatError, match=rf"^corrupt cache entry {re.escape(str(path))}: "):
        within_5s(_live(tmp_path, session).lookup, "nun")
    assert session.calls == 0


@pytest.mark.parametrize("blocked", ["cache root", "provider directory"])
def test_unusable_cache_directory_fails_before_the_request(tmp_path, blocked):
    root = tmp_path / "cache"
    if blocked == "cache root":
        root.write_text("")
    else:
        root.mkdir()
        (root / "merriam_webster").write_text("")
    session = StubSession({"nun": _mw_page("a woman belonging to a religious order")})
    with pytest.raises(OSError):
        _live(root, session).lookup("nun")
    assert session.calls == 0  # the answer would be thrown away: the entry cannot be written


def _lookup_word(word: str) -> bool:
    try:
        return check_word(word) == word
    except ValueError:
        return False


@settings(max_examples=150, deadline=None)
@given(st.text(min_size=1, max_size=12).filter(_lookup_word))
@example("single person")
@example("a/b")
@example("100%")
@example("%2f")
@example(".")
@example("..")
@example("caf\u00e9")
@example("\u00f1and\u00fa \u65e5\u672c")
def test_a_miss_writes_the_public_cache_file(word):
    page = _mw_page("a person")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        found = _live(root, StubSession({word: page})).lookup(word)
        assert found.definitions == ("a person",)
        assert [p for p in root.rglob("*") if p.is_file()] == [cache_file(root, "merriam_webster", word)]
        reader = StubSession({}, exc=AssertionError("a cached word was requested"))
        assert _live(root, reader).lookup(word) == found
        assert reader.calls == 0


#: Words and their cache file names, as the cache layout has always written them.
CACHE_NAMES = {
    "nun": "nun.json",
    "single person": "single%20person.json",
    "a/b": "a%2Fb.json",
    "100%": "100%25.json",
    "..": "...json",
    "caf\u00e9": "caf%C3%A9.json",
}


def test_cache_in_the_published_layout_is_read_without_requests(tmp_path):
    for provider_id in SITES:
        (tmp_path / provider_id).mkdir()
        for word, name in CACHE_NAMES.items():
            entry = {"found": True, "definitions": [f"{provider_id} sense of {word}"]}
            (tmp_path / provider_id / name).write_text(json.dumps(entry), encoding="utf-8")
    session = StubSession({}, exc=AssertionError("a cached word was requested"))
    for provider_id in SITES:
        provider = _live(tmp_path, session, provider_id)
        for word, name in CACHE_NAMES.items():
            assert cache_file(tmp_path, provider_id, word) == tmp_path / provider_id / name
            assert provider.lookup(word).definitions == (f"{provider_id} sense of {word}",)
    assert session.calls == 0


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


@pytest.mark.parametrize("key", ["Monk", " friar", ""])
def test_snapshot_key_that_is_no_lookup_word_rejected(tmp_path, key):
    # such a key could never be looked up, so it would load silently and count toward len
    path = tmp_path / "snap.json"
    path.write_text(json.dumps({"provider": "x", "entries": {key: {"found": True, "definitions": ["a monk"]}}}))
    with pytest.raises(DataFormatError, match=rf"snap\.json: key {re.escape(repr(key))} is not"):
        SnapshotProvider(path)


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


# --- cache entry bytes ---------------------------------------------------------


def _text_mode_read_entry(path: str) -> object:
    """The cache reader as it was: a text-mode UTF-8 file handed to ``json.load``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        return _MISSING
    except IsADirectoryError as exc:
        raise DataFormatError(f"corrupt cache entry {path}: a directory, not a file") from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DataFormatError(f"{path}: not UTF-8 text (byte {bad:#04x}: {exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"corrupt cache entry {path}: {exc}") from exc


def _streamed_write(path: str, entry: dict) -> None:
    """The cache writer as it was: ``json.dump`` streamed into a text-mode UTF-8 file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, ensure_ascii=False)


def _outcome(reader, path: str) -> tuple[str, str]:
    try:
        value = reader(path)
    except DataFormatError as exc:
        return "error", str(exc)
    return ("missing", "") if value is _MISSING else ("value", repr(value))


_JSON_POSITION = re.compile(r"line \d+ column \d+ \(char \d+\)")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
ENTRIES = st.builds(
    lambda found, definitions: {"found": found, "definitions": definitions},
    st.booleans(),
    st.lists(st.text(), max_size=3),
)
# one definition near or over _READ_SIZE (64 KiB), so that its entry takes more than one os.read;
# multi-byte units put characters across the boundary between two reads
LONG_ENTRIES = st.builds(
    lambda unit, extra: {"found": True, "definitions": [unit * ((_READ_SIZE + extra) // len(unit.encode()))]},
    st.sampled_from(["a", "\u00e9", "\u65e5", "\U0001f600"]),
    st.integers(-64, 4096),
)
# invalid or truncated UTF-8, a BOM, line ends and bytes that end a JSON string
FRAGMENTS = st.sampled_from(
    [b"\xff", b"\x80", b"\xc3", b"\xe6\x97", b"\xf0\x9f\x98", b"\xed\xa0\x80", b"\xc0\xaf",
     b"\xef\xbb\xbf", b"\r", b"\r\n", b"\x00", b'"', b"\\"]
) | st.binary(min_size=1, max_size=4)


@st.composite
def entry_bytes(draw) -> bytes:
    """Bytes of a cache entry: JSON as the cache writes it or indented, with any line end,
    then at the start, middle, end or anywhere else, cut short or given a fragment."""
    value = draw(st.one_of(ENTRIES, JSON_VALUES, LONG_ENTRIES))
    text = json.dumps(value, ensure_ascii=draw(st.booleans()), indent=draw(st.sampled_from([None, 1])))
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))  # raw newlines are whitespace only
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.sampled_from([0, len(data) // 2, len(data), min(len(data), _READ_SIZE)]) | st.integers(0, len(data)))
        data = data[:at] + draw(FRAGMENTS) + data[at:] if draw(st.booleans()) else data[:at]
    return data


_LONG_UTF8 = json.dumps({"found": True, "definitions": ["\u65e5" * 30000]}, ensure_ascii=False).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(st.one_of(entry_bytes(), st.binary(max_size=64)))
@example(b"null")
@example(b"")
@example(b"\xef\xbb\xbf" + b'{"found": false, "definitions": []}')
@example(b'{"found": true,\r\n "definitions": ["a nun"]}\r\n')
@example(b'{"found": true,\r\n "definitions": ["a\rnun"]}')
@example(UNDECODABLE_ENTRY)
@example(b"\xc3" + b'{"found": false, "definitions": []}')
@example(b'{"found": false, "definitions": []}\xe6\x97')
@example(_LONG_UTF8)
@example(_LONG_UTF8[:_READ_SIZE + 1] + b"\xff" + _LONG_UTF8[_READ_SIZE + 1:])
@example(_LONG_UTF8[:-3])
@example('{"found": false, "definitions": []}'.encode("utf-16"))
@example('{"found": false, "definitions": []}'.encode("utf-16-le"))
@example('{"found": false, "definitions": []}'.encode("utf-32"))
def test_byte_reader_matches_the_text_mode_reader(data):
    """``read_entry`` gives the value, or the DataFormatError message, of the text-mode reader.

    One difference is admitted. Text mode turned each "\\r\\n" and "\\r" into "\\n",
    and bytes are read as they are, so in a file that holds "\\r" the line, column and
    char numbers of a JSON error may differ. No parse can change its outcome by it:
    "\\r" and "\\n" are both whitespace between tokens and both forbidden in strings.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nun.json")
        with open(path, "wb") as fh:
            fh.write(data)
        new, old = _outcome(read_entry, path), _outcome(_text_mode_read_entry, path)
    if b"\r" in data and new[0] == old[0] == "error":
        new, old = [(kind, _JSON_POSITION.sub("<position>", message)) for kind, message in (new, old)]
    assert new == old


def test_byte_reader_of_a_directory_or_a_path_under_a_file(tmp_path):
    entry = tmp_path / "nun.json"
    entry.mkdir()
    with pytest.raises(DataFormatError, match=r"nun\.json: a directory, not a file"):
        read_entry(str(entry))
    assert _outcome(read_entry, str(entry)) == _outcome(_text_mode_read_entry, str(entry))
    (tmp_path / "file").write_text("{}")
    under = str(tmp_path / "file" / "nun.json")
    assert read_entry(under) is _MISSING and _text_mode_read_entry(under) is _MISSING


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_cached_lookups_leak_no_descriptor(tmp_path):
    provider = _live(tmp_path, StubSession({"nun": _mw_page("a woman belonging to a religious order")}))
    provider.lookup("nun")
    cache_file(tmp_path, "merriam_webster", "monk").mkdir()
    before = sorted(os.listdir("/proc/self/fd"))
    for i in range(200):
        assert provider.lookup("nun") is not None  # a hit
        assert provider.lookup(f"qzxv{i}") is None  # a miss, fetched and written
        with pytest.raises(DataFormatError):
            provider.lookup("monk")  # an entry that opens but cannot be read
    assert sorted(os.listdir("/proc/self/fd")) == before


@settings(max_examples=100, deadline=None)
@given(st.one_of(ENTRIES, LONG_ENTRIES))
@example({"found": True, "definitions": ["caf\u00e9 \U0001f600 \"quoted\"\n\t\x00 \\"]})
def test_written_entry_bytes_match_the_streamed_writer(entry):
    with tempfile.TemporaryDirectory() as tmp:
        written, streamed = os.path.join(tmp, "nun.json"), os.path.join(tmp, "streamed")
        write_entry_atomic(written, entry)
        _streamed_write(streamed, entry)
        with open(written, "rb") as a, open(streamed, "rb") as b:
            assert a.read() == b.read()


def test_entry_write_survives_short_writes(tmp_path, monkeypatch):
    entry = {"found": True, "definitions": ["\u65e5" * 1000, "a nun"]}
    real_write, calls = os.write, []

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    write_entry_atomic(str(tmp_path / "nun.json"), entry)
    monkeypatch.undo()
    _streamed_write(str(tmp_path / "streamed"), entry)
    assert (tmp_path / "nun.json").read_bytes() == (tmp_path / "streamed").read_bytes()
    assert len(calls) > 400


def test_failed_entry_write_leaves_the_old_entry_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "nun.json"
    write_entry_atomic(str(path), {"found": False, "definitions": []})

    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    with pytest.raises(OSError, match="No space left"):
        write_entry_atomic(str(path), {"found": True, "definitions": ["a nun"]})
    assert [p.name for p in tmp_path.iterdir()] == ["nun.json"]
    assert json.loads(path.read_bytes()) == {"found": False, "definitions": []}


def test_bundled_snapshots_cover_gold(bundled_providers, gold):
    words = {entry.word for entry in gold}
    for provider in bundled_providers:
        assert {w for w in words if provider.lookup(w)} , provider.provider_id


def test_bundled_wordnet_snapshot_matches_wndb(bundled_providers, wordnet, gold):
    snapshot = next(p for p in bundled_providers if p.provider_id == "wordnet")
    for entry in gold:
        assert snapshot.lookup(entry.word) == wordnet.lookup(entry.word)
