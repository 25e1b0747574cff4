import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

from lexgender.cli import _parse_range, build_parser, main
from lexgender.core import GRID_D_RANGE, GRID_T_RANGE, GRID_W_RANGE, ClassifierParams
from lexgender.data import gold_path, snapshot_path, toy_corpus_path, wndb_dir
from lexgender.providers import cache_file

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_nun_bundled(capsys):
    code, out, _ = run(capsys, "classify", "nun")
    assert code == 0
    assert "fem" in out
    assert "dictionary" in out


def test_classify_businessman_suffix_route(capsys):
    code, out, _ = run(capsys, "classify", "--format", "tsv", "businessman")
    assert code == 0
    assert out.strip() == "businessman\tmasc\tsuffix_heuristic"


def test_classify_unknown_word_not_found_exit_zero(capsys):
    code, out, _ = run(capsys, "classify", "--offline", "qzxv")
    assert code == 0
    assert "not_found" in out


def test_classify_json_deterministic(capsys):
    code, first, _ = run(capsys, "classify", "--format", "json", "nun", "crew")
    code2, second, _ = run(capsys, "classify", "--format", "json", "nun", "crew")
    assert code == code2 == 0
    assert first == second
    rows = json.loads(first)
    assert rows[0]["word"] == "nun"
    assert rows[0]["combined"] == "fem"
    assert len(rows[0]["providers"]) == 3


def test_classify_requires_words(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1
    assert "no words" in err


def test_classify_words_from_file(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("nun\nmonk\n")
    code, out, _ = run(capsys, "classify", "--format", "tsv", "--words-from", str(path))
    assert code == 0
    assert out.count("\n") == 2


def test_classify_jobs_flag(capsys):
    code, out, _ = run(capsys, "classify", "--jobs", "3", "--format", "tsv", "nun", "monk", "crew")
    assert code == 0
    assert [line.split("\t")[0] for line in out.strip().splitlines()] == ["nun", "monk", "crew"]


def test_offline_forbids_live(capsys):
    code, _, err = run(capsys, "classify", "--offline", "--live", "merriam_webster", "nun")
    assert code == 1
    assert "forbids" in err


def test_offline_never_touches_network(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("network touched in offline mode")

    monkeypatch.setattr(requests.Session, "get", explode)
    monkeypatch.setattr(requests.Session, "request", explode)
    code, out, _ = run(capsys, "classify", "--offline", "nun", "qzxv", "grand-father")
    assert code == 0


LIVE_ONLY_MODULES = ("requests", "urllib3", "concurrent.futures", "html.parser", "_markupbase")
# Modules an offline start has no use for: dataclass machinery (which pulls in
# inspect), snapshot timestamps, the WNDB cache's hashing, and the live
# sources' own modules.
UNUSED_OFFLINE_MODULES = (
    "dataclasses",
    "inspect",
    "datetime",
    "html",
    "hashlib",
    "lexgender.providers.httpdict",
    "lexgender.providers.htmlextract",
    "lexgender.providers.wndb_cache",
)


@pytest.mark.parametrize(
    "code",
    [
        "import lexgender",
        "import lexgender.cli",
        "import contextlib, io, lexgender.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert lexgender.cli.main(['evaluate', '--format', 'json']) == 0",
    ],
    ids=["import-lexgender", "import-cli", "cli-evaluate"],
)
def test_offline_start_imports_no_live_only_module(code):
    # requests and the thread pool cost about half of an offline CLI run's start-up;
    # html.parser is needed by nothing in the package; dataclasses and the live
    # sources' modules cost about a quarter of what is left
    modules = LIVE_ONLY_MODULES + UNUSED_OFFLINE_MODULES
    probe = f"{code}\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


INJECTED_SESSION_LOOKUPS = """
import sys, tempfile, types
from lexgender.providers import CachedHttpProvider

PAGE = ('<div class="entry"><span class="fl">noun</span><div class="vg"><div class="sb">'
        '<span class="dtText"><strong class="mw_t_bc">: </strong>a woman</span></div></div></div>')

class Session:
    calls = 0

    def get(self, url, headers=None, timeout=None):
        self.calls += 1
        return types.SimpleNamespace(status_code=200, text=PAGE)

session = Session()
with tempfile.TemporaryDirectory() as root:
    provider = CachedHttpProvider("merriam_webster", root, min_request_interval=0.001, session=session)
    found = [provider.lookup("nun").definitions for _ in range(2)]  # a miss, then a hit
assert found == [("a woman",)] * 2 and session.calls == 1, (found, session.calls)
print("requests" in sys.modules)
"""


def test_injected_session_imports_no_requests():
    # a session passed in cannot raise a requests error unless requests was imported
    proc = subprocess.run(
        [sys.executable, "-c", INJECTED_SESSION_LOOKUPS],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_duplicate_provider_ids_rejected(capsys):
    snapshot = str(snapshot_path("wordnet"))
    code, _, err = run(capsys, "classify", "--snapshot", snapshot, "--snapshot", snapshot, "nun")
    assert code == 1
    assert "duplicate provider ids" in err


def test_evaluate_bundled_gold(capsys):
    code, out, _ = run(capsys, "evaluate")
    assert code == 0
    assert "combined" in out
    accuracy = [line for line in out.splitlines() if line.startswith("combined")][0]
    value = float(accuracy.split("acc=")[1].split()[0])
    assert value >= 0.80


def test_evaluate_json_report(capsys):
    code, out, _ = run(capsys, "evaluate", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 134
    assert set(report["per_provider"]) == {
        "wordnet", "merriam_webster", "dictionary_com", "combined",
    }
    assert report["confusion"]["gold_axis"] == ["masc", "fem", "neut"]


def test_evaluate_single_entry_gold(capsys, tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("nun\tfem\treligion\n")
    code, out, _ = run(capsys, "evaluate", "--gold", str(path))
    assert code == 0
    assert "acc=1.0000" in out


def test_evaluate_missing_gold_file(capsys, tmp_path):
    code, _, err = run(capsys, "evaluate", "--gold", str(tmp_path / "nope.tsv"))
    assert code == 1


def test_evaluate_malformed_gold_exits_3(capsys, tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("nun\tpurple\treligion\n")
    code, _, err = run(capsys, "evaluate", "--gold", str(path))
    assert code == 3
    assert "bad data" in err


def test_evaluate_offline_rejects_live(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "evaluate",
        "--offline",
        "--live", "merriam_webster",
        "--cache-root", str(tmp_path),
    )
    assert code == 1
    assert "--offline forbids --live" in err and not out


def test_grid_search_cli(capsys, tests_data):
    code, out, _ = run(
        capsys,
        "grid-search",
        "--gold", str(tests_data / "grid20_gold.tsv"),
        "--snapshot", str(tests_data / "grid20_alpha.json"),
        "--snapshot", str(tests_data / "grid20_beta.json"),
        "--d-range", "2..3",
        "--t-range", "5,10",
        "--w-range", "2..3",
    )
    assert code == 0
    assert "best: d=" in out
    # full table: header + 8 cells + best line
    assert len(out.strip().splitlines()) == 10


def test_grid_search_empty_range_exits_1(capsys):
    code, out, err = run(capsys, "grid-search", "--d-range", "3..2")
    assert code == 1
    assert "empty grid" in err
    assert "Traceback" not in err and not out


@pytest.mark.parametrize("option, value", [("--d-range", "x..3"), ("--t-range", "5,,10")])
def test_grid_search_bad_range_names_its_option(capsys, option, value):
    code, out, err = run(capsys, "grid-search", option, value)
    assert code == 1
    assert f"argument {option}: invalid range {value!r}" in err
    assert "Traceback" not in err and not out


def test_grid_search_span_range_is_not_expanded():
    # a huge --d-range reaches grid_search's cell limit without building its values
    assert _parse_range("2..10") == range(2, 11)
    assert _parse_range("5,10,15") == (5, 10, 15)


def test_option_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["grid-search"])
    assert (tuple(args.d_range), tuple(args.t_range), tuple(args.w_range)) == (
        GRID_D_RANGE,
        GRID_T_RANGE,
        GRID_W_RANGE,
    )
    for argv in (["classify", "nun"], ["evaluate"], ["corpus-report", "toy.tsv"]):
        args = parser.parse_args(argv)
        assert ClassifierParams(args.d, args.t, args.w) == ClassifierParams()


@pytest.mark.parametrize(
    "subcommand, shown",
    [
        ("grid-search", ["definitions range (default 2..10)", "token range (default 5,10,15,20,25,30,35)",
                         "seed-pair range (default 2..8)"]),
        ("evaluate", ["definitions per dictionary (default 4)", "tokens per definition (default 20)",
                      "seed pairs used (default 5)"]),
    ],
)
def test_help_shows_the_defaults(capsys, subcommand, shown):
    code, out, _ = run(capsys, subcommand, "--help")
    assert code == 0
    help_text = " ".join(out.split())  # however argparse wraps it
    for text in shown:
        assert text in help_text


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["evaluate", "--format", "json"],
            "c7f6d94ada5eec61ae1ac03842086a3804aa51bd969bedb7c22116d8daddd91a",
        ),
        (
            ["grid-search", "--format", "json"],
            "d87e86d032fcb3910695028facd720c14957f5ae0790e84ac74b7a47d2ecd116",
        ),
        (
            ["corpus-report", str(toy_corpus_path()), "--format", "json"],
            "0ccaa7852fb7acb387c8f6de48bcbd3c10590e0f21532c96920407b1a44039f0",
        ),
    ],
)
def test_golden_json_on_bundled_data(capsys, argv, sha256):
    # refactor gate: byte-identical reports, grid rows in (d, t, w) order
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_corpus_report_cli(capsys, tmp_path):
    tagged = tmp_path / "toy.tsv"
    tagged.write_text("the\tDT\nnun\tNN\n\nthe\tDT\nmonk\tNN\n\ntables\tNNS\n")
    code, out, _ = run(capsys, "corpus-report", str(tagged))
    assert code == 0
    assert "label" in out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert lines["masc"] == ["1", "0", "1"]
    assert lines["fem"] == ["1", "0", "1"]
    assert lines["not_found"] == ["0", "1", "1"]
    assert lines["all"] == ["2", "1", "3"]


def test_corpus_report_sample_out(capsys, tmp_path, toy_corpus_file):
    out_path = tmp_path / "sample.txt"
    code, _, _ = run(
        capsys, "corpus-report", str(toy_corpus_file), "--sample-out", str(out_path)
    )
    assert code == 0
    sample = out_path.read_text().split()
    assert "nun" in sample and "king" in sample
    assert "table" not in sample


def test_corpus_report_undecodable_corpus_exits_3(capsys, tmp_path):
    tagged = tmp_path / "bad.tsv"
    tagged.write_bytes(b"the\tDT\ncaf\xe9\tNN\n")
    code, out, err = run(capsys, "corpus-report", str(tagged))
    assert code == 3
    assert f"bad data: {tagged}: not UTF-8 text (byte 0xe9" in err
    assert "Traceback" not in err and not out


def test_corpus_report_malformed_line_names_file(capsys, tmp_path):
    tagged = tmp_path / "bad.tsv"
    tagged.write_text("the\tDT\nnun NN\n")
    code, out, err = run(capsys, "corpus-report", str(tagged))
    assert code == 3
    assert f"bad data: {tagged}: line 2: expected token<TAB>POS, got 'nun NN'" in err
    assert "Traceback" not in err and not out


def test_corpus_report_bad_byte_after_a_malformed_line_is_reported(capsys, tmp_path):
    # the whole corpus is read before a malformed line is reported, so a later bad byte wins
    tagged = tmp_path / "bad.tsv"
    tagged.write_bytes(b"the\tDT\nnun NN\n" + b"nun\tNN\n" * 20000 + b"caf\xe9\tNN\n")
    code, out, err = run(capsys, "corpus-report", str(tagged))
    assert code == 3
    assert f"bad data: {tagged}: not UTF-8 text (byte 0xe9" in err
    assert "Traceback" not in err and not out


def test_snapshot_cli_gold_words(capsys, tmp_path):
    out_file = tmp_path / "snap.json"
    code, out, _ = run(
        capsys,
        "snapshot",
        "--words-from", str(gold_path()),
        "--out", str(out_file),
    )
    assert code == 0
    snapshot = json.loads(out_file.read_text())
    assert len(snapshot["entries"]) == 129  # distinct words in the 134-row list
    assert "captured 129 entries" in out


def test_snapshot_cli_explicit_words_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "snap.json"
    code, _, _ = run(
        capsys, "snapshot", "nun", "monk", "qzxv",
        "--wordnet", str(wndb_dir()),
        "--out", str(out_file),
    )
    assert code == 0
    snapshot = json.loads(out_file.read_text())
    assert snapshot["provider"] == "wordnet"
    assert snapshot["entries"]["qzxv"] == {"found": False, "definitions": []}
    code, out, _ = run(
        capsys, "classify", "--snapshot", str(out_file), "--format", "tsv", "nun"
    )
    assert code == 0
    assert "fem" in out


def test_malformed_snapshot_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"provider": "x", "entries": {"nun": {"definitions": []}}}))
    code, out, err = run(capsys, "classify", "nun", "--snapshot", str(bad))
    assert code == 3
    assert "bad data" in err and "'nun'" in err
    assert not out


def test_transport_error_exit_code(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise requests.exceptions.ConnectionError("no route to host")

    monkeypatch.setattr(requests.Session, "get", refuse)
    code, _, err = run(
        capsys,
        "classify",
        "--live", "merriam_webster",
        "--cache-root", str(tmp_path),
        "--min-interval", "0.001",
        "sculptor",
    )
    assert code == 2
    assert "transport error" in err


@pytest.mark.parametrize("subcommand", ["classify", "corpus-report"])
def test_live_empty_page_exits_2_naming_provider_and_word(capsys, tmp_path, monkeypatch, subcommand):
    def empty_page(*args, **kwargs):
        return SimpleNamespace(status_code=200, text=" \n")

    monkeypatch.setattr(requests.Session, "get", empty_page)
    tagged = tmp_path / "tagged.tsv"
    tagged.write_text("the\tDT\nsculptor\tNN\n")
    code, out, err = run(
        capsys,
        subcommand, "sculptor" if subcommand == "classify" else str(tagged),
        "--live", "merriam_webster",
        "--cache-root", str(tmp_path / "cache"),
        "--min-interval", "0.001",
    )
    assert code == 2
    assert err == "lexgender: transport error: merriam_webster: empty page for 'sculptor'\n"
    assert not out


def test_live_corrupt_cache_exits_3(capsys, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("a corrupt cache entry must not be refetched")

    monkeypatch.setattr(requests.Session, "get", explode)
    path = cache_file(tmp_path, "merriam_webster", "nun")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"found": True, "definitions": "a woman"}))
    code, out, err = run(
        capsys, "classify", "--live", "merriam_webster", "--cache-root", str(tmp_path), "nun"
    )
    assert code == 3
    assert "bad data" in err and "'nun'" in err
    assert not out


def test_live_cache_entry_that_is_a_directory_exits_3(capsys, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("a cache entry that is a directory must not be refetched")

    monkeypatch.setattr(requests.Session, "get", explode)
    cache_file(tmp_path, "merriam_webster", "nun").mkdir(parents=True)
    code, out, err = run(
        capsys, "classify", "nun", "--live", "merriam_webster", "--cache-root", str(tmp_path)
    )
    assert code == 3
    assert "bad data" in err and "nun.json" in err
    assert not out


def test_live_cache_entry_that_is_a_fifo_exits_3(capsys, tmp_path, monkeypatch, make_fifo, within_5s):
    def explode(*args, **kwargs):
        raise AssertionError("a cache entry that is a FIFO must not be refetched")

    monkeypatch.setattr(requests.Session, "get", explode)
    path = cache_file(tmp_path, "merriam_webster", "nun")
    path.parent.mkdir(parents=True)
    make_fifo(path)
    code = within_5s(main, ["classify", "nun", "--live", "merriam_webster", "--cache-root", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "bad data: corrupt cache entry" in captured.err and "nun.json" in captured.err
    assert not captured.out


def test_live_cache_provider_path_a_file_exits_1_without_request(capsys, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("no request may be sent when its entry cannot be cached")

    monkeypatch.setattr(requests.Session, "get", explode)
    (tmp_path / "merriam_webster").write_text("")
    code, out, err = run(
        capsys, "classify", "nun", "--live", "merriam_webster", "--cache-root", str(tmp_path)
    )
    assert code == 1
    assert "merriam_webster" in err
    assert not out


SOURCE_OPTIONS = ("--wordnet", "--snapshot", "--live", "--cache-root", "--min-interval", "--offline")
#: Every option each subcommand takes; each one is read by its handler.
SUBCOMMAND_OPTIONS = {
    "classify": [
        "words", "--words-from", *SOURCE_OPTIONS, "-d", "-t", "-w", "--format", "--jobs",
    ],
    "evaluate": [
        "--gold", "--out", "--not-found-as-neut", *SOURCE_OPTIONS, "-d", "-t", "-w", "--format",
    ],
    "grid-search": [
        "--gold", "--d-range", "--t-range", "--w-range", *SOURCE_OPTIONS, "--format",
    ],
    "corpus-report": ["tagged", "--sample-out", *SOURCE_OPTIONS, "-d", "-t", "-w", "--format"],
    "snapshot": ["words", "--words-from", "--out", *SOURCE_OPTIONS],
}


def test_each_subcommand_takes_only_the_options_it_reads():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        name: [
            action.option_strings[0] if action.option_strings else action.dest
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, parser in subparsers.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 58
    formats = {
        name: action.choices
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        if action.dest == "format"
    }
    assert formats == {
        "classify": ("table", "json", "tsv"),
        "evaluate": ("table", "json", "tsv"),
        "grid-search": ("table", "json"),
        "corpus-report": ("table", "json"),
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grid-search", "-d", "3"], "unrecognized arguments: -d 3"),
        (["snapshot", "nun", "--out", "snap.json", "--format", "json"], "unrecognized arguments: --format"),
        (["evaluate", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
        (["corpus-report", str(toy_corpus_path()), "--format", "tsv"], "invalid choice: 'tsv'"),
    ],
    ids=["grid-search-d", "snapshot-format", "evaluate-jobs", "corpus-report-tsv"],
)
def test_unread_option_is_rejected(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert message in err
    assert not out and not list(tmp_path.iterdir())


def test_unknown_subcommand_usage_error(capsys):
    code = main(["frobnicate"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["nun", "crew", "--format", "tsv"],
        ["nun", "--format", "tsv", "crew"],
        ["--format", "tsv", "nun", "crew"],
        ["nun", "-d", "4", "--format", "tsv", "--offline", "crew"],
    ],
    ids=["words-first", "words-around-an-option", "words-last", "words-between-options"],
)
def test_classify_takes_words_on_both_sides_of_options(capsys, argv):
    code, out, err = run(capsys, "classify", *argv)
    assert code == 0, err
    assert [line.split("\t")[0] for line in out.splitlines()] == ["nun", "crew"]


def test_snapshot_takes_words_on_both_sides_of_options(capsys, tmp_path):
    out_file = tmp_path / "snap.json"
    code, _, err = run(capsys, "snapshot", "nun", "--out", str(out_file), "monk", "--wordnet", "bundled", "qzxv")
    assert code == 0, err
    assert sorted(json.loads(out_file.read_text())["entries"]) == ["monk", "nun", "qzxv"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "nun", "--bogus", "crew"], "unrecognized arguments: --bogus"),
        (["classify", "--format", "tsv"], "no words given"),
        (["snapshot", "nun", "--out", "snap.json", "--format", "json"], "unrecognized arguments: --format"),
        (["evaluate", "nun"], "unrecognized arguments: nun"),
        (["grid-search", "-d", "3"], "unrecognized arguments: -d 3"),
    ],
    ids=["classify-unknown-option", "classify-no-words", "snapshot-format", "evaluate-word", "grid-search-d"],
)
def test_usage_error_in_a_subcommand_prints_its_usage(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith(f"usage: lexgender {argv[0]} ")
    assert f"lexgender {argv[0]}: error: {message}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "nun", "-w", "9"], "w must be in 1..8, got 9"),
        (["evaluate", "-w", "9"], "w must be in 1..8, got 9"),
        (["grid-search", "--w-range", "2..9"], "w must be in 1..8, got 9"),
        (["corpus-report", "empty.tsv", "-w", "9"], "w must be in 1..8, got 9"),  # nothing to classify
        (["classify", "nun", "-w", "0"], "w must be >= 1, got 0"),
    ],
    ids=["classify-9", "evaluate-9", "grid-search-9", "corpus-report-9", "classify-0"],
)
def test_w_outside_the_default_lexicon_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"lexgender: {message}\n")


def test_usage_error_before_a_subcommand_prints_the_top_usage(capsys):
    code, out, err = run(capsys, "frobnicate", "nun")
    assert code == 1 and not out
    assert err.startswith("usage: lexgender [-h]\n")
    assert "invalid choice: 'frobnicate'" in err
