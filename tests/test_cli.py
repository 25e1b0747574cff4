import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from lexgender.cli import main
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
# inspect), snapshot timestamps, and the live sources' own modules.
UNUSED_OFFLINE_MODULES = (
    "dataclasses",
    "inspect",
    "datetime",
    "html",
    "lexgender.providers.httpdict",
    "lexgender.providers.htmlextract",
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


def test_evaluate_strict_repro_rejects_live(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "evaluate",
        "--strict-repro",
        "--live", "merriam_webster",
        "--cache-root", str(tmp_path),
    )
    assert code == 1
    assert "strict-repro" in err


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


def test_unknown_subcommand_usage_error(capsys):
    code = main(["frobnicate"])
    assert code == 1
