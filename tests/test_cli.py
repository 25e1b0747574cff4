import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

import lexgender
import lexgender.data
import lexgender.providers
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


def test_offline_forbids_live(capsys):
    code, _, err = run(capsys, "classify", "--offline", "--live", "merriam_webster", "nun")
    assert code == 1
    assert "forbids" in err


def test_offline_with_live_is_rejected_before_any_source_loads(capsys, tmp_path):
    wndb = tmp_path / "wndb"
    wndb.mkdir()
    for name in ("data.noun", "index.noun"):  # not an index cache an earlier run left there
        shutil.copy(wndb_dir() / name, wndb)
    code, out, err = run(
        capsys, "classify", "--wordnet", str(wndb), "--live", "merriam_webster", "--offline", "nun"
    )
    assert code == 1 and not out
    assert "--offline forbids --live sources" in err
    assert sorted(path.name for path in wndb.iterdir()) == ["data.noun", "index.noun"]  # no index cache


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
)


def _fresh_interpreter(code: str) -> str:
    """What ``code`` prints, run in a new interpreter on this checkout's ``src``."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _cli_run(*argv: str) -> str:
    """Code that runs the CLI with ``argv`` in the probing interpreter, its report discarded."""
    return (
        "import contextlib, io, lexgender.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert lexgender.cli.main({list(argv)!r}) == 0"
    )


def _modules_loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a new interpreter holds after running ``code``."""
    return json.loads(_fresh_interpreter(
        f"{code}\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    ))


@pytest.mark.parametrize(
    "code",
    ["import lexgender", "import lexgender.cli", _cli_run("evaluate", "--format", "json")],
    ids=["import-lexgender", "import-cli", "cli-evaluate"],
)
def test_offline_start_imports_no_live_only_module(code):
    # requests and the thread pool cost about half of an offline CLI run's start-up;
    # html.parser is needed by nothing in the package; dataclasses and the live
    # sources' modules cost about a quarter of what is left
    assert _modules_loaded(code, LIVE_ONLY_MODULES + UNUSED_OFFLINE_MODULES) == []


# Modules only some commands read; without bytecode caches each is compiled
# again by every start that imports it.
PER_COMMAND_MODULES = ("lexgender.evaluation", "lexgender.corpus", "lexgender.providers.wndb")


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import lexgender", []),
        ("import lexgender.cli", []),
        (_cli_run("classify", "--format", "json", "nun"), []),
        (_cli_run("evaluate", "--format", "json"), ["lexgender.evaluation"]),
        (_cli_run("corpus-report", str(toy_corpus_path())), ["lexgender.corpus"]),
        (_cli_run("classify", "--wordnet", "{wndb}", "nun"), ["lexgender.providers.wndb"]),
    ],
    ids=["import-lexgender", "import-cli", "classify", "evaluate", "corpus-report", "classify-wordnet"],
)
def test_a_cold_command_imports_only_the_modules_it_reads(code, loaded, bundled_wndb):
    assert _modules_loaded(code.replace("{wndb}", str(bundled_wndb)), PER_COMMAND_MODULES) == loaded


# Each package's names are resolved first, in a new interpreter, and only then
# compared with the modules that define them.
LAZY_NAMES_PROBE = """
import importlib, json
homes = {
    "lexgender": ("classifier", "core", "errors"),
    "lexgender.providers": ("base", "snapshot", "wndb", "httpdict", "htmlextract"),
}
resolved = {}
for package in homes:
    if MODE == "star":
        names = {}
        exec(f"from {package} import *", names)
    else:
        module = importlib.import_module(package)
        names = {name: getattr(module, name) for name in module.__all__}
    resolved[package] = names
wrong = []
for package, modules in homes.items():
    names = resolved[package]
    defined = [vars(importlib.import_module(f"{package}.{m}")) for m in modules]
    for name in importlib.import_module(package).__all__:
        held = [namespace[name] for namespace in defined if name in namespace]
        if name not in names or not held or any(value is not names[name] for value in held):
            wrong.append(f"{package}.{name}")
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("mode", ["getattr", "star"])
def test_every_public_name_resolves_to_its_defining_module(mode):
    # lexgender.providers serves its WNDB and live names on first access
    assert json.loads(_fresh_interpreter(f"MODE = {mode!r}\n{LAZY_NAMES_PROBE}")) == []


@pytest.mark.parametrize("package", [lexgender, lexgender.providers], ids=lambda p: p.__name__)
def test_an_unknown_public_name_raises_attribute_error(package):
    with pytest.raises(AttributeError) as excinfo:
        getattr(package, "no_such_name")
    assert str(excinfo.value) == f"module {package.__name__!r} has no attribute 'no_such_name'"


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
    assert _fresh_interpreter(INJECTED_SESSION_LOOKUPS) == "False"


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


@pytest.mark.parametrize("subcommand", ["evaluate", "grid-search"])
def test_gold_of_comments_only_exits_1(capsys, tmp_path, subcommand):
    path = tmp_path / "gold.tsv"
    path.write_text("# word\tlabel\tcategory\n# no entries\n")
    code, out, err = run(capsys, subcommand, "--gold", str(path))
    assert code == 1
    assert err == "lexgender: cannot evaluate against an empty gold list\n"
    assert not out


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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def _format_choices(parser: argparse.ArgumentParser) -> tuple[str, ...]:
    return next((action.choices for action in parser._actions if action.dest == "format"), ())


#: The arguments each subcommand's battery cases start from, on bundled data only.
BATTERY_ARGV = {
    "classify": ["classify", "nun", "businessman", "crew", "qzxv", "step-mother"],
    "evaluate": ["evaluate"],
    "grid-search": ["grid-search"],
    "corpus-report": ["corpus-report", str(toy_corpus_path())],
    "snapshot": ["snapshot", "nun", "monk", "qzxv", "--out", "snap.json"],
}


def _battery() -> dict[str, tuple[list[str], tuple[str, ...]]]:
    """Case id -> (argv, files the case writes whose text is pinned too)."""
    cases = {"help": (["--help"], ())}
    for name, parser in _subcommands().items():
        for fmt in _format_choices(parser):
            cases[f"{name}-{fmt}"] = ([*BATTERY_ARGV[name], "--format", fmt], ())
        cases[f"{name}-help"] = ([name, "--help"], ())
    for fmt in _format_choices(_subcommands()["evaluate"]):
        cases[f"evaluate-{fmt}-out"] = (["evaluate", "--format", fmt, "--out", "report.txt"], ("report.txt",))
    cases["corpus-report-sample-out"] = (
        [*BATTERY_ARGV["corpus-report"], "--sample-out", "sample.txt"], ("sample.txt",)
    )
    cases["snapshot"] = (BATTERY_ARGV["snapshot"], ())  # the file holds its capture time
    cases.update({
        "classify-usage": (["classify", "--format", "tsv"], ()),
        "evaluate-usage": (["evaluate", "nun"], ()),
        "grid-search-usage": (["grid-search", "-d", "3"], ()),
        "corpus-report-usage": ([*BATTERY_ARGV["corpus-report"], "--format", "tsv"], ()),
        "snapshot-usage": (["snapshot", "nun"], ()),
    })
    return cases


#: sha256 of each battery case's exit code, stdout, stderr and pinned files.
GOLDEN_BATTERY_SHA256 = {
    "help": "d0cf649fa4126b44bdcc6981f7f8cb2bedbffa447f7600794a98690108203643",
    "classify-table": "ce4c60e071d39cbbb714db7de291b83b52083a8538c0305c2d15bbb91b36f18e",
    "classify-json": "6097f791093761c171c84b1ff387e9dbee7f59e1e766455aa9c0ea276f2f4674",
    "classify-tsv": "de9fd19bcad00971f121d9a21f3324b7ff7a3543704158cfb400a07b8e44f29d",
    "classify-help": "ea5d317494af150f91bca4905c7072870c7038f8c2c8c69479a753d59e01f5aa",
    "evaluate-table": "d92bf0593cc07d665d014234209db41503c0c924a9dd398485f5d01b06f52bf3",
    "evaluate-json": "0639601d60d0b7ce046f2c9ec50d2a3bc6a137c66eba3dc6416bf8cb9d6b6fae",
    "evaluate-tsv": "237fabccfd967253724a53a9b82f463a3b3ad710973a1d70e40660495ba9556f",
    "evaluate-help": "b2335e7fba85a99fcfa89907464f35e7ba33a73e5a5bc893ff2a6612cdd4fd66",
    "grid-search-table": "55ffd8e551a34878563d298e6c589ba71c9de52f72c85cd5eb3b595230d5a02b",
    "grid-search-json": "571bf34dcb55c619c4aa2482f448f75ee8f3d9a248fbcfcabeffe749a6d560c3",
    "grid-search-help": "d46cb17b31be2232919d5975b27649f62d0f864e0e03c9e7f3d06a036374911e",
    "corpus-report-table": "63921e954c6bdc5516f618f7e53a6fa9b6106b3aa6a821c1f11a0dbddc7f3d2d",
    "corpus-report-json": "dba07b23808722358bc05f5b118ae0b69e2503fc3d68e9fa12d452171279dbef",
    "corpus-report-help": "ec5e861f5b0b8a9516409ac1aec638979832348d99738357fda63d45367bb775",
    "snapshot-help": "588fd89d08fb2e4ab1a8f4b31612c375e3fa3ad95c17dd51b90fe614c47ca995",
    "evaluate-table-out": "a6710f09f456e7ebfa20c08dea672ddc744140ba7f33d39b72c8ce7eadfa6f2f",
    "evaluate-json-out": "9ee2091bb1026bfdfcd34d4f1dc9c883e7851215ade86ebc920149099eefc9a1",
    "evaluate-tsv-out": "c8f53e2c0707d924832bdd45b2221acbbf02532071b0dac77fa88aa1d0a2d446",
    "corpus-report-sample-out": "4df433a02da255a02386cdc3d45002d944e2bd34295a7aaa9c4c145faeaba954",
    "snapshot": "3b45a46837449973de050d29c417bdb43e37b418a2922c066214f6a4a385a5ea",
    "classify-usage": "5d786fa1a2a8b6728be7c7f3837410c7f662d4100f2d9fad49fa381b0a778a80",
    "evaluate-usage": "2338f2211a8182612263d9de4e4586ab3b34660a18d62425554f4bdc1820f4ea",
    "grid-search-usage": "0ccec5cc2c3f84068b2c29c72e2b4797008d36f8de491266c0ff7741bde8d7bc",
    "corpus-report-usage": "d3b177cd514be70a2191a884269c32bd4ceb0d53a9f669c45a5c65baa0a69e51",
    "snapshot-usage": "f685f92fe26b67742e3d7d65f222385bf2b17ed27ef2999c3d518962cbaf13da",
}


@pytest.mark.parametrize("case", list(_battery()))
def test_golden_cli_battery(capsys, tmp_path, monkeypatch, case):
    # refactor gate: every command x format, its files, help and usage text, byte for byte
    argv, files = _battery()[case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = run(capsys, *argv)
    written = {name: (tmp_path / name).read_text(encoding="utf-8") for name in files}
    blob = json.dumps([code, out, err, written], sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_BATTERY_SHA256.get(case), (code, err)


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


def test_corpus_report_empty_sample_writes_an_empty_file(capsys, tmp_path):
    tagged = tmp_path / "tagged.tsv"
    tagged.write_text("the\tDT\ntable\tNN\n")
    out_path = tmp_path / "sample.txt"
    code, _, err = run(capsys, "corpus-report", str(tagged), "--sample-out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == b""  # not one empty word
    assert err == f"wrote 0 gendered nouns to {out_path}\n"


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


def test_snapshot_cli_explicit_words_roundtrip(capsys, tmp_path, bundled_wndb):
    out_file = tmp_path / "snap.json"
    code, _, _ = run(
        capsys, "snapshot", "nun", "monk", "qzxv",
        "--wordnet", str(bundled_wndb),
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


def test_snapshot_that_cannot_be_encoded_keeps_the_old_file(capsys, tmp_path):
    out_file = tmp_path / "copy.json"
    assert run(capsys, "snapshot", "--out", str(out_file), "nun")[0] == 0
    old = out_file.read_bytes()
    # a non-UTF-8 argument byte, as sys.argv holds it
    code, out, err = run(capsys, "snapshot", "--out", str(out_file), "nun", "a\udcff")
    assert code == 1 and not out
    assert "lexgender: 'utf-8' codec can't encode" in err
    assert out_file.read_bytes() == old


def test_report_that_cannot_be_encoded_keeps_the_old_file(capsys, tmp_path):
    snapshot = tmp_path / "snap.json"
    snapshot.write_text('{"provider": "wn\\udcff", "entries": {}}', encoding="utf-8")
    report = tmp_path / "report.txt"
    report.write_bytes(b"an earlier report\n")
    code, out, err = run(capsys, "evaluate", "--snapshot", str(snapshot), "--out", str(report))
    assert code == 1 and not out
    assert "lexgender: 'utf-8' codec can't encode" in err
    assert report.read_bytes() == b"an earlier report\n"


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


def test_live_without_a_cache_root_caches_under_home(capsys, tmp_path, monkeypatch):
    page = (
        '<span class="fl">noun</span>'
        '<span class="dtText"><strong class="mw_t_bc">: </strong>a woman</span>'
    )

    def serve(*args, **kwargs):
        return SimpleNamespace(status_code=200, text=page)

    monkeypatch.setattr(requests.Session, "get", serve)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("LEXGENDER_CACHE", raising=False)
    code, out, _ = run(capsys, "classify", "--format", "tsv", "--live", "merriam_webster", "nun")
    assert (code, out) == (0, "nun\tfem\tdictionary\tmerriam_webster=fem\n")
    assert json.loads(cache_file(tmp_path / ".cache" / "lexgender", "merriam_webster", "nun").read_text()) == {
        "found": True,
        "definitions": ["a woman"],
    }


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
        "words", "--words-from", *SOURCE_OPTIONS, "-d", "-t", "-w", "--format",
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
    subcommands = _subcommands()
    options = {
        name: [
            action.option_strings[0] if action.option_strings else action.dest
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, parser in subcommands.items()
    }
    assert options == SUBCOMMAND_OPTIONS
    assert sum(map(len, options.values())) == 57
    assert {name: _format_choices(parser) for name, parser in subcommands.items()} == {
        "classify": ("table", "json", "tsv"),
        "evaluate": ("table", "json", "tsv"),
        "grid-search": ("table", "json"),
        "corpus-report": ("table", "json"),
        "snapshot": (),
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


def test_snapshot_takes_words_on_both_sides_of_options(capsys, tmp_path, monkeypatch, bundled_wndb):
    monkeypatch.setattr(lexgender.data, "wndb_dir", lambda: bundled_wndb)  # "bundled" loads the copy
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
        (["classify", "nun", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    ],
    ids=[
        "classify-unknown-option", "classify-no-words", "snapshot-format", "evaluate-word", "grid-search-d",
        "classify-jobs",
    ],
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
