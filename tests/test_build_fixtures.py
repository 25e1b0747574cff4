"""Everything tools/build_fixtures.py writes matches the committed data files."""

import importlib.util
import re
from pathlib import Path

from lexgender.providers.wndb import CACHE_FILE

REPO = Path(__file__).resolve().parents[1]
CAPTURED_AT = re.compile(rb'"captured_at": "[^"]*"')


def _load_tool():
    spec = importlib.util.spec_from_file_location("build_fixtures", REPO / "tools" / "build_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rebuilt_fixtures_match_the_committed_files(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    targets = {tmp_path / "data": tool.DATA, tmp_path / "tests_data": tool.TESTS_DATA}
    monkeypatch.setattr(tool, "DATA", tmp_path / "data")
    monkeypatch.setattr(tool, "TESTS_DATA", tmp_path / "tests_data")
    tool.main()

    compared = []
    for built_root, committed_root in targets.items():
        for built in sorted(built_root.rglob("*")):
            if built.is_dir() or built.name == CACHE_FILE:
                continue
            relative = built.relative_to(built_root)
            committed = committed_root / relative
            assert committed.is_file(), f"{relative} is built but not committed"
            # a snapshot records when it was captured; nothing else may differ
            assert CAPTURED_AT.sub(b"", built.read_bytes()) == CAPTURED_AT.sub(
                b"", committed.read_bytes()
            ), f"{relative} differs from the committed copy"
            compared.append(relative.as_posix())
    assert compared == [
        "gold.tsv",
        "snapshots/dictionary_com.json",
        "snapshots/merriam_webster.json",
        "snapshots/wordnet.json",
        "toy_tagged.tsv",
        "wndb/data.noun",
        "wndb/index.noun",
        "grid20_alpha.json",
        "grid20_beta.json",
        "grid20_gold.tsv",
    ]
