import hashlib
import importlib.util
import json
import signal
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "rate", "unit": "1/s", "better": "higher"},
]


def _result(setup_s, rate, failed=0):
    return {
        "correct": True,
        "attempted": 10,
        "failed": failed,
        "metrics": {"setup_s": {"value": setup_s, "unit": "s"}, "rate": {"value": rate, "unit": "1/s"}},
    }


def _pairs(parent, change, workload="w"):
    """Pairs run as ``main`` runs them: the parent first in even pairs, the change in odd ones."""
    return [
        {"workload": workload, "seed": i, "first": bench_pairs.SIDES[i % 2], "parent": _result(*a), "change": _result(*b)}
        for i, (a, b) in enumerate(zip(parent, change))
    ]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_by_direction():
    parent = [(1.0, 10), (1.1, 11), (0.9, 9), (1.0, 10), (1.2, 12)]
    change = [(0.7, 12), (0.8, 11), (0.95, 8), (0.7, 13), (0.75, 14)]
    summary = bench_pairs.summarize(_pairs(parent, change), METRICS)["w"]
    setup = summary["metrics"]["setup_s"]
    assert setup["parent"]["median"] == 1.0
    assert (setup["parent"]["q1"], setup["parent"]["q3"]) == (1.0, 1.1)
    assert setup["change"]["median"] == 0.75
    assert (setup["change_wins"], setup["change_losses"], setup["pairs"]) == (4, 1, 5)
    assert setup["median_change"] == pytest.approx(-0.25)
    assert not setup["gain_rule_holds"]  # 4 of 5 is under nine tenths
    rate = summary["metrics"]["rate"]  # higher is better: one tie, one loss
    assert (rate["change_wins"], rate["change_losses"]) == (3, 1)
    assert summary["parent"] == {"runs": 5, "incorrect_runs": 0, "attempted": 50, "failed": 0}


def test_gain_rule_needs_gap_beyond_parent_spread():
    parent = [(1.0, 1), (1.2, 1), (0.8, 1), (1.1, 1), (0.9, 1)]
    clear = bench_pairs.summarize(_pairs(parent, [(p - 0.5, 1) for p, _ in parent]), METRICS)
    assert clear["w"]["metrics"]["setup_s"]["gain_rule_holds"]
    # wins every pair, but by less than the parent's interquartile range (0.2)
    narrow = bench_pairs.summarize(_pairs(parent, [(p - 0.1, 1) for p, _ in parent]), METRICS)
    assert narrow["w"]["metrics"]["setup_s"]["change_wins"] == 5
    assert not narrow["w"]["metrics"]["setup_s"]["gain_rule_holds"]


def test_incorrect_runs_leave_their_pair_out():
    pairs = _pairs([(1.0, 1), (1.0, 1)], [(0.5, 1), (0.5, 1)], workload="a")
    pairs[0]["change"] = None  # the run printed no result
    pairs.append({"workload": "b", "seed": 0, "parent": _result(1.0, 1), "change": dict(_result(2.0, 1), correct=False)})
    summary = bench_pairs.summarize(pairs, METRICS)
    assert list(summary) == ["a", "b"]
    assert summary["a"]["change"]["incorrect_runs"] == 1
    assert summary["a"]["metrics"]["setup_s"]["pairs"] == 1
    assert summary["b"]["metrics"] == {}
    assert summary["b"]["change"]["incorrect_runs"] == 1
    assert not summary["a"]["metrics"]["setup_s"]["gain_rule_holds"]


# Ten pairs whose parent runs spread 0.9-1.1 s; the change is 0.5 s faster in each.
PARENT_10 = [(0.9 + 0.02 * i, 1) for i in range(10)]
FASTER_10 = [(p - 0.5, 1) for p, _ in PARENT_10]


def test_gain_rule_holds_for_a_clean_clear_win():
    summary = bench_pairs.summarize(_pairs(PARENT_10, FASTER_10), METRICS)["w"]
    assert summary["metrics"]["setup_s"]["gain_rule_holds"]


def test_gain_rule_divides_wins_by_every_pair_run():
    pairs = _pairs(PARENT_10, FASTER_10)
    pairs[0]["parent"] = None  # the parent printed no result
    pairs[1]["parent"] = dict(pairs[1]["parent"], correct=False)
    setup = bench_pairs.summarize(pairs, METRICS)["w"]["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["pairs"]) == (8, 8)
    assert not setup["gain_rule_holds"]  # 8 wins in 10 pairs run


def test_gain_rule_fails_when_a_change_run_is_incorrect():
    pairs = _pairs(PARENT_10, FASTER_10)
    pairs[0]["change"] = dict(pairs[0]["change"], correct=False)
    setup = bench_pairs.summarize(pairs, METRICS)["w"]["metrics"]["setup_s"]
    assert setup["change_wins"] == 9  # nine in ten, but one change run failed its checks
    assert not setup["gain_rule_holds"]


@pytest.mark.parametrize("parent_failed, change_failed, holds", [(0, 1, False), (1, 2, False), (1, 1, True), (1, 0, True)])
def test_gain_rule_fails_when_the_change_fails_more_operations(parent_failed, change_failed, holds):
    pairs = _pairs(PARENT_10, FASTER_10)
    pairs[3]["parent"] = _result(*PARENT_10[3], failed=parent_failed)
    pairs[3]["change"] = _result(*FASTER_10[3], failed=change_failed)
    summary = bench_pairs.summarize(pairs, METRICS)["w"]
    assert summary["metrics"]["setup_s"]["change_wins"] == 10
    assert summary["metrics"]["setup_s"]["gain_rule_holds"] is holds


def test_a_metric_won_by_the_side_that_ran_first_is_order_driven():
    # setup_s: whichever side runs first reads 0.1 s lower, in all ten pairs
    parent = [(1.0 if i % 2 == 0 else 1.1, 1) for i in range(10)]
    change = [(1.1 if i % 2 == 0 else 1.0, 1) for i in range(10)]
    pairs = _pairs(parent, change)
    setup = bench_pairs.summarize(pairs, METRICS)["w"]["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["change_losses"], setup["first_wins"]) == (5, 5, 10)
    assert setup["order_driven"] and not setup["gain_rule_holds"]
    # rate ties in every pair: no side wins, so nothing follows the order
    assert bench_pairs.summarize(pairs, METRICS)["w"]["metrics"]["rate"]["first_wins"] == 0
    # a clean win by the change: the first side wins only the five pairs the change ran first
    clear = bench_pairs.summarize(_pairs(PARENT_10, FASTER_10), METRICS)["w"]["metrics"]["setup_s"]
    assert (clear["first_wins"], clear["order_driven"]) == (5, False)
    pairs[0]["change"] = None  # eight of the nine pairs compared still fall short of nine tenths
    pairs[1]["change"] = dict(pairs[1]["change"], metrics={"setup_s": {"value": 1.1, "unit": "s"}})
    assert not bench_pairs.summarize(pairs, METRICS)["w"]["metrics"]["setup_s"]["order_driven"]


# A stand-in for perfbench/run.py: it prints a details line and a result line as
# the real one does, with a setup_s read from its tree, and runs no benchmark.
FAKE_RUN = """
import argparse, hashlib, json, pathlib
parser = argparse.ArgumentParser()
for option in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(option)
args = parser.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
source = (root / "src" / "lexgender" / "__init__.py").read_bytes()
environment = {"src_sha256": hashlib.sha256(source).hexdigest(), "seed": int(args.seed)}
print(json.dumps({"perfbench": {"workload": args.workload, "environment": environment}}))
setup_s = float((root / "setup_s").read_text()) + int(args.seed) * 1e-4
print(json.dumps({"correct": args.trace == "0", "attempted": 3, "failed": 0,
                  "metrics": {"setup_s": {"value": setup_s, "unit": "s"}}}))
"""


def _fake_tree(path: Path, setup_s: float) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(FAKE_RUN)
    (path / "src" / "lexgender").mkdir(parents=True)
    (path / "src" / "lexgender" / "__init__.py").write_text(f"# tree {path.name}\n")
    (path / "setup_s").write_text(str(setup_s))
    return path


@pytest.fixture
def kept_signal_handlers():
    """Restores the handlers that ``main`` installs for SIGTERM and SIGHUP."""
    saved = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGHUP)}
    yield
    for signum, handler in saved.items():
        signal.signal(signum, handler)


def test_directory_sides_run_as_they_are(tmp_path, kept_signal_handlers):
    parent, change = _fake_tree(tmp_path / "parent", 1.0), _fake_tree(tmp_path / "change", 0.5)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(parent), "--change", str(change), "--pairs", "3",
            "--workload", "live_stub", "--seed", "7", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    for side, tree in (("parent", parent), ("change", change)):
        digest = hashlib.sha256(f"# tree {side}\n".encode()).hexdigest()
        assert report[side] == {"path": str(tree), "src_sha256": [digest]}
        assert (tree / "perfbench" / "run.py").is_file()  # a directory side is never removed
    assert [p["seed"] for p in report["pairs"]] == [7, 8, 9]
    setup = report["workloads"]["live_stub"]["metrics"]["setup_s"]
    assert setup["parent"]["values"] == pytest.approx([1.0007, 1.0008, 1.0009])
    assert setup["change_wins"] == 3 and setup["gain_rule_holds"]
    assert [p["first"] for p in report["pairs"]] == ["parent", "change", "parent"]
    assert setup["first_wins"] == 1  # the change reads lower in every pair, and ran first in one


def test_a_directory_side_needs_out_and_a_benchmark(tmp_path, capsys):
    tree = _fake_tree(tmp_path / "tree", 1.0)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tree), "--change", str(tree), "--seed", "1"])
    assert "--out is required" in capsys.readouterr().err
    (tree / "perfbench" / "run.py").unlink()
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tree), "--change", str(tree), "--seed", "1",
                          "--out", str(tmp_path / "bench.json")])
    assert "must hold perfbench/run.py and src/lexgender/" in capsys.readouterr().err


def test_environment_names_the_cpu_and_the_bytecode_policy(tmp_path, monkeypatch, kept_signal_handlers):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    parent, change = _fake_tree(tmp_path / "parent", 1.0), _fake_tree(tmp_path / "change", 0.5)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(parent), "--change", str(change), "--pairs", "1",
            "--workload", "cli_cold", "--seed", "7", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    environment = json.loads(out.read_text())["environment"]
    assert environment["bytecode"] == {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": None}
    assert environment["cpu_model"] == bench_pairs.cpu_model()

    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text(
        "processor\t: 0\nvendor_id\t: Example\nmodel name\t: Example CPU @ 2.00GHz\n\n"
        "processor\t: 1\nmodel name\t: Other CPU\n"
    )
    assert bench_pairs.cpu_model(cpuinfo) == "Example CPU @ 2.00GHz"
    cpuinfo.write_text("processor\t: 0\nfeatures\t: fp asimd\n")  # some architectures name no model
    assert bench_pairs.cpu_model(cpuinfo) is None
    assert bench_pairs.cpu_model(tmp_path / "missing") is None
