import importlib.util
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
    return [
        {"workload": workload, "seed": i, "parent": _result(*a), "change": _result(*b)}
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
