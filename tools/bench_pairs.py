#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

Usage (from the root of a checkout)::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --workload corpus_wndb --seed 3101 [--out FILE]

Each revision is checked out into its own temporary ``git worktree``, so
each side runs its own ``perfbench/run.py`` on its own ``src/``. Both
worktrees are removed on exit. Pair ``i`` runs both sides with seed
``seed + i``, the parent first when ``i`` is even and the change first
when it is odd. Every run lasts the ``run_seconds`` that ``BENCHMARK.json``
fixes. Without ``--workload`` every workload of ``BENCHMARK.json`` runs,
one after the other within each pair.

For every workload and end-to-end metric the output file (default
``BENCH_<short change sha>.json`` in the checkout) records each side's
runs, median and quartiles, the pairs the change won and lost, and whether
the gain rule holds: the change wins at least nine in ten of all pairs run,
its median beats the parent's by more than the distance between the
parent's quartiles, every run of the change passed its output checks, and
no more of the change's operations failed than of the parent's.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return q1, mid, q3


def _value(result: dict | None, metric: str) -> float | None:
    if not result or not result.get("correct"):
        return None
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: each metric's per-side statistics and the pairs won.

    ``pairs`` holds one ``{"workload", "seed", "parent", "change"}`` entry
    per pair, each side the result object ``perfbench/run.py`` printed (or
    None when the run gave none). ``metrics`` are the ``end_to_end`` entries
    of ``BENCHMARK.json``. A pair counts toward wins only when both sides
    ran correctly, and ties count for neither side; but the gain rule
    divides the wins by every pair run, and never holds when a run of the
    change was incorrect or the change failed more operations than the
    parent.
    """
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        entry: dict = {
            side: {
                "runs": len(mine),
                "incorrect_runs": sum(not (p[side] or {}).get("correct") for p in mine),
                "attempted": sum((p[side] or {}).get("attempted", 0) for p in mine),
                "failed": sum((p[side] or {}).get("failed", 0) for p in mine),
            }
            for side in SIDES
        }
        change_sound = (
            entry["change"]["incorrect_runs"] == 0 and entry["change"]["failed"] <= entry["parent"]["failed"]
        )
        entry["metrics"] = {}
        for spec in metrics:
            name, lower_is_better = spec["name"], spec["better"] == "lower"
            both = [
                (a, b)
                for a, b in ((_value(p["parent"], name), _value(p["change"], name)) for p in mine)
                if a is not None and b is not None
            ]
            if not both:
                continue
            stats: dict = {"unit": spec["unit"], "better": spec["better"], "pairs": len(both)}
            for side, values in zip(SIDES, zip(*both)):
                q1, mid, q3 = quartiles(sorted(values))
                stats[side] = {"median": mid, "q1": q1, "q3": q3, "values": list(values)}
            sign = 1 if lower_is_better else -1
            stats["change_wins"] = sum(sign * (a - b) > 0 for a, b in both)
            stats["change_losses"] = sum(sign * (a - b) < 0 for a, b in both)
            parent, change = stats["parent"], stats["change"]
            stats["median_change"] = change["median"] / parent["median"] - 1 if parent["median"] else None
            stats["gain_rule_holds"] = (
                change_sound
                and stats["change_wins"] >= 0.9 * len(mine)
                and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"]
            )
            entry["metrics"][name] = stats
        summary[workload] = entry
    return summary


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one untraced run in ``tree``, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {tree.name} {workload}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured as the baseline")
    parser.add_argument("--change", required=True, help="revision measured against it")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="output file (default BENCH_<short change sha>.json)")
    parser.add_argument("--workdir", type=Path, help="where the temporary worktrees go")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    shas = {side: git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}") for side in SIDES}
    out = args.out or ROOT / f"BENCH_{git('rev-parse', '--short', shas['change'])}.json"

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGHUP, _stop)
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.workdir))
    trees: dict[str, Path] = {}
    pairs: list[dict] = []
    try:
        for side in SIDES:
            trees[side] = tmp / side
            git("worktree", "add", "--detach", str(trees[side]), shas[side])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"workload": workload, "seed": args.seed + i}
                for side in order:
                    pair[side] = run_side(trees[side], workload, args.seed + i, spec["run_seconds"])
                    print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                          f"{json.dumps((pair[side] or {}).get('metrics'))}", file=sys.stderr)
                pairs.append(pair)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)

    report = {
        "parent": {"rev": args.parent, "sha": shas["parent"]},
        "change": {"rev": args.change, "sha": shas["change"]},
        "settings": {"pairs": args.pairs, "first_seed": args.seed, "seconds": spec["run_seconds"],
                     "order": "parent first in even pairs (0, 2, ...), change first in odd ones"},
        "environment": {"python": platform.python_version(), "platform": platform.platform(),
                        "nproc": os.cpu_count(), "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "workloads": summarize(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
