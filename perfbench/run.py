"""Run one lexgender benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gold_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory; nothing is
installed. Generated inputs go to ``.perfbench_tmp/`` and are deleted at
exit; a traced run writes its spans to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The line before it holds the named metrics of the
workload with percentiles and sample counts, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

LAYERS = (
    "bench",
    "core",
    "classifier",
    "evaluation",
    "corpus",
    "providers.snapshot",
    "providers.wndb",
    "providers.httpdict",
    "providers.htmlextract",
    "stub",
    "cli",
)


def percentile_with_tail(samples: list[float]) -> tuple[float | None, float | None]:
    """The highest of p50..p99.9 with at least ten samples above it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in (999, 990, 950, 900, 750, 500):
        rank = -(-n * per_mille // 1000)  # nearest rank, 1-based
        if n - rank >= 10:
            return per_mille / 10, ordered[rank - 1]
    return None, None


def summarize(samples: list[float], unit: str, size: float | None) -> dict:
    """Median and tail of operation times; per-second when ``size`` is given."""
    p, tail = percentile_with_tail(samples)
    mid = median(samples)
    if size is not None:
        mid, tail = size / mid, (size / tail if tail else None)
    return {"median": mid, "unit": unit, "percentile": p, "percentile_value": tail, "samples": len(samples)}


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lexgender").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Times one workload's operations as a sequential closed loop."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checked_once = False

    def timed(self, kind: str, fn):
        tracer = self.wl.tracer
        self.attempted += 1
        start = perf_counter()
        if tracer is None:
            output = fn()
        else:
            with tracer.span(f"op.{kind}"):
                output = fn()
        return output, perf_counter() - start

    def loop(self, seconds: float) -> dict[str, list[list[float]]]:
        """Rounds of set-ups, one job and some steps, until ``seconds`` pass.

        Returns each kind's operation times, one list per round. Set-ups are
        spread over the run like the other operations, so all three sample
        the same stretches of machine noise.
        """
        wl = self.wl
        deadline = perf_counter() + seconds
        rounds: dict[str, list[list[float]]] = {"setup": [], "job": [], "step": []}
        while not rounds["job"] or perf_counter() < deadline:
            setups, steps = [], []
            for _ in range(wl.setups_per_round):
                setups.append(self.timed("setup", wl.setup)[1])
            output, elapsed = self.timed("job", wl.job)
            wl.check_job(output)
            if not self.checked_once:
                wl.check_once(output)
                self.checked_once = True
            del output
            for _ in range(wl.steps_per_round):
                output, step_elapsed = self.timed("step", wl.step)
                steps.append(step_elapsed)
                wl.check_step(output)
                del output
                if perf_counter() >= deadline:
                    break
            wl.end_round()
            rounds["setup"].append(setups)
            rounds["job"].append([elapsed])
            rounds["step"].append(steps)
        return rounds


def flat(rounds: list[list[float]]) -> list[float]:
    return [t for times in rounds for t in times]


def median_of_round_means(rounds: list[list[float]]) -> float:
    """The run's figure for set-ups and jobs.

    Host speed on small shared machines flips between a fast and a slow
    state within seconds. A single short operation lands in one state, so
    the median of single samples jumps between the two as their mix
    changes; each round's mean spans both, and their median moves smoothly.
    """
    return median(sum(times) / len(times) for times in rounds if times)


def fastest(rounds: list[list[float]]) -> float:
    """The run's figure for steps: the fastest one.

    A run has hundreds of steps of a few ms, and some land wholly in the
    host's fast state, whose speed holds from run to run while the share
    of time spent in it does not. A change that slows only some calls does
    not show here; the median and tail printed with the named metrics do.
    """
    return min(flat(rounds))


#: How a run reduces each kind of operation's times to its figure.
FIGURE = {"setup": median_of_round_means, "job": median_of_round_means, "step": fastest}


def layer_metrics(tracer, wl, untraced: tuple, traced: tuple) -> dict[str, float]:
    """Per-layer metrics of a traced run; 0 for a layer the workload never calls."""
    from workloads import GRID_CELLS

    n_jobs = max(tracer.calls("op.job"), 1)
    n_steps = max(tracer.calls("op.step"), 1)
    job, step = "op.job", "op.step"

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    http_job_lookups = tracer.calls("providers.httpdict.lookup", job)
    http_step_lookups = tracer.calls("providers.httpdict.lookup", step)
    dictionary_routed = tracer.counted("classifier.route.dictionary", job)
    n_providers = wl.n_providers
    extract_s = tracer.total("providers.htmlextract.extract")
    metrics = {
        "core.forms_us": ratio(
            tracer.total("core.feminine_forms") + tracer.total("core.masculine_forms"),
            tracer.calls("core.feminine_forms"),
        ) * 1e6,
        "classifier.tokenize_us": tracer.per_call("classifier.tokenize", scale=1e6),
        "classifier.count_gendered_us": tracer.per_call("classifier.count_gendered", scale=1e6),
        "classifier.count_gendered_calls": tracer.calls("classifier.count_gendered", job) / n_jobs,
        "classifier.combine_us": tracer.per_call("classifier.combine", scale=1e6),
        "classifier.classify_us": tracer.per_call("classifier.classify", scale=1e6),
        "classifier.route.seed": tracer.counted("classifier.route.seed_shortcut", job) / n_jobs,
        "classifier.route.suffix": tracer.counted("classifier.route.suffix_heuristic", job) / n_jobs,
        "classifier.route.dictionary": dictionary_routed / n_jobs,
        "classifier.strip_retries": (
            tracer.calls("classifier.classify_with_provider", job) - dictionary_routed * n_providers
        ) / n_jobs if n_providers else 0.0,
        "evaluation.grid_cell_ms": tracer.per_call("evaluation.grid_search", scale=1e3 / GRID_CELLS),
        "evaluation.classify_gold_ms": tracer.per_call("evaluation.classify_gold", step, scale=1e3),
        "evaluation.evaluate_results_ms": tracer.per_call("evaluation.evaluate_results", step, scale=1e3),
        "providers.snapshot.load_ms": tracer.per_call("providers.snapshot.load", scale=1e3),
        "providers.snapshot.lookup_us": tracer.per_call("providers.snapshot.lookup", scale=1e6),
        "providers.wndb.load_s": tracer.per_call("providers.wndb.load"),
        "providers.wndb.lookup_us": tracer.per_call("providers.wndb.lookup", scale=1e6),
        "providers.wndb.found_ratio": ratio(
            tracer.counted("providers.wndb.found"), tracer.calls("providers.wndb.lookup")
        ),
        "corpus.ingest_s": tracer.per_call("corpus.ingest_tagged"),
        "corpus.classify_inventory_s": tracer.per_call("corpus.classify_inventory"),
        "corpus.report_s": tracer.per_call("corpus.composition_report"),
        "corpus.distinct_surfaces": tracer.counted("corpus.distinct_surfaces", job) / n_jobs,
        "providers.htmlextract.extract_us": tracer.per_call("providers.htmlextract.extract", scale=1e6),
        "providers.htmlextract.kb_per_s": ratio(tracer.counted("providers.htmlextract.chars") / 1024, extract_s),
        "providers.httpdict.cold_lookup_us": tracer.per_call("providers.httpdict.lookup", job, scale=1e6),
        "providers.httpdict.requests": tracer.calls("stub.get", job) / n_jobs,
        "providers.httpdict.requests_per_lookup": ratio(tracer.calls("stub.get", job), http_job_lookups),
        "providers.httpdict.stub_wait_s": tracer.counted("stub.wait_s", job) / n_jobs,
        "providers.httpdict.warm_lookup_us": tracer.per_call("providers.httpdict.lookup", step, scale=1e6),
        "providers.httpdict.cache_hit_ratio": ratio(
            http_step_lookups - tracer.calls("stub.get", step), http_step_lookups
        ),
    }
    for name in ("cli.interpreter_s", "cli.import_s", "cli.import_requests_s"):
        metrics[name] = wl.probes.get(name, 0.0)
    job_self = tracer.self_time_by_layer(job)
    step_self = tracer.self_time_by_layer(step)
    for layer in LAYERS:
        metrics[f"{layer}.job_self_ms"] = job_self.get(layer, 0.0) / n_jobs * 1e3
        metrics[f"{layer}.step_self_ms"] = step_self.get(layer, 0.0) / n_steps * 1e3
    for kind in ("job", "step"):
        metrics[f"trace.{kind}_overhead_ratio"] = (
            FIGURE[kind](traced[kind]) / FIGURE[kind](untraced[kind]) - 1
        )
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    from stub import TransportGuard
    from tracing import Tracer
    from workloads import CheckFailed, WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}"
    wl = WORKLOADS[name](ROOT, workdir, seed)
    runner = Runner(wl)
    correct = True
    metrics: dict[str, float] = {}
    detail: dict = {"workload": name, "seconds": seconds, "trace": int(trace)}
    try:
        with TransportGuard() as guard:
            wl.prepare()
            if not trace:
                rounds = runner.loop(seconds)
            else:
                untraced = runner.loop(seconds / 2)
                tracer = Tracer()
                tracer.install()
                wl.instrument(tracer)
                try:
                    traced = runner.loop(seconds / 2)
                    with tracer.span("op.probe"):
                        wl.probe()
                finally:
                    tracer.uninstall()
                rounds = untraced
                metrics = layer_metrics(tracer, wl, untraced, traced)
                detail["self_ms_by_layer"] = {
                    root: {layer: t * 1e3 for layer, t in sorted(tracer.self_time_by_layer(f"op.{root}").items())}
                    for root in ("setup", "job", "step")
                }
                trace_file = ROOT / ".perfbench_out" / f"trace-{name}-seed{seed}.json"
                tracer.write(trace_file, {"workload": name, "seed": seed})
                detail["trace_file"] = str(trace_file.relative_to(ROOT))
            if guard.violations:
                raise CheckFailed(f"{len(guard.violations)} requests reached the real transport")
    except CheckFailed as exc:
        correct = False
        detail["check_failed"] = str(exc)
    except Exception:
        correct = False
        runner.failed += 1
        runner.errors.append(traceback.format_exc(limit=5))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's inputs are still there

    if correct:
        job_name, job_unit, job_size = wl.job_metric
        step_name, step_unit, step_size = wl.step_metric
        peak_rss_mb = wl.peak_rss_kb() / 1024
        detail["rounds"] = len(rounds["job"])
        detail["metrics"] = {
            "setup_s": summarize(flat(rounds["setup"]), "s", None),
            job_name: summarize(flat(rounds["job"]), job_unit, job_size),
            step_name: summarize(flat(rounds["step"]), step_unit, step_size),
            "peak_rss_mb": {"median": peak_rss_mb, "unit": "MB"},
            "error_rate": {"median": runner.failed / runner.attempted, "unit": "ratio"},
        }
        if not trace:
            metrics = {
                "setup_s": FIGURE["setup"](rounds["setup"]),
                "job_s": FIGURE["job"](rounds["job"]),
                "step_min_ms": FIGURE["step"](rounds["step"]) * 1e3,
                "peak_rss_mb": peak_rss_mb,
            }
    detail["errors"] = runner.errors
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if correct and set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, detail


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then one table of the named metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and len(lines) < 2:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        for metric, s in detail.get("metrics", {}).items():
            tail = f"p{s['percentile']:g}={s['percentile_value']:.6g}" if s.get("percentile") else ""
            rows.append(f"{name:<12} {metric:<22} {s['median']:>14.6g} {s['unit']:<6} {tail:<20} n={s.get('samples', 1)}")
    print("\n".join(rows))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexgender" / "__init__.py").is_file():
        print(f"perfbench: no lexgender sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lexgender

    if Path(lexgender.__file__).resolve().parent != SRC / "lexgender":
        print(f"perfbench: imported lexgender from {lexgender.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)

    # One CPU for this process and the interpreters it starts, so that where
    # the scheduler places them does not add to the run-to-run spread.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    detail["environment"] = dict(environment(args.seed), nproc=nproc, pinned_cpu=cpu)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
