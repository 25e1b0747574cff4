"""The four benchmark workloads.

Each workload has a timed ``setup`` (repeated; the median is ``setup_s``),
a ``job`` (the long operation a user waits on) and a ``step`` (the short
one), plus output checks. ``run.py`` drives them as one sequential closed
loop: one caller, each call starting when the previous one returned.

Library functions are always called through their modules
(``evaluation.grid_search(...)``), so a traced run sees the rebound
versions; see ``tracing.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import urllib.parse
from pathlib import Path
from statistics import median
from time import perf_counter

from lexgender import classifier, corpus, evaluation
from lexgender.core import GRID_D_RANGE, GRID_T_RANGE, GRID_W_RANGE, ClassifierParams
from lexgender.data import BUNDLED_SNAPSHOT_IDS, gold_path, snapshot_path
from lexgender.providers import CachedHttpProvider, SnapshotProvider, WordNetProvider
from lexgender.providers.httpdict import SITES

from stub import StubSession
from tracing import TracedProvider, Tracer

GRID_CELLS = len(GRID_D_RANGE) * len(GRID_T_RANGE) * len(GRID_W_RANGE)


class CheckFailed(Exception):
    """The program produced wrong output; the run reports no numbers from it."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Shared plumbing; subclasses define the operations and checks."""

    name = ""
    setups_per_round = 1
    steps_per_round = 1
    n_providers = 0  # providers each in-process classify consults
    #: Named end-to-end metrics this workload's job and step stand for:
    #: (name, unit, size) where a per-second metric is size / median time.
    job_metric = ("", "s", None)
    step_metric = ("", "s", None)

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.rng = random.Random(f"{self.name}-{seed}")
        self.tracer: Tracer | None = None
        self.state = None
        self.probes: dict[str, float] = {}  # per-layer metrics measured by ``probe``

    def _provider(self, layer: str, cls, *args):
        if self.tracer is None:
            return cls(*args)
        provider = self.tracer.wrap(f"{layer}.load", cls, span=True)(*args)
        return TracedProvider(provider, layer, self.tracer)

    def prepare(self) -> None:
        """Untimed: generate inputs and compute reference outputs."""

    def instrument(self, tracer: Tracer) -> None:
        """Route this workload's provider loads and lookups through ``tracer``."""
        self.tracer = tracer

    def probe(self) -> None:
        """Traced run only: measurements that fit no job or step."""

    def setup(self):
        raise NotImplementedError

    def job(self):
        raise NotImplementedError

    def check_job(self, output) -> None:
        """Checks every job's output; may compare against the first."""

    def step(self):
        raise NotImplementedError

    def check_step(self, output) -> None:
        """Checks every step's output."""

    def check_once(self, job_output) -> None:
        """Untimed, costlier checks made once, after the first job."""

    def end_round(self) -> None:
        """Untimed clean-up between rounds."""

    def peak_rss_kb(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- gold_grid ----------------------------------------------------------


class GoldGrid(Workload):
    name = "gold_grid"
    setups_per_round = 50
    steps_per_round = 100
    n_providers = len(BUNDLED_SNAPSHOT_IDS)
    job_metric = ("grid_s", "s", None)
    step_metric = ("evaluate_s", "s", None)
    BEST = (2, 10, 5)
    BEST_ACCURACY = 114 / 134
    #: SHA-256 of the JSON of the sorted grid table on the bundled data.
    TABLE_SHA256 = "a259b0547e0571de9d484f180cefeb36a7ac0afcbbc5d4243efb38b2d0211ba9"

    def setup(self):
        gold = evaluation.load_gold(gold_path())
        providers = [
            self._provider("providers.snapshot", SnapshotProvider, snapshot_path(pid))
            for pid in BUNDLED_SNAPSHOT_IDS
        ]
        self.state = (gold, providers)

    def job(self):
        gold, providers = self.state
        return evaluation.grid_search(gold, providers)

    def check_job(self, result) -> None:
        best = (result.best.d, result.best.t, result.best.w)
        check(best == self.BEST, f"grid best cell {best}, expected {self.BEST}")
        check(
            result.best_accuracy == self.BEST_ACCURACY,
            f"grid best accuracy {result.best_accuracy}, expected 114/134",
        )
        check(len(result.table) == GRID_CELLS, f"grid has {len(result.table)} cells")
        digest = hashlib.sha256(json.dumps(sorted(result.table.items())).encode()).hexdigest()
        check(digest == self.TABLE_SHA256, "grid accuracy table differs from the bundled-data table")

    def check_once(self, result) -> None:
        gold, providers = self.state
        for cell in self.rng.sample(sorted(result.table), 5):
            results = evaluation.classify_gold(gold, providers, ClassifierParams(*cell))
            accuracy = evaluation.evaluate_results(results, gold).accuracy
            check(accuracy == result.table[cell], f"grid cell {cell} {result.table[cell]} != evaluate {accuracy}")

    def step(self):
        gold, providers = self.state
        results = evaluation.classify_gold(gold, providers, ClassifierParams())
        return evaluation.evaluate_results(results, gold)

    def check_step(self, report) -> None:
        check(report.accuracy == self.BEST_ACCURACY, f"evaluate accuracy {report.accuracy}, expected 114/134")
        if not hasattr(self, "_report"):
            self._report = report.to_dict()
        check(report.to_dict() == self._report, "evaluate report differs between runs")


# --- corpus_wndb ----------------------------------------------------------


class CorpusWndb(Workload):
    name = "corpus_wndb"
    steps_per_round = 30
    n_providers = 3
    STEP_WORDS = 400
    job_metric = ("corpus_tokens_per_s", "1/s", None)  # size set in prepare
    step_metric = ("classify_words_per_s", "1/s", STEP_WORDS)

    def prepare(self) -> None:
        out = self.workdir / "corpus"
        subprocess.run(
            [sys.executable, str(Path(__file__).parent / "generate.py"), "corpus", str(out), "--seed", str(self.seed)],
            check=True,
        )
        self.wndb_dir = out / "wndb"
        self.tagged = out / "tagged.tsv"
        info = json.loads((out / "words.json").read_text(encoding="utf-8"))
        self.words = info["words"]
        self.expected_records = (info["noun_records"], info["noun_frequency"])
        self.job_metric = ("corpus_tokens_per_s", "1/s", info["tokens"])
        self.expected_glosses = json.loads((self.wndb_dir / "manifest.json").read_text(encoding="utf-8"))["expected"]
        self._next_word = 0
        self._labels: dict[str, object] = {}

    def setup(self):
        self.state = None  # drop the previous load before timing the next
        self.state = [
            self._provider("providers.wndb", WordNetProvider, self.wndb_dir),
            self._provider("providers.snapshot", SnapshotProvider, snapshot_path("merriam_webster")),
            self._provider("providers.snapshot", SnapshotProvider, snapshot_path("dictionary_com")),
        ]

    def job(self):
        providers = self.state
        with open(self.tagged, encoding="utf-8") as fh:
            records = corpus.ingest_tagged(fh)
        results = corpus.classify_inventory(records, providers)
        report = corpus.composition_report(results, records)
        return records, results, report

    def check_job(self, output) -> None:
        records, _, report = output
        found = (len(records), sum(r.frequency for r in records))
        check(found == self.expected_records, f"ingest kept (records, frequency) {found}, expected {self.expected_records}")
        check(report.total == len(records), f"report total {report.total} != {len(records)} records")
        if not hasattr(self, "_report"):
            self._report = report.to_dict()
        check(report.to_dict() == self._report, "composition report differs between runs")

    def check_once(self, output) -> None:
        records, results, _ = output
        providers = self.state
        for record in self.rng.sample(records, min(200, len(records))):
            direct = classifier.classify(record.surface, providers)
            check(results[record.surface] == direct, f"inventory result for {record.surface!r} != classify")
        wndb = providers[0]
        for lemma, glosses in sorted(self.expected_glosses.items()):
            found = wndb.lookup(lemma)
            check(found is not None and list(found.definitions) == glosses, f"WNDB glosses wrong for {lemma!r}")

    def step(self):
        providers = self.state
        start = self._next_word
        batch = [self.words[(start + i) % len(self.words)] for i in range(self.STEP_WORDS)]
        self._next_word = (start + self.STEP_WORDS) % len(self.words)
        return [classifier.classify(word, providers) for word in batch]

    def check_step(self, results) -> None:
        for result in results:
            seen = self._labels.setdefault(result.word, result)
            check(seen == result, f"classify({result.word!r}) differs between runs")


# --- live_stub ----------------------------------------------------------


class LiveStub(Workload):
    name = "live_stub"
    steps_per_round = 30
    n_providers = len(SITES)
    DELAY_S = 0.001
    MIN_INTERVAL_S = 0.0001
    job_metric = ("live_cold_words_per_s", "1/s", None)  # size set in prepare
    step_metric = ("live_warm_words_per_s", "1/s", None)

    def prepare(self) -> None:
        out = self.workdir / "live"
        subprocess.run(
            [sys.executable, str(Path(__file__).parent / "generate.py"), "live", str(out), "--seed", str(self.seed)],
            check=True,
        )
        self.words = json.loads((out / "words.json").read_text(encoding="utf-8"))["words"]
        pages = {
            site: {p.stem: p.read_text(encoding="utf-8") for p in sorted((out / "pages" / site).glob("*.html"))}
            for site in SITES
        }
        self.stub = StubSession(SITES, pages, self.DELAY_S)
        reference = [SnapshotProvider(out / f"{site}.json") for site in SITES]
        self.expected = [classifier.classify(word, reference) for word in self.words]
        self.job_metric = ("live_cold_words_per_s", "1/s", len(self.words))
        self.step_metric = ("live_warm_words_per_s", "1/s", len(self.words))
        self.round = 0
        self.cache = self.workdir / "cache-0"

    def _providers(self) -> list:
        return [
            self._provider(
                "providers.httpdict",
                CachedHttpProvider,
                site,
                self.cache,
                self.MIN_INTERVAL_S,
                self.stub,
            )
            for site in SITES
        ]

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        tracer.patch(self.stub, "get", tracer.wrap("stub.get", self.stub.get))

    def setup(self):
        self.state = self._providers()

    def _pass(self, providers):
        sent, waited = len(self.stub.requests), self.stub.wait_s
        results = [classifier.classify(word, providers) for word in self.words]
        if self.tracer is not None:
            self.tracer.count("stub.wait_s", self.stub.wait_s - waited)
        return results, self.stub.requests[sent:]

    def job(self):
        """Cold pass: the set-up's providers over the round's empty cache directory."""
        return self._pass(self.state)

    def step(self):
        """Warm pass: new providers over the directory the cold pass filled."""
        return self._pass(self._providers())

    def check_job(self, output) -> None:
        results, requests = output
        check(results == self.expected, "cold-pass labels differ from the snapshot reference")
        check(len(requests) == len(set(requests)), "cold pass requested a word twice")
        cached = {
            (p.parent.name, urllib.parse.unquote(p.name[: -len(".json")]))
            for p in self.cache.glob("*/*.json")
        }
        check(set(requests) == cached, "requests differ from the (provider, word) entries cached")

    def check_step(self, output) -> None:
        results, requests = output
        check(results == self.expected, "warm-pass labels differ from the snapshot reference")
        check(not requests, f"warm pass made {len(requests)} requests")

    def end_round(self) -> None:
        shutil.rmtree(self.cache)
        self.round += 1
        self.cache = self.workdir / f"cache-{self.round}"


# --- cli_cold -----------------------------------------------------------

# What the installed ``lexgender`` console script runs.
_ENTRY = "import sys; from lexgender.cli import main; sys.exit(main(sys.argv[1:]))"


class CliCold(Workload):
    name = "cli_cold"
    steps_per_round = 1
    job_metric = ("cli_evaluate_s", "s", None)
    step_metric = ("cli_classify_s", "s", None)
    PROBES = 5

    def prepare(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        gold = evaluation.load_gold(gold_path())
        providers = [SnapshotProvider(snapshot_path(pid)) for pid in BUNDLED_SNAPSHOT_IDS]
        report = evaluation.evaluate_results(evaluation.classify_gold(gold, providers), gold)
        self.expected_report = json.loads(json.dumps(report.to_dict()))
        self.words = self.rng.sample(sorted({entry.word for entry in gold}), 3)
        self.expected_rows = [
            {
                "word": r.word,
                "combined": r.combined.value,
                "route": r.route,
                "providers": [[v.provider_id, v.label.value, v.masc_count, v.fem_count] for v in r.verdicts],
            }
            for r in (classifier.classify(word, providers) for word in self.words)
        ]
        self._run("cli.warmup", ["-c", _ENTRY, "evaluate", "--format", "json"])  # writes bytecode caches

    def _run(self, name: str, args: list[str]) -> subprocess.CompletedProcess:
        def run():
            return subprocess.run(
                [sys.executable, *args], env=self.env, capture_output=True, text=True, timeout=120
            )

        if self.tracer is not None:
            run = self.tracer.wrap(name, run, span=True)
        proc = run()
        check(proc.returncode == 0, f"{name} exited {proc.returncode}: {proc.stderr[-500:]}")
        return proc

    def setup(self):
        self._run("cli.import", ["-c", "import lexgender.cli"])

    def job(self):
        return self._run("cli.evaluate", ["-c", _ENTRY, "evaluate", "--format", "json"])

    def check_job(self, proc) -> None:
        check(json.loads(proc.stdout) == self.expected_report, "CLI evaluate JSON != evaluate_results().to_dict()")

    def step(self):
        return self._run("cli.classify", ["-c", _ENTRY, "classify", "--format", "json", *self.words])

    def check_step(self, proc) -> None:
        rows = [
            {
                "word": row["word"],
                "combined": row["combined"],
                "route": row["route"],
                "providers": [[p["provider"], p["label"], p["masc_count"], p["fem_count"]] for p in row["providers"]],
            }
            for row in json.loads(proc.stdout)
        ]
        check(rows == self.expected_rows, "CLI classify JSON != in-process classify")

    def probe(self) -> None:
        """Interpreter start and import times, from fresh interpreters."""
        interpreter, imports, requests_ = [], [], []
        for _ in range(self.PROBES):
            start = perf_counter()
            self._run("cli.interpreter", ["-c", "pass"])
            interpreter.append(perf_counter() - start)
            proc = self._run("cli.importtime", ["-X", "importtime", "-c", "import lexgender.cli"])
            cli_s, requests_s = _import_times(proc.stderr)
            imports.append(cli_s)
            requests_.append(requests_s)
        self.probes = {
            "cli.interpreter_s": median(interpreter),
            "cli.import_s": median(imports),
            "cli.import_requests_s": median(requests_),
        }

    def peak_rss_kb(self) -> int:
        import resource

        return max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )


def _import_times(stderr: str) -> tuple[float, float]:
    """Cumulative seconds of ``lexgender.cli`` and ``requests`` from ``-X importtime``.

    ``lexgender.cli`` includes its parent package. ``requests`` reads 0 when
    importing ``lexgender.cli`` does not import it.
    """
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, module = (part.strip() for part in line[len("import time:"):].split("|"))
        times.setdefault(module, int(cumulative) / 1e6)
    return times["lexgender.cli"], times.get("requests", 0.0)


WORKLOADS = {cls.name: cls for cls in (GoldGrid, CorpusWndb, LiveStub, CliCold)}
