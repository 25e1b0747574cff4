"""Layer tracing from outside the library.

``Tracer.install`` rebinds the library's public functions at the module
attributes their callers read them from (for example
``lexgender.classifier.tokenize``, which ``count_gendered`` looks up at
call time), and ``TracedProvider`` wraps a provider behind the same
``Provider`` protocol. Nothing in the library changes; ``uninstall`` puts
every original back.

Two kinds of record are kept, both in memory:

- spans (id, parent id, name, start, end) for the coarse calls: benchmark
  operations, grid searches, corpus stages, provider loads, subprocesses;
- for every traced name, per root operation, a call count, total time and
  self time (total minus the time of traced calls made inside it). The
  hottest calls (``tokenize``, ``count_gendered``, lookups) are kept only
  this way, so memory stays bounded however long the run is.

A name's layer is its prefix before the last dot (``classifier.tokenize``
is in ``classifier``); benchmark operations (``op.*``) are the ``bench``
layer.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def layer_of(name: str) -> str:
    layer = name.rsplit(".", 1)[0]
    return "bench" if layer == "op" else layer


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[tuple[str, str], list] = {}  # (root, name) -> [calls, total, self]
        self.counts: Counter = Counter()  # (root, key) -> n
        self._stack: list[list] = []  # frames: [name, child time, span id]
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    # --- recording -----------------------------------------------------

    def _root(self) -> str:
        return self._stack[0][0] if self._stack else "none"

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self._root(), key)] += n

    def _enter(self, name: str, span: bool) -> tuple[list, int, float]:
        stack = self._stack
        parent = stack[-1][2] if stack else 0
        sid = parent
        if span:
            sid = self._next_span
            self._next_span += 1
        frame = [name, 0.0, sid]
        stack.append(frame)
        return frame, parent, perf_counter()

    def _exit(self, frame: list, parent: int, start: float, span: bool) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - start
        name = frame[0]
        key = (stack[0][0] if stack else name, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if span:
            self.spans.append((frame[2], parent, name, start - self._t0, end - self._t0))

    def wrap(self, name: str, fn, span: bool = False, observe=None):
        """``fn`` recorded under ``name``; ``observe(args, result)`` runs after each call."""

        def traced(*args, **kwargs):
            frame, parent, start = self._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, parent, start, span)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        frame, parent, start = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame, parent, start, True)

    # --- rebinding at use sites ------------------------------------------

    def patch(self, owner: object, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Rebind the library's public functions at the attributes callers read."""
        from lexgender import classifier, core, corpus, evaluation
        from lexgender.providers import httpdict

        for form in ("feminine_forms", "masculine_forms"):
            self.patch(core.SeedLexicon, form, self.wrap(f"core.{form}", getattr(core.SeedLexicon, form)))
        for name in ("tokenize", "count_gendered", "classify_with_provider", "combine"):
            self.patch(classifier, name, self.wrap(f"classifier.{name}", getattr(classifier, name)))
        classify = self.wrap(
            "classifier.classify",
            classifier.classify,
            observe=lambda args, result: self.count(f"classifier.route.{result.route}"),
        )
        for module in (classifier, evaluation, corpus):
            self.patch(module, "classify", classify)
        for name in ("grid_search", "classify_gold", "evaluate_results"):
            self.patch(evaluation, name, self.wrap(f"evaluation.{name}", getattr(evaluation, name), span=True))
        for name in ("ingest_tagged", "composition_report"):
            self.patch(corpus, name, self.wrap(f"corpus.{name}", getattr(corpus, name), span=True))
        self.patch(
            corpus,
            "classify_inventory",
            self.wrap(
                "corpus.classify_inventory",
                corpus.classify_inventory,
                span=True,
                observe=lambda args, result: self.count("corpus.distinct_surfaces", len(result)),
            ),
        )
        self.patch(
            httpdict,
            "extract_definitions_html",
            self.wrap(
                "providers.htmlextract.extract",
                httpdict.extract_definitions_html,
                observe=lambda args, result: self.count("providers.htmlextract.chars", len(args[0])),
            ),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reading ---------------------------------------------------------

    def calls(self, name: str, root: str | None = None) -> int:
        return sum(s[0] for (r, n), s in self.stats.items() if n == name and root in (None, r))

    def total(self, name: str, root: str | None = None) -> float:
        return sum(s[1] for (r, n), s in self.stats.items() if n == name and root in (None, r))

    def counted(self, key: str, root: str | None = None) -> float:
        return sum(v for (r, k), v in self.counts.items() if k == key and root in (None, r))

    def per_call(self, name: str, root: str | None = None, scale: float = 1.0) -> float:
        """Mean time per call of ``name`` times ``scale``; 0 when it was never called."""
        calls = self.calls(name, root)
        return self.total(name, root) / calls * scale if calls else 0.0

    def self_time_by_layer(self, root: str) -> dict[str, float]:
        layers: Counter = Counter()
        for (r, name), stat in self.stats.items():
            if r == root:
                layers[layer_of(name)] += stat[2]
        return dict(layers)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(meta)
        payload["spans"] = [
            {"id": i, "parent": p, "name": n, "start_s": s, "end_s": e} for i, p, n, s, e in self.spans
        ]
        payload["aggregates"] = [
            {"root": r, "name": n, "calls": s[0], "total_s": s[1], "self_s": s[2]}
            for (r, n), s in sorted(self.stats.items())
        ]
        payload["counts"] = [{"root": r, "key": k, "value": v} for (r, k), v in sorted(self.counts.items())]
        path.write_text(json.dumps(payload), encoding="utf-8")


class TracedProvider:
    """A ``Provider`` that records each lookup under ``<layer>.lookup``."""

    def __init__(self, inner, layer: str, tracer: Tracer):
        self.provider_id = inner.provider_id
        self.deterministic = inner.deterministic
        self.lookup = tracer.wrap(
            f"{layer}.lookup",
            inner.lookup,
            observe=lambda args, result: tracer.count(f"{layer}.found", result is not None),
        )
