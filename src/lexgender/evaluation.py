"""Metrics, confusion matrices, and the parameter grid search.

Scoring conventions:

- precision/recall/F1 are computed per gold class (masc, fem, neut) and
  averaged weighted by gold-class support, because the classes are
  unbalanced
- a not_found prediction is wrong for every gold class and is shown as a
  fourth predicted column; ``not_found_as_neut`` folds it into neut
  instead, for comparison against setups that score it that way
- per-class precision with zero predicted instances is defined as 0
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .classifier import (
    ROUTE_DICTIONARY,
    ClassificationResult,
    SeedHit,
    classify,
    combine,
    count_hits,
    label_from_counts,
    resolve,
    seed_hits,
)
from .core import (
    GOLD_LABELS,
    ClassifierParams,
    GenderLabel,
    GRID_D_RANGE,
    GRID_T_RANGE,
    GRID_W_RANGE,
    SeedLexicon,
    default_lexicon,
)
from .errors import DataFormatError, open_utf8
from .providers.base import Provider

GOLD_CATEGORIES = ("family", "misc", "occupation", "religion", "title")

#: Confusion matrix axes: gold rows x predicted columns.
CONFUSION_GOLD_AXIS = tuple(label.value for label in GOLD_LABELS)
CONFUSION_PREDICTED_AXIS = tuple(label.value for label in GenderLabel)


class GoldEntry(NamedTuple):
    word: str
    label: GenderLabel
    category: str


class Metrics(NamedTuple):
    """Scores for one prediction set against the gold list."""

    n: int
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: tuple[tuple[int, ...], ...]  # 3 gold rows x 4 predicted columns

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "confusion": {
                "gold_axis": list(CONFUSION_GOLD_AXIS),
                "predicted_axis": list(CONFUSION_PREDICTED_AXIS),
                "rows": [list(row) for row in self.confusion],
            },
        }


class EvalReport(NamedTuple):
    """Combined metrics plus the same metrics per provider.

    The first six fields are those of ``Metrics``. ``per_provider`` is keyed
    by provider id and always contains a "combined" entry mirroring the
    top-level numbers.
    """

    n: int
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: tuple[tuple[int, ...], ...]
    per_provider: dict[str, Metrics]

    def to_dict(self) -> dict:
        report = Metrics(*self[:6]).to_dict()
        report["per_provider"] = {
            name: metrics.to_dict() for name, metrics in self.per_provider.items()
        }
        return report


def load_gold(path: str | Path) -> list[GoldEntry]:
    """Read a gold TSV: word<TAB>label<TAB>category, "#" comment lines.

    Repeated identical rows are kept as separate instances (the bundled
    list counts each pairing of a word once, so a few words legitimately
    recur). A word appearing with two different labels is rejected as a
    contradiction.
    """
    entries: list[GoldEntry] = []
    seen_labels: dict[str, GenderLabel] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            word, label_text, category = (f.strip() for f in fields)
            if not word or word != word.lower():
                raise DataFormatError(f"{path}:{lineno}: word must be non-empty lowercase")
            try:
                label = GenderLabel(label_text)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: unknown label {label_text!r}") from None
            if label not in GOLD_LABELS:
                raise DataFormatError(f"{path}:{lineno}: {label_text!r} is not a gold label")
            if category not in GOLD_CATEGORIES:
                raise DataFormatError(f"{path}:{lineno}: unknown category {category!r}")
            if seen_labels.setdefault(word, label) != label:
                raise DataFormatError(
                    f"{path}:{lineno}: {word!r} already listed with label "
                    f"{seen_labels[word].value!r}"
                )
            entries.append(GoldEntry(word, label, category))
    return entries


def _score(
    predictions: Mapping[str, GenderLabel],
    gold: Sequence[GoldEntry],
    not_found_as_neut: bool = False,
) -> Metrics:
    if not gold:
        raise ValueError("cannot evaluate against an empty gold list")
    gold_index = {label: i for i, label in enumerate(GOLD_LABELS)}
    pred_index = {label: i for i, label in enumerate(GenderLabel)}
    matrix = [[0] * len(GenderLabel) for _ in GOLD_LABELS]
    for entry in gold:
        try:
            predicted = predictions[entry.word]
        except KeyError:
            raise ValueError(f"missing prediction for gold word {entry.word!r}") from None
        if not_found_as_neut and predicted is GenderLabel.NOT_FOUND:
            predicted = GenderLabel.NEUT
        matrix[gold_index[entry.label]][pred_index[predicted]] += 1

    n = len(gold)
    correct = sum(matrix[i][i] for i in range(len(GOLD_LABELS)))
    precision = recall = f1 = 0.0
    for i, label in enumerate(GOLD_LABELS):
        support = sum(matrix[i])
        if support == 0:
            continue
        predicted_count = sum(row[i] for row in matrix)
        class_precision = matrix[i][i] / predicted_count if predicted_count else 0.0
        class_recall = matrix[i][i] / support
        denom = class_precision + class_recall
        class_f1 = 2 * class_precision * class_recall / denom if denom else 0.0
        weight = support / n
        precision += weight * class_precision
        recall += weight * class_recall
        f1 += weight * class_f1
    return Metrics(
        n=n,
        accuracy=correct / n,
        weighted_precision=precision,
        weighted_recall=recall,
        weighted_f1=f1,
        confusion=tuple(tuple(row) for row in matrix),
    )


def evaluate(
    predictions: Mapping[str, GenderLabel],
    gold: Sequence[GoldEntry],
    not_found_as_neut: bool = False,
) -> EvalReport:
    """Score a single word -> predicted-label mapping against the gold list."""
    metrics = _score(predictions, gold, not_found_as_neut)
    return EvalReport(*metrics, per_provider={"combined": metrics})


def provider_predictions(
    results: Mapping[str, ClassificationResult], provider_id: str
) -> dict[str, GenderLabel]:
    """Single-dictionary labels implied by full results.

    Words decided by a heuristic carry that label for every dictionary; for
    dictionary-routed words the named provider's own verdict is used.
    """
    predictions = {}
    for word, result in results.items():
        if result.route != ROUTE_DICTIONARY:
            predictions[word] = result.combined
        else:
            by_id = {v.provider_id: v.label for v in result.verdicts}
            predictions[word] = by_id[provider_id]
    return predictions


def evaluate_results(
    results: Mapping[str, ClassificationResult],
    gold: Sequence[GoldEntry],
    not_found_as_neut: bool = False,
) -> EvalReport:
    """Score combined labels and each provider's own labels against gold."""
    combined = _score(
        {word: res.combined for word, res in results.items()}, gold, not_found_as_neut
    )
    per_provider: dict[str, Metrics] = {}
    provider_ids: list[str] = []
    for result in results.values():
        for verdict in result.verdicts:
            if verdict.provider_id not in provider_ids:
                provider_ids.append(verdict.provider_id)
    for provider_id in provider_ids:
        per_provider[provider_id] = _score(
            provider_predictions(results, provider_id), gold, not_found_as_neut
        )
    per_provider["combined"] = combined
    return EvalReport(*combined, per_provider=per_provider)


def classify_gold(
    gold: Sequence[GoldEntry],
    providers: Sequence[Provider],
    params: ClassifierParams | None = None,
    lexicon: SeedLexicon | None = None,
) -> dict[str, ClassificationResult]:
    """Classify every distinct gold word once."""
    results: dict[str, ClassificationResult] = {}
    for entry in gold:
        if entry.word not in results:
            results[entry.word] = classify(entry.word, providers, params, lexicon)
    return results


class GridSearchResult(NamedTuple):
    best: ClassifierParams
    best_accuracy: float
    table: dict[tuple[int, int, int], float]


def grid_search(
    gold: Sequence[GoldEntry],
    providers: Sequence[Provider],
    lexicon: SeedLexicon | None = None,
    d_range: Iterable[int] = GRID_D_RANGE,
    t_range: Iterable[int] = GRID_T_RANGE,
    w_range: Iterable[int] = GRID_W_RANGE,
) -> GridSearchResult:
    """Exhaustive combined-label accuracy search over (d, t, w) cells.

    Requires deterministic providers (snapshots or database files) so the
    search is reproducible; live providers are rejected. Ties are broken
    toward the lexicographically smallest (d, t, w).

    Every distinct gold word is routed, looked up and tokenized once, before
    the cells: its seed hits in each source answer every cell, which then
    only filters hits, votes and scores. Each cell's accuracy equals
    ``evaluate_results(classify_gold(gold, providers, cell), gold).accuracy``.
    """
    for provider in providers:
        if not provider.deterministic:
            raise ValueError(
                f"grid search requires deterministic providers; "
                f"{provider.provider_id!r} is live"
            )
    cells = [
        ClassifierParams(d=d, t=t, w=w)
        for d in sorted(set(d_range))
        for t in sorted(set(t_range))
        for w in sorted(set(w_range))
    ]
    if not cells:
        raise ValueError("empty grid: d, t and w ranges each need at least one value")
    if lexicon is None:
        lexicon = default_lexicon()

    def attempt(provider: Provider, word: str) -> tuple[SeedHit, ...] | None:
        found = provider.lookup(word)
        return None if found is None else seed_hits(found.definitions, lexicon)

    def vote(outcomes: tuple[tuple[SeedHit, ...] | None, ...], params: ClassifierParams) -> GenderLabel:
        return combine(
            [
                GenderLabel.NOT_FOUND if hits is None else label_from_counts(*count_hits(hits, params))
                for hits in outcomes
            ]
        )

    fixed: dict[str, GenderLabel] = {}
    counted: dict[str, tuple[tuple[SeedHit, ...] | None, ...]] = {}
    for entry in gold:
        if entry.word in fixed or entry.word in counted:
            continue
        _, _, label, outcomes = resolve(entry.word, providers, lexicon, attempt)
        if label is None and not any(outcomes):
            label = vote(outcomes, cells[0])  # no seed token in any source: alike in every cell
        if label is None:
            counted[entry.word] = outcomes
        else:
            fixed[entry.word] = label

    table: dict[tuple[int, int, int], float] = {}
    best = cells[0]
    best_accuracy = -1.0
    for params in cells:
        predictions = dict(fixed)
        for word, outcomes in counted.items():
            predictions[word] = vote(outcomes, params)
        accuracy = _score(predictions, gold).accuracy
        table[(params.d, params.t, params.w)] = accuracy
        if accuracy > best_accuracy:
            best, best_accuracy = params, accuracy
    return GridSearchResult(best=best, best_accuracy=best_accuracy, table=table)
