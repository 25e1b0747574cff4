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
from types import MappingProxyType
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
    """Scores for one prediction set against the gold list.

    ``per_provider`` is filled in only by ``evaluate_results``: the same
    scores for each provider's own labels, keyed by provider id, plus a
    "combined" entry mirroring the top-level numbers.
    """

    n: int
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: tuple[tuple[int, ...], ...]  # 3 gold rows x 4 predicted columns
    per_provider: Mapping[str, Metrics] = MappingProxyType({})

    def to_dict(self) -> dict:
        report = {
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
        if self.per_provider:
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


def evaluate(
    predictions: Mapping[str, GenderLabel],
    gold: Sequence[GoldEntry],
    not_found_as_neut: bool = False,
) -> Metrics:
    """Score a single word -> predicted-label mapping against the gold list."""
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
) -> Metrics:
    """Score combined labels and each provider's own labels against gold."""
    combined = evaluate({w: res.combined for w, res in results.items()}, gold, not_found_as_neut)
    provider_ids = dict.fromkeys(v.provider_id for res in results.values() for v in res.verdicts)
    per_provider = {
        provider_id: evaluate(provider_predictions(results, provider_id), gold, not_found_as_neut)
        for provider_id in provider_ids
    }
    per_provider["combined"] = combined
    return combined._replace(per_provider=MappingProxyType(per_provider))


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


#: Most cells one grid search scores; the default grid has 441.
MAX_GRID_CELLS = 100_000


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
    toward the lexicographically smallest (d, t, w). A grid of more than
    ``MAX_GRID_CELLS`` cells is rejected.

    Every distinct gold word is routed, looked up and tokenized once, and votes
    once per distinct set of its seed hits that cells admit; its score in a cell
    is the gold rows its vote there gets right. A word that scores alike in
    every cell adds to a fixed total once; any other gives a column of its
    scores in cell order, and a cell sums the columns. Its accuracy equals
    ``evaluate_results(classify_gold(gold, providers, cell), gold).accuracy``.
    """
    from bisect import bisect_left
    from itertools import product, repeat

    for provider in providers:
        if not provider.deterministic:
            raise ValueError(
                f"grid search requires deterministic providers; "
                f"{provider.provider_id!r} is live"
            )
    axes = [  # ascending distinct values; a range (as the CLI passes) is not expanded
        values if isinstance(values, range) and values.step > 0 else sorted(set(values))
        for values in (d_range, t_range, w_range)
    ]
    n_cells = len(axes[0]) * len(axes[1]) * len(axes[2])
    if not n_cells:
        raise ValueError("empty grid: d, t and w ranges each need at least one value")
    if n_cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {n_cells} cells exceeds the limit of {MAX_GRID_CELLS}")
    first = ClassifierParams(*[axis[0] for axis in axes])  # no cell is below it on any axis
    if not gold:
        raise ValueError("cannot evaluate against an empty gold list")
    if lexicon is None:
        lexicon = default_lexicon()
    lexicon.check_w(axes[2][-1])

    def vote(outcomes: tuple[tuple[SeedHit, ...] | None, ...], params: ClassifierParams) -> GenderLabel:
        return combine(
            [
                GenderLabel.NOT_FOUND if hits is None else label_from_counts(*count_hits(hits, params))
                for hits in outcomes
            ]
        )

    tally: dict[str, dict[GenderLabel, int]] = {}  # gold may list a word more than once
    for entry in gold:
        labels = tally.setdefault(entry.word, {})
        labels[entry.label] = labels.get(entry.label, 0) + 1
    fixed = 0
    columns = []
    for word, labels in tally.items():
        _, _, label, found = resolve(word, providers, lexicon)
        outcomes = tuple([None if defs is None else seed_hits(defs.definitions, lexicon) for defs in found])
        if label is None and not any(outcomes):
            label = vote(outcomes, first)  # no seed token in any source: alike in every cell
        if label is not None:
            fixed += labels.get(label, 0)
            continue
        # a cell admits the hits whose definition, token and pair indexes are among
        # the first i, j and k distinct ones of the word: (i, j, k) keys its vote,
        # cast at the smallest axis values that give each of i, j and k
        definitions, tokens, pairs, _ = zip(*[hit for hits in outcomes if hits for hit in hits])
        seen = [sorted(set(indexes)) for indexes in (definitions, tokens, pairs)]
        cuts = [[bisect_left(s, value) for value in axis] for s, axis in zip(seen, axes)]
        smallest = [dict(zip(reversed(cut), reversed(axis))) for cut, axis in zip(cuts, axes)]
        scores = {
            key: labels.get(vote(outcomes, ClassifierParams(*map(dict.__getitem__, smallest, key))), 0)
            for key in product(*smallest)
        }
        distinct = set(scores.values())
        if len(distinct) == 1:  # e.g. wrong in every cell, whatever its label
            fixed += distinct.pop()
        else:
            columns.append(map(scores.__getitem__, product(*cuts)))  # its score in each cell

    totals = list(map(sum, zip(repeat(fixed, n_cells), *columns)))
    table = dict(zip(product(*axes), [correct / len(gold) for correct in totals]))
    best = totals.index(max(totals))  # the first maximum: cells are in ascending (d, t, w) order
    return GridSearchResult(ClassifierParams(*list(table)[best]), totals[best] / len(gold), table)
