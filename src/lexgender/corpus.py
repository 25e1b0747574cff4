"""Noun extraction from POS-tagged text and corpus-level gender reports.

The input is already tagged (token<TAB>POS lines, blank line between
sentences); tagging itself is outside this package, so the pipeline stays
deterministic and dependency-light. Only NN/NNS rows are kept, surfaces
are counted per (surface, POS) pair, and the whole inventory can be
classified and tabulated per gender label.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Iterable, Mapping, NamedTuple, Sequence

from .classifier import ClassificationResult, ROUTE_DICTIONARY, classify
from .core import ClassifierParams, GenderLabel, SeedLexicon
from .errors import DataFormatError, TransportError

NOUN_TAGS = ("NN", "NNS")

# Lines read and counted per batch by ingest_tagged; one batch is held in
# memory at a time.
_BATCH_LINES = 16384


class NounRecord(NamedTuple):
    surface: str
    pos: str
    frequency: int


class CompositionReport(NamedTuple):
    """Distinct-noun counts per gender label and POS tag."""

    counts: dict[str, dict[str, int]]  # label value -> {"NN": n, "NNS": n, "all": n}
    total: int

    def to_dict(self) -> dict:
        return {"counts": self.counts, "total": self.total}

    def as_table(self) -> str:
        header = f"{'label':<11}{'NN':>7}{'NNS':>7}{'all':>7}"
        lines = [header]
        for label in GenderLabel:
            row = self.counts[label.value]
            lines.append(f"{label.value:<11}{row['NN']:>7}{row['NNS']:>7}{row['all']:>7}")
        nn = sum(self.counts[l.value]["NN"] for l in GenderLabel)
        nns = sum(self.counts[l.value]["NNS"] for l in GenderLabel)
        lines.append(f"{'all':<11}{nn:>7}{nns:>7}{self.total:>7}")
        return "\n".join(lines)


def _clean_surface(token: str) -> str | None:
    """Lowercased surface, or None when it contains disallowed characters.

    Tokens with characters outside letters, hyphen, and apostrophe are
    tagging or cleaning artifacts and are dropped.
    """
    surface = token.lower()
    letters = surface.replace("-", "").replace("'", "")
    if not surface or (letters and not letters.isalpha()):
        return None
    return surface


class InventoryAborted(TransportError):
    """A live lookup failed mid-inventory; carries the completed portion."""

    def __init__(self, word: str, partial: dict[str, ClassificationResult], cause: Exception):
        super().__init__(f"classification aborted at {word!r}: {cause}")
        self.word = word
        self.partial = partial


def _noun_key(line: str) -> tuple[str, str] | None:
    """The (surface, POS) one tagged line counts toward, or None if it counts toward none.

    Raises ValueError for a line that is neither blank nor token<TAB>POS.
    """
    line = line.rstrip("\n")
    if not line.strip():
        return None
    fields = line.split("\t")
    if len(fields) != 2 or not fields[0] or not fields[1]:
        raise ValueError(f"expected token<TAB>POS, got {line!r}")
    token, pos = fields
    if pos not in NOUN_TAGS:
        return None
    surface = _clean_surface(token)
    return None if surface is None else (surface, pos)


def _noun_counts(lines: Iterable[str]) -> dict[tuple[str, str], int]:
    """Frequency per (surface, POS), splitting and checking each distinct line once.

    Identical lines are counted in C, one batch at a time; the batch and
    the distinct lines are all that is held in memory.
    """
    line_counts: Counter[str] = Counter()
    keys: list[tuple[str, str] | None] = []  # one per line_counts entry, same order
    lines = iter(lines)
    batch_start = 0
    while batch := list(islice(lines, _BATCH_LINES)):
        seen = len(line_counts)
        line_counts.update(batch)  # a new line is appended at its first occurrence
        for line in islice(line_counts, seen, None):
            try:
                keys.append(_noun_key(line))
            except ValueError as exc:
                lineno = batch_start + batch.index(line) + 1
                raise DataFormatError(f"line {lineno}: {exc}") from None
        batch_start += len(batch)
    counts: dict[tuple[str, str], int] = {}
    for key, frequency in zip(keys, line_counts.values()):
        if key is not None:
            counts[key] = counts.get(key, 0) + frequency
    return counts


def ingest_tagged(lines: Iterable[str]) -> list[NounRecord]:
    """NN/NNS records aggregated from token<TAB>POS lines, sorted.

    Blank lines are sentence breaks. Rows with other POS tags are skipped;
    noun rows whose token has disallowed characters are dropped. A
    malformed line raises DataFormatError naming the first one by line
    number.
    """
    counts = _noun_counts(lines)
    return [NounRecord(surface, pos, counts[surface, pos]) for surface, pos in sorted(counts)]


def classify_inventory(
    records: Sequence[NounRecord],
    providers: Sequence,
    params: ClassifierParams | None = None,
    lexicon: SeedLexicon | None = None,
) -> dict[str, ClassificationResult]:
    """Classify each distinct surface once.

    NN and NNS records share a result only when their surfaces are
    identical. A transport error aborts the run but hands back everything
    classified so far, so a cached rerun can resume cheaply.
    """
    results: dict[str, ClassificationResult] = {}
    for record in records:
        if record.surface in results:
            continue
        try:
            results[record.surface] = classify(record.surface, providers, params, lexicon)
        except TransportError as exc:
            raise InventoryAborted(record.surface, results, exc) from exc
    return results


def gendered_sample(results: Mapping[str, ClassificationResult]) -> list[str]:
    """Words any single dictionary (or a heuristic) called masculine or feminine.

    Deliberately wider than the combined label: a word two dictionaries
    call neutral and one calls masculine is included. Heuristic-routed
    words always qualify, since every dictionary run would label them with
    their heuristic gender.
    """
    gendered = (GenderLabel.MASC, GenderLabel.FEM)
    sample = []
    for word, result in results.items():
        if result.route != ROUTE_DICTIONARY:
            if result.combined in gendered:
                sample.append(word)
        elif any(v.label in gendered for v in result.verdicts):
            sample.append(word)
    return sorted(sample)


def composition_report(
    results: Mapping[str, ClassificationResult], records: Sequence[NounRecord]
) -> CompositionReport:
    """Tabulate distinct (surface, POS) nouns per combined label and POS."""
    counts = {
        label.value: {"NN": 0, "NNS": 0, "all": 0} for label in GenderLabel
    }
    for record in records:
        try:
            label = results[record.surface].combined
        except KeyError:
            raise ValueError(f"no classification result for {record.surface!r}") from None
        counts[label.value][record.pos] += 1
        counts[label.value]["all"] += 1
    return CompositionReport(counts=counts, total=len(records))
