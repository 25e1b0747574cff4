"""Command-line interface.

Subcommands: classify, evaluate, grid-search, corpus-report, snapshot.
With no dictionary options the bundled snapshots are used, so everything
works offline out of the box.

Exit codes: 0 success, 1 usage or environment error, 2 transport error,
3 malformed data file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import data as bundled
from .classifier import ClassificationResult, classify
from .core import (
    ClassifierParams,
    GRID_D_RANGE,
    GRID_T_RANGE,
    GRID_W_RANGE,
    default_lexicon,
)
from .corpus import composition_report, classify_inventory, gendered_sample, ingest_tagged
from .errors import DataFormatError, TransportError, open_utf8
from .evaluation import classify_gold, evaluate_results, grid_search, load_gold
from .providers import Provider, SnapshotProvider, WordNetProvider, snapshot_write

CACHE_ENV_VAR = "LEXGENDER_CACHE"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRANSPORT = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Command(_Parser):
    """A subcommand: words on both sides of options; its own usage on an error."""

    def parse_known_args(self, args=None, namespace=None):
        if namespace is None:  # called for the subcommand, not from inside the intermixed parse
            return self.parse_intermixed_args(args, argparse.Namespace()), []
        return super().parse_known_args(args, namespace)


def _source_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("dictionaries")
    group.add_argument(
        "--wordnet",
        metavar="DIR",
        help="add a WordNet source read from WNDB files in DIR "
        "(use 'bundled' for the packaged miniature database)",
    )
    group.add_argument(
        "--snapshot",
        action="append",
        default=[],
        metavar="FILE",
        help="add a frozen snapshot source (repeatable)",
    )
    group.add_argument(
        "--live",
        action="append",
        default=[],
        choices=["merriam_webster", "dictionary_com"],
        help="add a live online source (repeatable; needs network)",
    )
    group.add_argument(
        "--cache-root",
        metavar="DIR",
        help=f"cache directory for live sources (default ${CACHE_ENV_VAR} or ~/.cache/lexgender)",
    )
    group.add_argument(
        "--min-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="minimum delay between requests to one live source (default 1.0)",
    )
    group.add_argument(
        "--offline",
        action="store_true",
        help="forbid live sources; with no other dictionary options, use the bundled snapshots",
    )


def _param_options(parser: argparse.ArgumentParser) -> None:
    tuning = parser.add_argument_group("classifier parameters")
    default = ClassifierParams()
    tuning.add_argument("-d", type=int, default=default.d, help="definitions per dictionary (default %(default)s)")
    tuning.add_argument("-t", type=int, default=default.t, help="tokens per definition (default %(default)s)")
    tuning.add_argument("-w", type=int, default=default.w, help="seed pairs used (default %(default)s)")


def _format_option(parser: argparse.ArgumentParser, *formats: str) -> None:
    parser.add_argument(
        "--format", choices=formats, default="table", help="output format (default table)"
    )


def _word_options(parser: argparse.ArgumentParser, words_help: str) -> None:
    parser.add_argument("words", nargs="*", help=words_help)
    parser.add_argument("--words-from", metavar="FILE", help="file with one word per line (or gold TSV)")


def _build_providers(args, parser: _Parser) -> list[Provider]:
    providers: list[Provider] = []
    if args.wordnet:
        directory = bundled.wndb_dir() if args.wordnet == "bundled" else Path(args.wordnet)
        providers.append(WordNetProvider(directory))
    for path in args.snapshot:
        providers.append(SnapshotProvider(path))
    if args.live and args.offline:
        parser.error("--offline forbids --live sources")
    if args.live:
        from .providers.httpdict import CachedHttpProvider  # offline runs never load it

        cache_root = args.cache_root or os.environ.get(CACHE_ENV_VAR)
        if not cache_root:
            cache_root = Path.home() / ".cache" / "lexgender"
        for provider_id in args.live:
            providers.append(
                CachedHttpProvider(
                    provider_id,
                    cache_root=cache_root,
                    min_request_interval=args.min_interval,
                )
            )
    if not providers:
        providers = [
            SnapshotProvider(bundled.snapshot_path(pid)) for pid in bundled.BUNDLED_SNAPSHOT_IDS
        ]
    ids = [p.provider_id for p in providers]
    if len(set(ids)) != len(ids):
        parser.error(f"duplicate provider ids: {ids}")
    return providers


def _params(args) -> ClassifierParams:
    params = ClassifierParams(d=args.d, t=args.t, w=args.w)
    default_lexicon().check_w(params.w)  # the CLI counts with the default lexicon
    return params


def _result_row(result: ClassificationResult) -> dict:
    return {
        "word": result.word,
        "combined": result.combined.value,
        "route": result.route,
        "providers": [
            {
                "provider": v.provider_id,
                "label": v.label.value,
                "masc_count": v.masc_count,
                "fem_count": v.fem_count,
                "definitions_used": v.definitions_used,
            }
            for v in result.verdicts
        ],
    }


def _print_results(results: list[ClassificationResult], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([_result_row(r) for r in results], indent=2, sort_keys=True))
        return
    if fmt == "tsv":
        for r in results:
            votes = ",".join(f"{v.provider_id}={v.label.value}" for v in r.verdicts)
            print(f"{r.word}\t{r.combined.value}\t{r.route}\t{votes}")
        return
    for r in results:
        print(f"{r.word:<20} {r.combined.value:<10} via {r.route}")
        for v in r.verdicts:
            print(
                f"{'':<20}   {v.provider_id:<16} {v.label.value:<10}"
                f" masc={v.masc_count} fem={v.fem_count} defs={v.definitions_used}"
            )


def _classify_words(words: list[str], providers, params, jobs: int) -> list[ClassificationResult]:
    lexicon = default_lexicon()
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda w: classify(w, providers, params, lexicon), words))
    return [classify(word, providers, params, lexicon) for word in words]


def _words(args, parser: _Parser) -> list[str]:
    """The words given as arguments, then those of --words-from, lowercased.

    That file is a plain list or a gold-style TSV, whose first column is read.
    """
    words = [w.strip().lower() for w in args.words]
    if args.words_from:
        with open_utf8(args.words_from) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    words.append(line.split("\t")[0].strip().lower())
    if not words:
        parser.error("no words given (pass words or --words-from)")
    return words


def _cmd_classify(args, parser: _Parser) -> int:
    words = _words(args, parser)
    providers = _build_providers(args, parser)
    results = _classify_words(words, providers, _params(args), args.jobs)
    _print_results(results, args.format)
    return EXIT_OK


def _metrics_lines(name: str, metrics) -> list[str]:
    lines = [
        f"{name:<18} n={metrics.n}  acc={metrics.accuracy:.4f}  "
        f"P={metrics.weighted_precision:.4f}  R={metrics.weighted_recall:.4f}  "
        f"F1={metrics.weighted_f1:.4f}"
    ]
    header = "gold\\pred" + "".join(f"{label:>11}" for label in ("masc", "fem", "neut", "not_found"))
    lines.append(f"    {header}")
    for gold_label, row in zip(("masc", "fem", "neut"), metrics.confusion):
        lines.append(f"    {gold_label:<9}" + "".join(f"{n:>11}" for n in row))
    return lines


def _cmd_evaluate(args, parser: _Parser) -> int:
    providers = _build_providers(args, parser)
    gold_file = args.gold or bundled.gold_path()
    gold = load_gold(gold_file)
    results = classify_gold(gold, providers, _params(args))
    report = evaluate_results(results, gold, not_found_as_neut=args.not_found_as_neut)
    if args.format == "json":
        output = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    elif args.format == "tsv":
        lines = ["provider\tn\taccuracy\tprecision\trecall\tf1"]
        for name, metrics in report.per_provider.items():
            lines.append(
                f"{name}\t{metrics.n}\t{metrics.accuracy:.4f}"
                f"\t{metrics.weighted_precision:.4f}"
                f"\t{metrics.weighted_recall:.4f}\t{metrics.weighted_f1:.4f}"
            )
        output = "\n".join(lines)
    else:
        lines = []
        for name, metrics in report.per_provider.items():
            lines.extend(_metrics_lines(name, metrics))
        output = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
    else:
        print(output)
    return EXIT_OK


def _parse_range(text: str) -> range | tuple[int, ...]:
    """Accepts '2..10' (kept as a ``range``) or a comma list '5,10,15'."""
    lo, dots, hi = text.strip().partition("..")
    try:
        return range(int(lo), int(hi) + 1) if dots else tuple(int(part) for part in lo.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}: expected LO..HI or a comma list") from None


def _range_text(values: tuple[int, ...]) -> str:
    """``values`` as ``_parse_range`` reads them: 'LO..HI' when consecutive, else a comma list."""
    lo, hi = values[0], values[-1]
    return f"{lo}..{hi}" if values == tuple(range(lo, hi + 1)) else ",".join(map(str, values))


def _cmd_grid_search(args, parser: _Parser) -> int:
    providers = _build_providers(args, parser)
    gold_file = args.gold or bundled.gold_path()
    gold = load_gold(gold_file)
    result = grid_search(
        gold,
        providers,
        d_range=args.d_range,
        t_range=args.t_range,
        w_range=args.w_range,
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "best": {"d": result.best.d, "t": result.best.t, "w": result.best.w},
                    "best_accuracy": result.best_accuracy,
                    "table": [
                        {"d": d, "t": t, "w": w, "accuracy": acc}
                        for (d, t, w), acc in result.table.items()
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print("d\tt\tw\taccuracy")
        for (d, t, w), accuracy in result.table.items():
            print(f"{d}\t{t}\t{w}\t{accuracy:.4f}")
        print(
            f"best: d={result.best.d} t={result.best.t} w={result.best.w} "
            f"accuracy={result.best_accuracy:.4f}"
        )
    return EXIT_OK


def _cmd_corpus_report(args, parser: _Parser) -> int:
    providers = _build_providers(args, parser)
    with open_utf8(args.tagged) as fh:
        try:
            records = ingest_tagged(fh)
        except DataFormatError as exc:  # it names the line, not the file
            raise DataFormatError(f"{args.tagged}: {exc}") from None
    results = classify_inventory(records, providers, _params(args))
    report = composition_report(results, records)
    sample = gendered_sample(results) if args.format == "json" or args.sample_out else None
    if args.format == "json":
        payload = report.to_dict()
        payload["gendered_sample"] = sample
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.as_table())
    if args.sample_out:
        Path(args.sample_out).write_text("\n".join(sample) + "\n", encoding="utf-8")
        print(f"wrote {len(sample)} gendered nouns to {args.sample_out}", file=sys.stderr)
    return EXIT_OK


def _cmd_snapshot(args, parser: _Parser) -> int:
    providers = _build_providers(args, parser)
    source = providers[0]
    words = _words(args, parser)
    snapshot = snapshot_write(source, words, args.out)
    print(f"captured {len(snapshot['entries'])} entries from {source.provider_id} to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lexgender", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    p = sub.add_parser("classify", help="classify words by lexical gender")
    _word_options(p, "target words")
    _source_options(p)
    _param_options(p)
    _format_option(p, "table", "json", "tsv")
    p.add_argument("--jobs", type=int, default=1, help="concurrent classifications")
    p.set_defaults(func=_cmd_classify, parser=p)

    p = sub.add_parser("evaluate", help="score against a gold list")
    p.add_argument("--gold", metavar="FILE", help="gold TSV (default: bundled list)")
    p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    p.add_argument(
        "--not-found-as-neut",
        action="store_true",
        help="score not-found predictions as neutral instead of as their own class",
    )
    _source_options(p)
    _param_options(p)
    _format_option(p, "table", "json", "tsv")
    p.set_defaults(func=_cmd_evaluate, parser=p)

    p = sub.add_parser("grid-search", help="search (d, t, w) for best combined accuracy")
    p.add_argument("--gold", metavar="FILE", help="gold TSV (default: bundled list)")
    p.add_argument("--d-range", type=_parse_range, default=_range_text(GRID_D_RANGE), help="definitions range (default %(default)s)")
    p.add_argument("--t-range", type=_parse_range, default=_range_text(GRID_T_RANGE), help="token range (default %(default)s)")
    p.add_argument("--w-range", type=_parse_range, default=_range_text(GRID_W_RANGE), help="seed-pair range (default %(default)s)")
    _source_options(p)
    _format_option(p, "table", "json")
    p.set_defaults(func=_cmd_grid_search, parser=p)

    p = sub.add_parser("corpus-report", help="gender composition of a tagged corpus")
    p.add_argument("tagged", help="token<TAB>POS file, blank line between sentences")
    p.add_argument("--sample-out", metavar="FILE", help="also write the gendered-noun sample")
    _source_options(p)
    _param_options(p)
    _format_option(p, "table", "json")
    p.set_defaults(func=_cmd_corpus_report, parser=p)

    p = sub.add_parser("snapshot", help="freeze definitions from the first configured source")
    _word_options(p, "words to capture")
    p.add_argument("--out", required=True, metavar="FILE", help="snapshot file to write")
    _source_options(p)
    p.set_defaults(func=_cmd_snapshot, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, args.parser)  # usage errors name the subcommand
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except TransportError as exc:
        print(f"lexgender: transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except DataFormatError as exc:
        print(f"lexgender: bad data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"lexgender: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"lexgender: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
