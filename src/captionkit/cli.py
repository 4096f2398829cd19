"""Command-line entry point wiring all modules into subcommands.

Exit codes: 0 success, 1 strict-mode validation findings, 2 configuration or
parse errors. Reports are JSON (sorted keys) on stdout or ``--out``; corpora
are written as captions JSONL. Stochastic subcommands require an explicit
``--seed`` so identical invocations give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable, Sequence

from . import augment as aug
from . import bleu as bleu_mod
from . import confusion as conf
from . import discover
from . import readability as read_mod
from . import vocabstats
from .corpus import (
    CAPTION_FORMATS,
    atomic_write,
    ingest_captions,
    ingest_labels,
    ingest_predictions,
    jsonl_lines,
    validate,
    write_csv,
)
from .exceptions import CaptionKitError, ConfigurationError, DegenerateInputError
from .translate import HttpTranslator, MockTranslator, TranslationChain

API_KEY_ENV = "CAPTIONKIT_TRANSLATE_API_KEY"

CAPTIONS_SCHEMA = (
    'captions jsonl: {"image_id": str, "split"?: str, "scene"?: str, "captions": [str, ...]}; '
    'rsicd_json: {"images": [{"filename", "split", "sentences": [{"raw"}], "class"?}]}'
)
LABELS_SCHEMA = 'labels jsonl: {"image_id": str, "scene": str, "objects": [str, ...]}'
PREDICTIONS_SCHEMA = 'predictions jsonl: {"image_id": str, "caption": str}'

def _emit(output: dict | Iterable[str], out: str | None) -> None:
    """Write a JSON report (a dict) or text chunks to stdout, or atomically to ``out``."""
    if isinstance(output, dict):
        output = [json.dumps(output, indent=2, sort_keys=True) + "\n"]
    with atomic_write(out) if out else nullcontext(sys.stdout) as fh:
        fh.writelines(output)


def _add_captions_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--captions", required=True, help=f"input corpus ({CAPTIONS_SCHEMA})")
    parser.add_argument(
        "--format", choices=CAPTION_FORMATS, default="jsonl", help="captions file format"
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = ingest_captions(args.captions, args.format)
    _emit(jsonl_lines(corpus), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    corpus = ingest_captions(args.captions, args.format)
    findings = validate(corpus, strict_rsicd=args.strict)
    _emit(
        {
            "strict": args.strict,
            "finding_count": len(findings),
            "findings": [f.to_dict() for f in findings],
        },
        args.out,
    )
    return 1 if args.strict and findings else 0


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = ingest_captions(args.captions, args.format)
    prof = vocabstats.profile(corpus)
    payload = prof.to_dict()
    if args.top_k is not None:
        coverage = vocabstats.top_k_coverage(prof, args.top_k)
        payload["top_k"] = {
            "k": args.top_k,
            "fraction": coverage.fraction,
            "covered_tokens": coverage.covered_tokens,
        }
    if args.freq_csv:
        vocabstats.frequency_export(prof, args.freq_csv)
    _emit(payload, args.out)
    return 0


def _format_table(columns: list[tuple[str, read_mod.ReadabilityReport]]) -> str:
    label_width = max(len(label) for _, _, label, _ in read_mod.PANEL)
    widths = [max(len(name), 14) for name, _ in columns]

    def row(label: str, cells: list[str]) -> str:
        padded = [label.ljust(label_width)] + [c.rjust(w) for c, w in zip(cells, widths)]
        return "  ".join(padded).rstrip() + "\n"

    return row("", [name for name, _ in columns]) + "".join(
        row(label, [fmt.format(getattr(report, attr)) for _, report in columns])
        for attr, _, label, fmt in read_mod.PANEL
    )


def cmd_readability(args: argparse.Namespace) -> int:
    corpus = ingest_captions(args.captions, args.format)
    reports = [(args.captions, read_mod.report(corpus))]
    if args.compare:
        other = ingest_captions(args.compare, args.compare_format)
        reports.append((args.compare, read_mod.report(other)))
    if args.compare or args.table:
        sys.stdout.write(_format_table(reports))
        if args.out:
            _emit({name: rep.to_dict() for name, rep in reports}, args.out)
    else:
        _emit(reports[0][1].to_dict(), args.out)
    return 0


def cmd_bleu(args: argparse.Namespace) -> int:
    predictions = ingest_predictions(args.predictions)
    references = ingest_captions(args.references, args.references_format)
    overall, per_image, missing = bleu_mod.score_predictions(predictions, references)
    reason = f"{len(missing)} ids missing from references, the rest without tokens"
    if not per_image:
        raise DegenerateInputError(f"no prediction could be scored: {reason}")
    if len(per_image) < len(predictions):
        print(f"warning: {len(predictions) - len(per_image)} predictions skipped: {reason}", file=sys.stderr)
    report = overall.to_dict()
    if args.per_image:
        rows = ([image_id, *result.to_dict().values()] for image_id, result in per_image)
        write_csv(args.per_image, ["image_id", *report], rows)
    _emit(report, args.out)
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    corpus = ingest_captions(args.captions, args.format)
    if args.strategy == "correct":
        rules = aug.CorrectionRules(
            dictionary=aug.load_dictionary(args.dictionary),
            merge_patterns=aug.load_merge_rules(args.merge_rules) if args.merge_rules else (),
            manual_overrides=aug.load_overrides(args.overrides) if args.overrides else {},
        )
        result = aug.correct(corpus, rules, prune_duplicates=args.prune_duplicates)
    elif args.strategy == "synonym":
        thesaurus = aug.load_thesaurus(args.thesaurus)
        result = aug.synonym_expand(corpus, thesaurus, args.replacements, seed=args.seed)
    else:
        hops = tuple(h.strip() for h in args.chain.split(",") if h.strip())
        if args.mock:
            translator = MockTranslator()
        elif args.endpoint:
            translator = HttpTranslator(args.endpoint, api_key=os.environ.get(API_KEY_ENV))
        else:
            raise ConfigurationError("backtranslate needs --endpoint or --mock")
        chain = TranslationChain(hops, translator)
        result = aug.back_translate(
            corpus, chain, concurrency=args.workers, max_retries=args.retries
        )
    _emit(jsonl_lines(result), args.out)
    return 0


def cmd_confusion(args: argparse.Namespace) -> int:
    predictions = ingest_predictions(args.predictions)
    labels = ingest_labels(args.labels)
    if args.scenes:
        keywords = conf.load_scene_keywords(args.scenes)
    else:
        keywords = conf.default_scene_keywords(labels)
    attrs = conf.load_attributes(args.attributes) if args.attributes else ()
    report = conf.scene_matrix(
        predictions, labels, keywords, fold_plural_s=not args.no_plural_fold, attributes=attrs
    )
    if args.out:
        conf.matrix_export(report, args.out)
    _emit(report.to_dict(), str(Path(args.out) / "report.json") if args.out else None)
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    if args.action == "build":
        if args.predictions:
            documents = dict(ingest_predictions(args.predictions).entries)
        else:
            corpus = ingest_captions(args.captions, args.format)
            documents = {
                record.image_id: " ".join(cap.raw for cap in record.captions)
                for record in corpus.records
            }
        discover.save_index(discover.build_index(documents), args.out)
        return 0
    index = discover.load_index(args.index)
    for image_id in discover.query(index, args.terms):
        print(image_id)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="captionkit",
        description="Profile, augment, score, and search image-caption corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a corpus and emit normalized captions JSONL",
                       description=f"Input schemas -- {CAPTIONS_SCHEMA}")
    _add_captions_args(p)
    p.add_argument("--out", help="output JSONL path (default: stdout)")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("validate", help="report corpus findings; strict mode exits 1 on findings",
                       description=f"Input schemas -- {CAPTIONS_SCHEMA}")
    _add_captions_args(p)
    p.add_argument("--strict", action="store_true", help="require exactly 5 captions per image")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("stats", help="vocabulary profile: frequencies, hapaxes, duplicates",
                       description=f"Input schemas -- {CAPTIONS_SCHEMA}")
    _add_captions_args(p)
    p.add_argument("--top-k", type=int, help="also report top-k token coverage")
    p.add_argument("--freq-csv", help="write rank,token,count,cumulative_fraction CSV here")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("readability", help="readability metric panel, optionally side by side",
                       description=f"Input schemas -- {CAPTIONS_SCHEMA}")
    _add_captions_args(p)
    p.add_argument("--compare", help="second corpus for a side-by-side comparison table")
    p.add_argument("--compare-format", choices=CAPTION_FORMATS, default="jsonl")
    p.add_argument("--table", action="store_true", help="print the text table for a single corpus")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(handler=cmd_readability)

    p = sub.add_parser("bleu", help="BLEU-1..4 of predictions against a reference corpus",
                       description=f"Input schemas -- {PREDICTIONS_SCHEMA}; references: {CAPTIONS_SCHEMA}")
    p.add_argument("--predictions", required=True, help=PREDICTIONS_SCHEMA)
    p.add_argument("--references", required=True, help="reference corpus path")
    p.add_argument("--references-format", choices=CAPTION_FORMATS, default="jsonl")
    p.add_argument("--per-image", help="write per-image sentence-level scores CSV here")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(handler=cmd_bleu)

    p = sub.add_parser("augment", help="correct, synonym-expand, or back-translate a corpus")
    aug_sub = p.add_subparsers(dest="strategy", required=True)

    q = aug_sub.add_parser("correct", help="merge rules + spell correction + duplicate pruning",
                           description="Rules: dictionary (one word/line), merge rules TSV "
                                       "'bigram<TAB>replacement', overrides TSV 'word<TAB>replacement'.")
    _add_captions_args(q)
    q.add_argument("--dictionary", required=True, help="accepted words, one per line")
    q.add_argument("--merge-rules", "--rules", dest="merge_rules", help="TSV bigram<TAB>replacement")
    q.add_argument("--overrides", help="TSV word<TAB>replacement")
    q.add_argument("--prune-duplicates", action="store_true")
    q.add_argument("--out", help="output JSONL path (default: stdout)")
    q.set_defaults(handler=cmd_augment)

    q = aug_sub.add_parser("synonym", help="append seeded synonym-substituted caption variants",
                           description="Thesaurus: TSV 'word<TAB>syn1,syn2,...'. --seed is required.")
    _add_captions_args(q)
    q.add_argument("--thesaurus", required=True, help="TSV word<TAB>syn1,syn2,...")
    q.add_argument("--seed", type=int, required=True, help="RNG seed (no wall-clock default)")
    q.add_argument("--replacements", type=int, default=1, help="max replaced tokens per caption")
    q.add_argument("--out", help="output JSONL path (default: stdout)")
    q.set_defaults(handler=cmd_augment)

    q = aug_sub.add_parser("backtranslate", help="round-trip captions through pivot languages",
                           description="Remote contract: POST {q, source, target} -> "
                                       f"{{translatedText}}; API key via ${API_KEY_ENV}.")
    _add_captions_args(q)
    q.add_argument("--chain", default="es,de,fr", help="comma-separated pivot language codes")
    q.add_argument("--mock", action="store_true", help="use the offline deterministic translator")
    q.add_argument("--endpoint", help="translation service URL")
    q.add_argument("--retries", type=int, default=2, help="retries per translation request")
    q.add_argument("--workers", type=int, default=1, help="worker threads for translation requests")
    q.add_argument("--out", help="output JSONL path (default: stdout)")
    q.set_defaults(handler=cmd_augment)

    p = sub.add_parser("score-confusion", help="scene-keyword confusion matrix for predictions",
                       description=f"Inputs -- {PREDICTIONS_SCHEMA}; {LABELS_SCHEMA}; scenes TSV "
                                   "'scene<TAB>trigger1,trigger2,...'; attributes: one token per line.")
    p.add_argument("--predictions", required=True, help=PREDICTIONS_SCHEMA)
    p.add_argument("--labels", required=True, help=LABELS_SCHEMA)
    p.add_argument("--scenes", help="scene trigger TSV (default: each scene name triggers itself)")
    p.add_argument("--attributes", help="attribute token list, one per line")
    p.add_argument("--no-plural-fold", action="store_true", help="disable trailing-'s' folding")
    p.add_argument("--out", help="directory for CSV exports + report.json (default: JSON to stdout)")
    p.set_defaults(handler=cmd_confusion)

    p = sub.add_parser("index", help="build or query an inverted caption index")
    idx_sub = p.add_subparsers(dest="action", required=True)

    q = idx_sub.add_parser("build", help="index a corpus (or predictions) for keyword search",
                           description=f"Input schemas -- {CAPTIONS_SCHEMA}; or {PREDICTIONS_SCHEMA}")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--captions", help="caption corpus to index")
    source.add_argument("--predictions", help="index generated captions instead of a corpus")
    q.add_argument("--format", choices=CAPTION_FORMATS, default="jsonl")
    q.add_argument("--out", required=True, help="index JSON path")
    q.set_defaults(handler=cmd_index)

    q = idx_sub.add_parser("query", help="conjunctive keyword query; one image id per line")
    q.add_argument("--index", required=True, help="index JSON path")
    q.add_argument("terms", nargs="+", help="query terms (AND semantics)")
    q.set_defaults(handler=cmd_index)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (CaptionKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
