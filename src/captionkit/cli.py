"""Command-line entry point wiring all modules into subcommands.

Exit codes: 0 success, 1 strict-mode validation findings, 2 a fault of an input or
option, of the file system or of the output stream; a bug is a traceback. Reports are
JSON (sorted keys) on stdout or ``--out``; corpora are written as captions JSONL.
Stochastic subcommands require ``--seed`` so identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .corpus import (
    CAPTION_FORMATS,
    Corpus,
    _located,
    _measure,
    atomic_write,
    ingest_captions,
    ingest_labels,
    ingest_predictions,
    jsonl_lines,
    validate,
    write_csv,
)
from .exceptions import CaptionKitError, ConfigurationError, DegenerateInputError

# Each handler imports the stage modules it runs, so a run loads only its subcommand's code.
if TYPE_CHECKING:
    from .readability import ReadabilityReport

API_KEY_ENV = "CAPTIONKIT_TRANSLATE_API_KEY"

CAPTIONS_SCHEMA = (
    'captions jsonl: {"image_id": str, "split"?: str, "scene"?: str, "captions": [str, ...]}; '
    'rsicd_json: {"images": [{"filename", "split", "sentences": [{"raw"}], "class"?}]}'
)
LABELS_SCHEMA = 'labels jsonl: {"image_id": str, "scene": str, "objects": [str, ...]}'
PREDICTIONS_SCHEMA = 'predictions jsonl: {"image_id": str, "caption": str}'


def _json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(output: dict | Iterable[str], out: str | None) -> None:
    """Write a JSON report (a dict) or text chunks to stdout, or atomically to ``out``."""
    with atomic_write(out) if out else nullcontext(sys.stdout) as fh:
        fh.writelines([_json(output)] if isinstance(output, dict) else output)


def _corpus(args: argparse.Namespace) -> Corpus:
    return ingest_captions(args.captions, args.format)


def cmd_ingest(args: argparse.Namespace) -> int:
    _emit(jsonl_lines(_corpus(args)), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    findings = validate(_corpus(args), strict_rsicd=args.strict)
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
    from . import vocabstats
    prof = _measure(args.captions, vocabstats.profile, _corpus(args))
    payload = prof.to_dict()
    if args.top_k is not None:
        payload["top_k"] = {"k": args.top_k, **vocabstats.top_k_coverage(prof, args.top_k)._asdict()}
    if args.freq_csv:
        vocabstats.frequency_export(prof, args.freq_csv)
    _emit(payload, args.out)
    return 0


def _format_table(columns: list[tuple[str, ReadabilityReport]]) -> str:
    from . import readability as read_mod
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
    from . import readability as read_mod
    reports = [(args.captions, _measure(args.captions, read_mod.report, _corpus(args)))]
    if args.compare:
        other = ingest_captions(args.compare, args.compare_format)
        reports.append((args.compare, _measure(args.compare, read_mod.report, other)))
    if args.compare or args.table:
        sys.stdout.write(_format_table(reports))
        if args.out:
            _emit({name: rep.to_dict() for name, rep in reports}, args.out)
    else:
        _emit(reports[0][1].to_dict(), args.out)
    return 0


def cmd_bleu(args: argparse.Namespace) -> int:
    from . import bleu as bleu_mod
    predictions = ingest_predictions(args.predictions)
    references = ingest_captions(args.references, args.references_format)
    overall, per_image, missing = bleu_mod.score_predictions(predictions, references)
    reason = f"{len(missing)} ids missing from references, the rest without tokens"
    if not per_image:
        raise _located(args.predictions, DegenerateInputError(f"no prediction could be scored: {reason}"))
    if len(per_image) < len(predictions):
        print(f"warning: {len(predictions) - len(per_image)} predictions skipped: {reason}", file=sys.stderr)
    report = overall.to_dict()
    if args.per_image:
        rows = ([image_id, *result.to_dict().values()] for image_id, result in per_image)
        write_csv(args.per_image, ["image_id", *report], rows)
    _emit(report, args.out)
    return 0


def cmd_correct(args: argparse.Namespace) -> int:
    from . import augment as aug
    corpus = _corpus(args)
    rules = _measure(args.dictionary, aug.CorrectionRules, aug.load_dictionary(args.dictionary),
                     aug.load_merge_rules(args.merge_rules) if args.merge_rules else (),
                     aug.load_overrides(args.overrides) if args.overrides else {})
    _emit(jsonl_lines(aug.correct(corpus, rules, args.prune_duplicates)), args.out)
    return 0


def cmd_synonym(args: argparse.Namespace) -> int:
    from . import augment as aug
    corpus = _corpus(args)
    thesaurus = aug.load_thesaurus(args.thesaurus)
    _emit(jsonl_lines(aug.synonym_expand(corpus, thesaurus, args.replacements, seed=args.seed)), args.out)
    return 0


def cmd_backtranslate(args: argparse.Namespace) -> int:
    from . import augment as aug
    from .translate import HttpTranslator, MockTranslator, TranslationChain
    corpus = _corpus(args)
    hops = tuple(h.strip() for h in args.chain.split(",") if h.strip())
    if args.mock:
        translator = MockTranslator()
    elif args.endpoint:
        translator = HttpTranslator(args.endpoint, api_key=os.environ.get(API_KEY_ENV))
    else:
        raise ConfigurationError("backtranslate needs --endpoint or --mock")
    chain = TranslationChain(hops, translator)
    result = aug.back_translate(corpus, chain, concurrency=args.workers, max_retries=args.retries)
    _emit(jsonl_lines(result), args.out)
    return 0


def cmd_confusion(args: argparse.Namespace) -> int:
    from . import confusion as conf
    predictions = ingest_predictions(args.predictions)
    labels = ingest_labels(args.labels)
    keywords = conf.load_scene_keywords(args.scenes) if args.scenes else conf.default_scene_keywords(labels)
    attrs = conf.load_attributes(args.attributes) if args.attributes else ()
    try:
        report = conf.scene_matrix(predictions, labels, keywords, not args.no_plural_fold, attrs)
    except ConfigurationError as exc:  # a label scene --scenes lacks, or (without it) not one token
        raise _located(args.labels, ConfigurationError(f"{exc} in {args.scenes}") if args.scenes else exc) from exc
    if report.missing_ids:
        print(f"warning: {len(report.missing_ids)} labeled images have no prediction; skipped", file=sys.stderr)
    if args.out:  # all three files are written before any is renamed; the renames run one at a time
        payload = _json(report.to_dict())
        report_json = Path(args.out) / "report.json", lambda fh: fh.write(payload)
        conf.matrix_export(report, args.out, with_files=[report_json])
    else:
        _emit(report.to_dict(), None)
    return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    from . import discover
    if args.predictions:
        documents = ingest_predictions(args.predictions).entries
    else:
        documents = {record.image_id: "\n".join(record.texts) for record in _corpus(args).records}
    discover.save_index(discover.build_index(documents), args.out)
    return 0


def cmd_index_query(args: argparse.Namespace) -> int:
    from . import discover
    index = discover.load_index(args.index)
    for image_id in discover.query(index, args.terms):
        print(image_id)
    return 0


def _command(sub, name: str, handler: Callable[[argparse.Namespace], int], help: str,
             description: str | None = None, captions: bool = True) -> argparse.ArgumentParser:
    """Add subcommand ``name`` run by ``handler``; ``captions`` adds ``--captions``/``--format``.

    A captions subcommand without its own ``description`` shows the input schema.
    """
    if captions and description is None:
        description = f"Input schemas -- {CAPTIONS_SCHEMA}"
    parser = sub.add_parser(name, help=help, description=description)
    if captions:
        parser.add_argument("--captions", required=True, help=f"input corpus ({CAPTIONS_SCHEMA})")
        parser.add_argument("--format", choices=CAPTION_FORMATS, default="jsonl", help="captions file format")
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="captionkit",
        description="Profile, augment, score, and search image-caption corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "ingest", cmd_ingest, "parse a corpus and emit normalized captions JSONL")
    p.add_argument("--out", help="output JSONL path (default: stdout)")

    p = _command(sub, "validate", cmd_validate, "report corpus findings; strict mode exits 1 on findings")
    p.add_argument("--strict", action="store_true", help="require exactly 5 captions per image")
    p.add_argument("--out", help="report path (default: stdout)")

    p = _command(sub, "stats", cmd_stats, "vocabulary profile: frequencies, hapaxes, duplicates")
    p.add_argument("--top-k", type=int, help="also report top-k token coverage")
    p.add_argument("--freq-csv", help="write rank,token,count,cumulative_fraction CSV here")
    p.add_argument("--out", help="report path (default: stdout)")

    p = _command(sub, "readability", cmd_readability, "readability metric panel, optionally side by side")
    p.add_argument("--compare", help="second corpus for a side-by-side comparison table")
    p.add_argument("--compare-format", choices=CAPTION_FORMATS, default="jsonl")
    p.add_argument("--table", action="store_true", help="print the text table for a single corpus")
    p.add_argument("--out", help="report path (default: stdout)")

    p = _command(sub, "bleu", cmd_bleu, "BLEU-1..4 of predictions against a reference corpus",
                 f"Input schemas -- {PREDICTIONS_SCHEMA}; references: {CAPTIONS_SCHEMA}",
                 captions=False)
    p.add_argument("--predictions", required=True, help=PREDICTIONS_SCHEMA)
    p.add_argument("--references", required=True, help="reference corpus path")
    p.add_argument("--references-format", choices=CAPTION_FORMATS, default="jsonl")
    p.add_argument("--per-image", help="write per-image sentence-level scores CSV here")
    p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("augment", help="correct, synonym-expand, or back-translate a corpus")
    aug_sub = p.add_subparsers(dest="strategy", required=True)

    p = _command(aug_sub, "correct", cmd_correct, "merge rules + spell correction + duplicate pruning",
                 "Rules: dictionary (one word/line), merge rules TSV "
                 "'bigram<TAB>replacement', overrides TSV 'word<TAB>replacement'.")
    p.add_argument("--dictionary", required=True, help="accepted words, one per line")
    p.add_argument("--merge-rules", "--rules", dest="merge_rules", help="TSV bigram<TAB>replacement")
    p.add_argument("--overrides", help="TSV word<TAB>replacement")
    p.add_argument("--prune-duplicates", action="store_true")
    p.add_argument("--out", help="output JSONL path (default: stdout)")

    p = _command(aug_sub, "synonym", cmd_synonym, "append seeded synonym-substituted caption variants",
                 "Thesaurus: TSV 'word<TAB>syn1,syn2,...'. --seed is required.")
    p.add_argument("--thesaurus", required=True, help="TSV word<TAB>syn1,syn2,...")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (no wall-clock default)")
    p.add_argument("--replacements", type=int, default=1, help="max replaced tokens per caption")
    p.add_argument("--out", help="output JSONL path (default: stdout)")

    p = _command(aug_sub, "backtranslate", cmd_backtranslate, "round-trip captions through pivot languages",
                 "Remote contract: POST {q, source, target} -> "
                 f"{{translatedText}}; API key via ${API_KEY_ENV}.")
    p.add_argument("--chain", default="es,de,fr", help="comma-separated pivot language codes")
    p.add_argument("--mock", action="store_true", help="use the offline deterministic translator")
    p.add_argument("--endpoint", help="translation service URL")
    p.add_argument("--retries", type=int, default=2, help="retries per translation request")
    p.add_argument("--workers", type=int, default=1, help="worker threads for translation requests")
    p.add_argument("--out", help="output JSONL path (default: stdout)")

    p = _command(sub, "score-confusion", cmd_confusion, "scene-keyword confusion matrix for predictions",
                 f"Inputs -- {PREDICTIONS_SCHEMA}; {LABELS_SCHEMA}; scenes TSV "
                 "'scene<TAB>trigger1,trigger2,...'; attributes: one token per line.",
                 captions=False)
    p.add_argument("--predictions", required=True, help=PREDICTIONS_SCHEMA)
    p.add_argument("--labels", required=True, help=LABELS_SCHEMA)
    p.add_argument("--scenes", help="scene trigger TSV (default: each scene name triggers itself)")
    p.add_argument("--attributes", help="attribute token list, one per line")
    p.add_argument("--no-plural-fold", action="store_true", help="disable trailing-'s' folding")
    p.add_argument("--out", help="directory for CSV exports + report.json (default: JSON to stdout)")

    p = sub.add_parser("index", help="build or query an inverted caption index")
    idx_sub = p.add_subparsers(dest="action", required=True)

    p = _command(idx_sub, "build", cmd_index_build, "index a corpus (or predictions) for keyword search",
                 f"Input schemas -- {CAPTIONS_SCHEMA}; or {PREDICTIONS_SCHEMA}", captions=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--captions", help="caption corpus to index")
    source.add_argument("--predictions", help="index generated captions instead of a corpus")
    p.add_argument("--format", choices=CAPTION_FORMATS, default="jsonl")
    p.add_argument("--out", required=True, help="index JSON path")

    p = _command(idx_sub, "query", cmd_index_query,
                 "conjunctive keyword query; one image id per line", captions=False)
    p.add_argument("--index", required=True, help="index JSON path")
    p.add_argument("terms", nargs="+", help="query terms (AND semantics)")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (CaptionKitError, OSError, UnicodeEncodeError) as exc:
        named = isinstance(exc, OSError) and exc.filename is not None
        print(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
