"""One benchmark pass in a fresh interpreter.

Runs one workload's steps over generated inputs, times each step and the
whole pass, and writes a result JSON. Times are corrected for host-speed
changes by ``speed.SpeedSampler``; the raw wall time is kept next to them.
With ``--trace 1`` the pass runs with spans installed (see ``spans.py``) and
also reports per-layer numbers.

    python3 perfbench/measure.py --workload rsicd-analyze --inputs DIR --out DIR \
        --seed 1 --trace 0 --result FILE

Needs ``src`` on ``PYTHONPATH``; ``run.py`` starts this script and sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import captionkit as ck
from captionkit import cli

import gen
from spans import LAYER_SPANS, Tracer
from speed import SpeedSampler
from stub import FaultyTranslator


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def analyze_steps(inp: Path, out: Path) -> list:
    corpus = str(out / "corpus.jsonl")
    confusion_dir = out / "confusion"

    def queries() -> int:
        batch = [json.loads(line) for line in (inp / "queries.jsonl").read_text("utf-8").splitlines()]
        index = ck.load_index(out / "index.json")
        lines = [json.dumps(ck.query(index, terms)) for terms in batch]
        (out / "queries.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return 0

    return [
        ("cli.ingest", ["ingest", "--captions", str(inp / "rsicd.json"), "--format", "rsicd_json",
                        "--out", corpus]),
        ("cli.validate", ["validate", "--captions", corpus, "--strict", "--out", str(out / "validate.json")]),
        ("cli.stats", ["stats", "--captions", corpus, "--top-k", "100", "--freq-csv", str(out / "freq.csv"),
                       "--out", str(out / "stats.json")]),
        ("cli.readability", ["readability", "--captions", corpus, "--out", str(out / "readability.json")]),
        ("cli.bleu", ["bleu", "--predictions", str(inp / "predictions.jsonl"), "--references", corpus,
                      "--per-image", str(out / "bleu_per_image.csv"), "--out", str(out / "bleu.json")]),
        ("cli.bleu_probe", ["bleu", "--predictions", str(inp / "probe_predictions.jsonl"),
                            "--references", str(inp / "probe_refs.jsonl"),
                            "--per-image", str(out / "probe_per_image.csv"),
                            "--out", str(out / "probe_bleu.json")]),
        ("cli.score_confusion", ["score-confusion", "--predictions", str(inp / "predictions.jsonl"),
                                 "--labels", str(inp / "labels.jsonl"), "--scenes", str(inp / "scenes.tsv"),
                                 "--attributes", str(inp / "attributes.txt"), "--out", str(confusion_dir)]),
        ("cli.index_build", ["index", "build", "--captions", corpus, "--out", str(out / "index.json")]),
        ("api.queries", queries),
    ]


def noisy_steps(inp: Path, out: Path, seed: int) -> list:
    corrected = str(out / "corrected.jsonl")
    return [
        ("cli.augment_correct", ["augment", "correct", "--captions", str(inp / "noisy.json"),
                                 "--format", "rsicd_json", "--dictionary", str(inp / "dictionary.txt"),
                                 "--merge-rules", str(inp / "merges.tsv"),
                                 "--overrides", str(inp / "overrides.tsv"),
                                 "--prune-duplicates", "--out", corrected]),
        ("cli.augment_synonym", ["augment", "synonym", "--captions", corrected,
                                 "--thesaurus", str(inp / "thesaurus.tsv"), "--seed", str(seed),
                                 "--out", str(out / "synonym.jsonl")]),
    ]


WORKERS = len(os.sched_getaffinity(0))  # back_translate's concurrency: nproc


def backtranslate_steps(inp: Path, out: Path, translator: FaultyTranslator) -> list:
    def backtranslate() -> int:
        corpus = ck.ingest_captions(inp / "slice.jsonl")
        chain = ck.TranslationChain(gen.BT_HOPS, translator)
        result = ck.back_translate(corpus, chain, concurrency=WORKERS,
                                   max_retries=gen.BT_MAX_RETRIES, backoff=0)
        ck.write_captions_jsonl(result, out / "backtranslated.jsonl")
        return 0

    return [("api.backtranslate", backtranslate)]


INPUT_CAPTIONS = {
    "rsicd-analyze": gen.N_IMAGES * gen.CAPTIONS_PER_IMAGE,
    "noisy-correct": gen.N_IMAGES * gen.CAPTIONS_PER_IMAGE,
    "backtranslate-pool": gen.BT_IMAGES * gen.CAPTIONS_PER_IMAGE,
}


def run_pass(steps: list, tracer: Tracer | None) -> tuple[dict, dict, str]:
    """Run the steps in order; return ((start, end) per step, exit codes, captured output)."""
    spans: dict[str, tuple[float, float]] = {}
    codes: dict[str, int] = {}
    captured = io.StringIO()
    for name, step in steps:
        began = time.perf_counter()
        if tracer:
            tracer.begin(name)
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                codes[name] = cli.run(step) if isinstance(step, list) else step()
        finally:
            if tracer:
                tracer.end()
        spans[name] = (began, time.perf_counter())
    return spans, codes, captured.getvalue()


def layer_metrics(tracer: Tracer, workload: str) -> dict:
    metrics = {name: tracer.self_time(*spans) for name, spans in LAYER_SPANS.items()}
    queries_us = [d * 1e6 for d in tracer.durations("discover.query")]
    metrics.update({
        "tokens.calls": tracer.tokenize_calls,
        "tokens.calls_per_caption": tracer.tokenize_calls / INPUT_CAPTIONS[workload],
        "tokens.self_s": tracer.tokenize_s,
        "discover.query_p50_us": nearest_rank(queries_us, 0.50),
        "discover.query_p99_us": nearest_rank(queries_us, 0.99),
        **tracer.counters,
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    translator = None
    if args.workload == "rsicd-analyze":
        steps = analyze_steps(args.inputs, args.out)
    elif args.workload == "noisy-correct":
        steps = noisy_steps(args.inputs, args.out, args.seed)
    else:
        plan = json.loads((args.inputs / "faults.json").read_text("utf-8"))
        translator = FaultyTranslator(gen.BT_SERVICE_DELAY_S, frozenset(plan["permanent"]),
                                      plan["transient_per_mille"])
        steps = backtranslate_steps(args.inputs, args.out, translator)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        with SpeedSampler() as sampler:
            steps_at, codes, captured = run_pass(steps, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    start, end = min(a for a, _ in steps_at.values()), max(b for _, b in steps_at.values())
    step_s = {name: sampler.corrected(a, b) for name, (a, b) in steps_at.items()}

    result = {
        "wall_s": sampler.corrected(start, end),
        "raw_wall_s": sampler.raw(start, end),
        "speed_median": statistics.median(sampler.speeds()),
        "probes": len(sampler.samples),
        "step_s": step_s,
        "exit_codes": codes,
        "output": captured,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if translator:
        calls_ms = [s * 1e3 for s in translator.call_s]
        step_raw_s = sampler.raw(*steps_at["api.backtranslate"])
        result["translate"] = {
            "calls": translator.calls,
            "faults": translator.faults,
            "permanent_faults": translator.permanent_faults,
            "wait_s": translator.wait_s,
            "wait_share": translator.wait_s / (WORKERS * step_raw_s),
            "inflight_mean": sum(translator.call_s) / step_raw_s,
            "call_p50_ms": nearest_rank(calls_ms, 0.50),
            "call_p99_ms": nearest_rank(calls_ms, 0.99),
        }
    if tracer:
        tracer.rescale(sampler.corrected)
        result["layers"] = layer_metrics(tracer, args.workload)
        tracer.write(args.result.with_name(args.result.stem + "-spans.json"))
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
