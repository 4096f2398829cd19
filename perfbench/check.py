"""Output checks, run after the timed passes.

Each ``check_*`` function reads one pass's output directory and returns
``(problems, facts)``: a list of failed checks (empty when the outputs are
right) and the counts the report needs, such as items delivered. BLEU and the
confusion tables are compared with the brute-force oracles in
``tests/oracles.py``; queries with a full scan; back-translation with a
serial replay of the translator stub.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from collections import Counter
from pathlib import Path

import captionkit as ck

import gen
from stub import fault_kind


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _tokens(text: str) -> tuple[str, ...]:
    return ck.tokenize(text).tokens


class _Checks:
    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


# Exit codes each step may end with; every step not listed must exit 0. The
# BLEU probe exits 2 today: a punctuation-only prediction aborts `bleu`, and
# the predictions it loses count against delivered_share.
ALLOWED_EXIT_CODES = {"cli.bleu_probe": {0, 2}}


def unexpected_exits(codes: dict) -> list[str]:
    return [f"{step} exited {code}" for step, code in codes.items()
            if code not in ALLOWED_EXIT_CODES.get(step, {0})]


def _expect_codes(c: _Checks, codes: dict) -> None:
    c.problems.extend(unexpected_exits(codes))


def check_analyze(inp: Path, out: Path, manifest: dict, codes: dict, oracles) -> tuple[list[str], dict]:
    c = _Checks()
    _expect_codes(c, codes)
    images = json.loads((inp / "rsicd.json").read_text("utf-8"))["images"]
    corpus = _jsonl(out / "corpus.jsonl")
    c.expect([r["image_id"] for r in corpus] == [img["filename"].lower() for img in images],
             "ingest: image ids differ from the input")
    n_captions = sum(len(r["captions"]) for r in corpus)
    c.expect(len(corpus) == manifest["images"] and n_captions == manifest["captions"],
             f"ingest: {len(corpus)} records / {n_captions} captions")
    c.expect(json.loads((out / "validate.json").read_text("utf-8"))["finding_count"] == 0,
             "validate --strict reported findings")

    # The checks and oracles re-read the same texts, so keep each result.
    tokenize = functools.lru_cache(maxsize=None)(ck.tokenize)
    stats = json.loads((out / "stats.json").read_text("utf-8"))
    references = {r["image_id"]: [tokenize(text).tokens for text in r["captions"]] for r in corpus}
    total_tokens = sum(len(toks) for refs in references.values() for toks in refs)
    c.expect(stats["total_captions"] == n_captions, "stats: caption count")
    c.expect(stats["total_tokens"] == total_tokens, "stats: token count")
    c.expect(len(_csv_rows(out / "freq.csv")) == stats["unique_tokens"] + 1, "stats: frequency CSV rows")
    c.expect(stats["top_k"]["k"] == 100, "stats: top-k missing")
    readability = json.loads((out / "readability.json").read_text("utf-8"))
    c.expect(readability["words"] == total_tokens, "readability: word count")

    predictions = ck.ingest_predictions(inp / "predictions.jsonl")
    ids = list(predictions.entries)
    candidates = [list(tokenize(predictions.entries[i]).tokens) for i in ids]
    precisions, bp, cand_len, ref_len, by_order = oracles.oracle_bleu(
        candidates, [[list(t) for t in references[i]] for i in ids])
    bleu = json.loads((out / "bleu.json").read_text("utf-8"))
    expected = {f"bleu{k}": v for k, v in by_order.items()}
    expected.update({f"p{n}": p for n, p in enumerate(precisions, start=1)}, bp=bp, c=cand_len, r=ref_len)
    c.expect(bleu == expected, f"bleu: {bleu} differs from the oracle {expected}")
    per_image = _csv_rows(out / "bleu_per_image.csv")
    c.expect([row[0] for row in per_image[1:]] == ids, "bleu: per-image rows differ from predictions")

    probe = manifest["probe"]
    probe_rows = []
    if codes.get("cli.bleu_probe") == 0:
        probe_rows = [row[0] for row in _csv_rows(out / "probe_per_image.csv")[1:]]
        c.expect(sorted(probe_rows) == sorted(probe["valid_ids"]),
                 "bleu probe: rows differ from the valid predictions")
    probe_delivered = len(set(probe_rows) & set(probe["valid_ids"]))

    labels = ck.ingest_labels(inp / "labels.jsonl")
    keywords = {}
    for line in (inp / "scenes.tsv").read_text("utf-8").splitlines():
        scene, triggers = line.split("\t")
        keywords[scene] = frozenset(triggers.split(","))
    attributes = (inp / "attributes.txt").read_text("utf-8").split()
    report = json.loads((out / "confusion" / "report.json").read_text("utf-8"))
    matrix, totals, accuracy = oracles.oracle_scene_matrix(predictions, labels, keywords, tokenize)
    got = {(t, col): n for t, row in report["matrix"].items() for col, n in row.items()}
    c.expect(got == matrix, "confusion: scene matrix differs from the oracle")
    c.expect(report["per_scene_totals"] == totals, "confusion: per-scene totals differ from the oracle")
    c.expect(report["diagonal_accuracy"] == accuracy, "confusion: diagonal accuracy differs")
    table = oracles.oracle_attribute_table(predictions, labels, attributes, tokenize)
    got = {(a, s): n for a, row in report["attributes"].items() for s, n in row.items()}
    c.expect(got == table, "confusion: attribute table differs from the oracle")
    c.expect(len(_csv_rows(out / "confusion" / "scene_matrix.csv")) == len(keywords) + 1,
             "confusion: scene_matrix.csv rows")
    c.expect(len(_csv_rows(out / "confusion" / "attribute_table.csv")) == len(attributes) + 1,
             "confusion: attribute_table.csv rows")

    index = json.loads((out / "index.json").read_text("utf-8"))
    c.expect(index["doc_count"] == len(corpus), "index: doc_count")
    # Whitespace never falls inside a token, so a document's tokens are its captions' tokens.
    doc_tokens = {doc_id: {tok for toks in refs for tok in toks} for doc_id, refs in references.items()}
    queries = _jsonl(inp / "queries.jsonl")
    answers = _jsonl(out / "queries.jsonl")
    c.expect(len(answers) == len(queries), "queries: answer count")
    for terms, answer in zip(queries, answers):
        wanted = set(tokenize(" ".join(terms)).tokens)
        scan = sorted(doc_id for doc_id, toks in doc_tokens.items() if wanted <= toks)
        if not c.expect(answer == scan, f"query {terms}: {len(answer)} ids, full scan {len(scan)}"):
            break

    submitted = len(ids) + probe["valid"]
    delivered = (len(per_image) - 1) + probe_delivered
    facts = {
        "items_submitted": submitted,
        "items_delivered": delivered,
        "bleu.scored": delivered,
        "bleu.skipped": len(ids) + probe["predictions"] - delivered,
        "discover.index_bytes": (out / "index.json").stat().st_size,
    }
    return c.problems, facts


def _within_two_edits(a: str, b: str) -> bool:
    """Optimal-string-alignment distance of at most 2, as ``correct`` counts edits."""
    if abs(len(a) - len(b)) > 2:
        return False
    prev2, prev = None, list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        row = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            row[j] = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                row[j] = min(row[j], prev2[j - 2] + 1)
        prev2, prev = prev, row
    return prev[-1] <= 2


def _formable_bigrams(images: list, pairs: list, planted: set, overrides: dict) -> Counter:
    """How often correcting a planted type can form each merge bigram: the
    input has the type next to one word of the pair, and the type overrides
    to, or lies within two edits of, the other word."""
    def becomes(typo: str, word: str) -> bool:
        return overrides[typo] == word if typo in overrides else _within_two_edits(typo, word)

    correctable = planted | set(overrides)
    formable: Counter = Counter()
    for img in images:
        for sentence in img["sentences"]:
            toks = _tokens(sentence["raw"])
            for left, right in zip(toks, toks[1:]):
                if left not in correctable and right not in correctable:
                    continue
                for first, second in pairs:
                    if ((left in correctable and right == second and becomes(left, first))
                            or (right in correctable and left == first and becomes(right, second))):
                        formable[first, second] += 1
    return formable


def check_noisy(inp: Path, out: Path, manifest: dict, codes: dict) -> tuple[list[str], dict]:
    c = _Checks()
    _expect_codes(c, codes)
    images = json.loads((inp / "noisy.json").read_text("utf-8"))["images"]
    n_in = sum(len(img["sentences"]) for img in images)
    corrected = _jsonl(out / "corrected.jsonl")
    n_out = sum(len(r["captions"]) for r in corrected)
    pruned, dropped = n_in - n_out, len(images) - len(corrected)
    planted = (manifest["exact_duplicates"] + manifest["styled_duplicates"]
               + gen.CAPTIONS_PER_IMAGE * manifest["all_duplicate_records"])
    c.expect(pruned >= planted, f"correct: pruned {pruned} captions, planted {planted} duplicates")
    c.expect(dropped >= manifest["all_duplicate_records"], f"correct: dropped {dropped} records")
    in_ids = [img["filename"].lower() for img in images]
    out_ids = [r["image_id"] for r in corrected]
    kept = set(out_ids)
    c.expect(out_ids == [i for i in in_ids if i in kept], "correct: record ids or order changed")
    norms = [" ".join(_tokens(text)) for r in corrected for text in r["captions"]]
    c.expect(len(set(norms)) == len(norms), "correct: duplicates survived pruning")

    dictionary = set((inp / "dictionary.txt").read_text("utf-8").split())
    merges = [line.split("\t") for line in (inp / "merges.tsv").read_text("utf-8").splitlines()]
    overrides = dict(line.split("\t") for line in (inp / "overrides.tsv").read_text("utf-8").splitlines())
    known = dictionary | {m for _, m in merges} | set(overrides.values())
    vocab = {tok for norm in norms for tok in norm.split()}
    bigrams = Counter(pair for norm in norms for pair in zip(norm.split(), norm.split()[1:]))
    unresolved = {t for t in vocab if t not in known and len(t) > 2 and not t.isdigit()}
    c.expect(unresolved == set(manifest["nomatch_types"]),
             f"correct: {len(unresolved)} unresolved types, planted {len(manifest['nomatch_types'])} "
             "with no match")
    fixed = set(manifest["distance1_types"]) | set(manifest["distance2_types"])
    c.expect(not (fixed & vocab), f"correct: {len(fixed & vocab)} planted typos left uncorrected")
    # `correct` merges before it overrides and spell-fixes, so a corrected
    # planted type can form a merge bigram with its neighbour. Only that many
    # of each bigram may survive.
    pairs = [tuple(bigram.split()) for bigram, _ in merges]
    formable = _formable_bigrams(images, pairs, fixed, overrides)
    survived = {pair: bigrams[pair] for pair in pairs if bigrams[pair] > formable[pair]}
    c.expect(not survived, f"correct: merge rule bigrams survived: {survived}")

    synonym = _jsonl(out / "synonym.jsonl")
    c.expect([r["image_id"] for r in synonym] == out_ids, "synonym: record ids changed")
    c.expect(all(s["captions"][:len(r["captions"])] == r["captions"] for s, r in zip(synonym, corrected)),
             "synonym: originals not kept in front")
    variants = sum(len(r["captions"]) for r in synonym) - n_out
    c.expect(variants > 0, "synonym: no variants")

    facts = {
        "items_submitted": n_in + n_out,
        "items_delivered": (n_in if codes.get("cli.augment_correct") == 0 else 0)
        + (n_out if codes.get("cli.augment_synonym") == 0 else 0),
        "augment.pruned_captions": pruned,
        "augment.dropped_records": dropped,
        "augment.unresolved_types": len(unresolved),
    }
    return c.problems, facts


def replay_backtranslate(rows: list[dict], plan: dict) -> tuple[list[tuple[str, list[str]]], dict]:
    """Serial replay of the stub's chain: expected records and translator counts."""
    mock = ck.MockTranslator()
    legs = ck.TranslationChain(gen.BT_HOPS, mock).legs()
    attempts = gen.BT_MAX_RETRIES + 1
    permanent = frozenset(plan["permanent"])
    transient: set[tuple[str, str, str]] = set()
    calls = failed = 0
    expected = []
    for row in rows:
        variants = []
        for raw in row["captions"]:
            text, lost = raw, False
            for src, dst in legs:
                kind = fault_kind(text, src, dst, permanent, plan["transient_per_mille"])
                if kind == "permanent":
                    calls += attempts
                    lost = True
                    break
                calls += 1
                if kind == "transient" and (text, src, dst) not in transient:
                    transient.add((text, src, dst))
                    calls += 1
                text = mock.translate(text, src, dst)
            failed += lost
            if not lost and text.strip() and text != raw:
                variants.append(text)
        expected.append((row["image_id"].lower(), row["captions"] + variants))
    counts = {
        "calls": calls,
        "faults": len(transient) + failed * attempts,
        "permanent_faults": failed * attempts,
        "failed": failed,
    }
    return expected, counts


def check_backtranslate(inp: Path, out: Path, manifest: dict, codes: dict,
                        translate: dict) -> tuple[list[str], dict]:
    c = _Checks()
    _expect_codes(c, codes)
    rows = _jsonl(inp / "slice.jsonl")
    expected, counts = replay_backtranslate(rows, json.loads((inp / "faults.json").read_text("utf-8")))
    got = [(r["image_id"], r["captions"]) for r in _jsonl(out / "backtranslated.jsonl")]
    c.expect(got == expected, "backtranslate: output differs from the serial replay")
    for key in ("calls", "faults", "permanent_faults"):
        c.expect(translate[key] == counts[key],
                 f"translator {key}: {translate[key]}, replay expects {counts[key]}")
    submitted = sum(len(r["captions"]) for r in rows)
    facts = {
        "items_submitted": submitted,
        "items_delivered": submitted - counts["failed"] if codes.get("api.backtranslate") == 0 else 0,
        "translate.retries": translate["faults"] - translate["permanent_faults"] // (gen.BT_MAX_RETRIES + 1),
        "translate.failed": translate["permanent_faults"] // (gen.BT_MAX_RETRIES + 1),
    }
    return c.problems, facts
