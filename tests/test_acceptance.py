"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 5's whole-dataset checks only run when the real annotation
file is supplied via the RSICD_JSON environment variable.
"""

import json
import math
import os
import random
import time

import pytest

from captionkit.augment import CorrectionRules, Thesaurus, back_translate, correct, synonym_expand
from captionkit.bleu import bleu_score, modified_precision
from captionkit.cli import run
from captionkit.confusion import scene_matrix
from captionkit.corpus import LabelRecord, PredictionSet, ingest_captions
from captionkit.discover import build_index, load_index, query, save_index
from captionkit.readability import report_from_aggregates
from captionkit.tokens import tokenize
from captionkit.translate import MockTranslator, TranslationChain
from captionkit.vocabstats import hapax_ratio, profile, top_k_coverage
from conftest import DATA_DIR, corpus_from_documents
from oracles import oracle_bleu, oracle_scene_matrix

RSICD_JSON = os.environ.get("RSICD_JSON")


def _announce(number, description):
    print(f"\n[acceptance] criterion {number}: PASS -- {description}")


def test_criterion_1_fog_exact():
    rows = [(9.62, 7.70, 6.93), (10.25, 8.07, 7.33), (10.96, 10.39, 8.54)]
    for words_per_sentence, complex_pct, expected in rows:
        fog = report_from_aggregates(words_per_sentence, 1.0, complex_pct).fog
        assert abs(fog - expected) <= 0.01, (words_per_sentence, complex_pct, fog)
    _announce(1, "Fog from reported aggregate inputs, each within +/-0.01")


def test_criterion_2_fk_fre_tolerance():
    rows = [
        (9.62, 1.42, 77.32, 4.86),
        (10.25, 1.40, 77.71, 4.97),
        (10.96, 1.48, 70.82, 6.10),
    ]
    for wps, spw, fre_expected, fk_expected in rows:
        scores = report_from_aggregates(wps, spw, 1.0)
        assert abs(scores.fk - fk_expected) <= 0.10, (wps, spw, scores.fk)
        assert abs(scores.flesch - fre_expected) <= 0.50, (wps, spw, scores.flesch)
    _announce(2, "Flesch-Kincaid within +/-0.10 and reading ease within +/-0.50")


def test_criterion_3_bleu_identity_and_oracle():
    start = time.monotonic()
    tokens = ["many", "planes", "are", "parked", "here"]
    identity = bleu_score([tokens], [[tokens]])
    for k in range(1, 5):
        assert identity.bleu[k] == 1.0

    matched, total = modified_precision([["the", "the", "the"]], [[["the", "cat"]]], 1)
    assert matched / total == 1 / 3

    alphabet = ["a", "b", "c", "d", "e"]
    rng = random.Random(20240211)
    cases = 0
    while cases < 1000:
        n_sentences = rng.randint(1, 10)
        candidates, references = [], []
        for _ in range(n_sentences):
            candidates.append([rng.choice(alphabet) for _ in range(rng.randint(1, 12))])
            references.append(
                [
                    [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
                    for _ in range(rng.randint(1, 5))
                ]
            )
        result = bleu_score(candidates, references)
        precisions, bp, c, r, by_order = oracle_bleu(candidates, references)
        assert result.precisions == tuple(precisions)
        assert result.brevity_penalty == bp
        assert (result.candidate_len, result.effective_ref_len) == (c, r)
        assert dict(result.bleu) == by_order
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    _announce(3, f"identity=1.0, clipping p1=1/3, {cases} random corpora bit-exact vs oracle")


def test_criterion_4_confusion_oracle():
    start = time.monotonic()
    scenes = ["airport", "beach", "desert", "forest", "port", "railway", "river", "stadium"]
    keywords = {scene: frozenset({scene}) for scene in scenes}
    scene_words = {
        "airport": "many planes are parked in an airport",
        "beach": "white waves wash a yellow beach near the sea",
        "desert": "a wide yellow desert with some dunes",
        "forest": "green trees fill a dense forest",
        "port": "ships are docked in a busy port",
        "railway": "a long railway crosses the plain",
        "river": "a river flows under a bridge",
        "stadium": "a round stadium with a green field",
    }
    pool = list(scene_words.values()) + [
        "an airport near a river bridge",
        "yellow sand beside a railway",
        "nothing notable here",
    ]
    rng = random.Random(8)
    for _ in range(40):
        n_images = rng.randint(1, 100)
        labels = [LabelRecord(f"i{n}", rng.choice(scenes)) for n in range(n_images)]
        entries = {f"i{n}": rng.choice(pool) for n in range(n_images)}
        for n in rng.sample(range(n_images), k=min(3, n_images)):
            entries.pop(f"i{n}", None)
        predictions = PredictionSet(entries)
        got = scene_matrix(predictions, labels, keywords)
        matrix, totals, accuracy = oracle_scene_matrix(predictions, labels, keywords, tokenize)
        assert dict(got.scene_matrix) == matrix
        assert dict(got.per_scene_totals) == totals
        assert got.diagonal_accuracy == accuracy

    perfect = PredictionSet({f"p-{s}": scene_words[s] for s in scenes})
    perfect_labels = [LabelRecord(f"p-{s}", s) for s in scenes]
    diag = scene_matrix(perfect, perfect_labels, keywords)
    assert diag.diagonal_accuracy == 1.0
    for true in scenes:
        for col in scenes:
            assert diag.cell(true, col) == (1 if true == col else 0)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _announce(4, "randomized 8-scene fixtures equal nested-loop oracle; perfect captioner diagonal")


def test_criterion_5_vocabulary_statistics():
    corpus = corpus_from_documents({"i1": ["a beach"] * 5}, "t")
    prof = profile(corpus)
    assert prof.duplicate_captions / prof.total_captions == 0.8

    rng = random.Random(55)
    words = ["airport", "beach", "green", "trees", "river", "a", "the"]
    for _ in range(20):
        docs = {
            f"i{n}": [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(3)]
            for n in range(5)
        }
        prof = profile(corpus_from_documents(docs, "r"))
        naive = {}
        for captions in docs.values():
            for caption in captions:
                for tok in tokenize(caption).tokens:
                    naive[tok] = naive.get(tok, 0) + 1
        assert prof.freq == naive
        assert hapax_ratio(prof) == sum(1 for v in naive.values() if v == 1) / len(naive)
        for k in (1, 3, len(naive)):
            expected_cov = sum(sorted(naive.values(), reverse=True)[:k]) / sum(naive.values())
            got = top_k_coverage(prof, k)
            # same counts, possibly different tie order: fractions must agree
            assert math.isclose(got.fraction, expected_cov)
    _announce(5, "80% duplicate fixture; hapax and top-k coverage match brute force")


@pytest.mark.skipif(not RSICD_JSON, reason="real RSICD annotation file not supplied")
def test_criterion_5_optional_real_rsicd():
    start = time.monotonic()
    corpus = ingest_captions(RSICD_JSON, "rsicd_json")
    assert len(corpus) == 10921
    prof = profile(corpus)
    dup_fraction = prof.duplicate_captions / prof.total_captions
    assert 0.55 <= dup_fraction <= 0.70
    assert 0.35 <= hapax_ratio(prof) <= 0.50
    assert 0.40 <= top_k_coverage(prof, 30).fraction <= 0.60
    assert time.monotonic() - start < 30.0
    _announce(5, "full RSICD: image count, duplicate fraction, hapax ratio, top-30 coverage")


def test_criterion_6_augmentation_contracts():
    start = time.monotonic()
    dictionary = frozenset(
        "a an the c-shaped building buildings beach sea green trees several some "
        "many planes are parked in airport white waves school bus behind island "
        "next to crashing".split()
    )
    rules = CorrectionRules(dictionary, merge_patterns=((("c", "shape"), "c-shaped"),))
    corpus = corpus_from_documents(
        {
            "i1": ["A c shape building near the beach.", "many planes are parked"],
            "i2": ["many planes are parked", "several green trees"],
        },
        "t",
    )
    once = correct(corpus, rules, prune_duplicates=True)
    twice = correct(once, rules, prune_duplicates=True)
    assert once.records == twice.records
    assert "c-shaped" in [t for c in once.captions() for t in tokenize(c.raw).tokens]

    thesaurus = Thesaurus({"several": ("numerous",), "green": ("verdant",)})
    base = corpus_from_documents({"i1": ["several green trees", "a beach"]}, "t")
    grown_a = synonym_expand(base, thesaurus, 1, seed=7)
    grown_b = synonym_expand(base, thesaurus, 1, seed=7)
    assert grown_a == grown_b
    assert grown_a.caption_count() > base.caption_count()
    vocab_before = {t for c in base.captions() for t in tokenize(c.raw).tokens}
    vocab_after = {t for c in grown_a.captions() for t in tokenize(c.raw).tokens}
    assert len(vocab_after) > len(vocab_before)

    figure_row = "Many trees behind a school bus"
    bt_corpus = corpus_from_documents({"i1": [figure_row, "a beach"]}, "t")
    identity_chain = TranslationChain(("es", "de", "fr"), MockTranslator.identity())
    fixed_point = back_translate(bt_corpus, identity_chain)
    assert [c.raw for c in fixed_point.captions()] == [c.raw for c in bt_corpus.captions()]
    mock_chain = TranslationChain(("es", "de", "fr"), MockTranslator())
    mocked = back_translate(bt_corpus, mock_chain)
    # neither caption is touched by the mock table, so no variants appear
    assert [c.raw for c in mocked.records[0].captions] == [figure_row, "a beach"]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _announce(6, "correct idempotent + c-shaped repair; seeded synonym growth; mock fixed point")


def test_criterion_7_index_query_equivalence(tmp_path):
    start = time.monotonic()
    words = ["airport", "river", "bridge", "beach", "green", "trees", "near", "a", "the", "port"]
    rng = random.Random(9)
    documents = {
        f"img{n:04d}": " ".join(rng.choices(words, k=rng.randint(1, 10))) for n in range(1000)
    }
    index = build_index(documents)
    for _ in range(100):
        terms = rng.sample(words, k=rng.randint(1, 3))
        expected = sorted(
            doc_id
            for doc_id, text in documents.items()
            if all(term in tokenize(text).tokens for term in terms)
        )
        assert query(index, terms) == expected
    path = tmp_path / "idx.json"
    save_index(index, path)
    assert load_index(path) == index
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _announce(7, "100 conjunctive queries on 1000 docs equal full scan; save/load identity")


def test_criterion_8_pipeline_determinism(tmp_path):
    src = str(DATA_DIR / "captions_3x5.jsonl")
    dictionary = str(DATA_DIR / "dictionary.txt")
    merges = str(DATA_DIR / "merges.tsv")
    thesaurus = str(DATA_DIR / "thesaurus.tsv")
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        normalized = base / "normalized.jsonl"
        corrected = base / "corrected.jsonl"
        expanded = base / "expanded.jsonl"
        stats_json = base / "stats.json"
        readability_json = base / "readability.json"
        assert run(["ingest", "--captions", src, "--out", str(normalized)]) == 0
        assert run(["augment", "correct", "--captions", str(normalized),
                    "--dictionary", dictionary, "--merge-rules", merges,
                    "--prune-duplicates", "--out", str(corrected)]) == 0
        assert run(["augment", "synonym", "--captions", str(corrected),
                    "--thesaurus", thesaurus, "--seed", "7", "--out", str(expanded)]) == 0
        assert run(["stats", "--captions", str(expanded), "--out", str(stats_json)]) == 0
        assert run(["readability", "--captions", str(expanded),
                    "--out", str(readability_json)]) == 0
        outputs.append(
            tuple(p.read_bytes() for p in (normalized, corrected, expanded, stats_json, readability_json))
        )
    assert outputs[0] == outputs[1]
    parsed = json.loads(outputs[0][3])
    assert parsed["total_captions"] > 0
    _announce(8, "ingest -> correct -> synonym --seed 7 -> stats -> readability byte-identical")
