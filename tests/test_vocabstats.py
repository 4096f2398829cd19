import csv
import random
from collections import Counter

import pytest

from captionkit.exceptions import DegenerateInputError
from captionkit.tokens import tokenize
from captionkit.vocabstats import VocabularyProfile, frequency_export, hapax_ratio, profile, top_k_coverage
from conftest import corpus_from_documents

WORDS = ["airport", "beach", "bridge", "green", "trees", "river", "many", "a", "sea", "port"]
NO_TOKENS = ["...", "!!"]  # captions without tokens: each is new, never a duplicate


def _random_caption(rng):
    if rng.random() < 0.15:
        return rng.choice(NO_TOKENS)
    return " ".join(rng.choices(WORDS, k=rng.randint(1, 3)))


def _random_corpus(rng, n_images=6, max_captions=5):
    docs = {}
    for i in range(n_images):
        captions = [_random_caption(rng) for _ in range(rng.randint(1, max_captions))]
        docs[f"img{i}"] = captions
    return corpus_from_documents(docs, "random")


def test_identical_captions_duplicate_rate():
    corpus = corpus_from_documents({"i1": ["a beach"] * 5}, "t")
    prof = profile(corpus)
    assert prof.total_captions == 5
    assert prof.unique_captions == 1
    assert prof.duplicate_captions == 4
    assert prof.duplicate_captions / prof.total_captions == 0.8
    assert prof.within_image_duplicate_captions == 4


def test_all_distinct_tokens():
    corpus = corpus_from_documents({"i1": ["blue sea", "green tree"]}, "t")
    prof = profile(corpus)
    assert prof.total_tokens == 4
    assert prof.unique_tokens == 4
    assert prof.hapax_count == 4
    assert prof.duplicate_captions == 0


def test_normalized_duplicates_counted():
    # capitalization/punctuation variants of one sentence are duplicates
    corpus = corpus_from_documents({"i1": ["A beach.", "a beach"], "i2": ["a BEACH!"]}, "t")
    prof = profile(corpus)
    assert prof.unique_captions == 1
    assert prof.duplicate_captions == 2
    assert prof.within_image_duplicate_captions == 1  # only i1's second copy


def test_captions_without_tokens_duplicate_nothing():
    # as in augment correct --prune-duplicates: "..." and "!!" are not copies of each other
    prof = profile(corpus_from_documents({"i": ["...", "a beach", "?"], "j": ["!!", "A beach."]}, "t"))
    assert prof.total_captions == 5
    assert prof.unique_captions == 4
    assert prof.duplicate_captions == 1
    assert prof.within_image_duplicate_captions == 0


def test_profile_rejects_empty_corpus():
    from captionkit.corpus import Corpus

    with pytest.raises(DegenerateInputError):
        profile(Corpus((), "empty"))


def _profile_from_freq(freq):
    """Build a one-caption corpus whose token frequencies equal ``freq``."""
    caption = " ".join(tok for tok, n in freq.items() for _ in range(n))
    return profile(corpus_from_documents({"i1": [caption]}, "t"))


def test_top_k_coverage_fraction():
    prof = _profile_from_freq({"a": 4, "b": 1})
    coverage = top_k_coverage(prof, 1)
    assert coverage.fraction == 0.8
    assert coverage.covered_tokens == 4


def test_top_k_full_coverage():
    prof = _profile_from_freq({"a": 4, "b": 1, "c": 2})
    assert top_k_coverage(prof, prof.unique_tokens).fraction == 1.0
    assert top_k_coverage(prof, 100).fraction == 1.0  # k beyond vocabulary is fine


def test_top_k_requires_positive_k():
    prof = _profile_from_freq({"a": 1})
    with pytest.raises(ValueError):
        top_k_coverage(prof, 0)


def test_coverage_monotone():
    prof = _profile_from_freq({"a": 5, "b": 3, "c": 3, "d": 1})
    fractions = [top_k_coverage(prof, k).fraction for k in range(1, 6)]
    assert all(x <= y for x, y in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0


def test_hapax_ratio():
    assert hapax_ratio(_profile_from_freq({"a": 2, "b": 1})) == 0.5
    assert hapax_ratio(_profile_from_freq({"a": 5})) == 0.0


def test_hapax_ratio_needs_tokens():
    empty = VocabularyProfile({}, 0, 0, 0, 1, 1, 0, 0)
    with pytest.raises(DegenerateInputError, match="^profile has no tokens$"):
        hapax_ratio(empty)


def test_rank_ties_lexicographic():
    prof = _profile_from_freq({"b": 2, "a": 2, "c": 3})
    assert prof.ranked() == [("c", 3), ("a", 2), ("b", 2)]


def test_frequency_export(tmp_path):
    prof = _profile_from_freq({"a": 3, "b": 1})
    out = tmp_path / "freq.csv"
    frequency_export(prof, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "token", "count", "cumulative_fraction"]
    assert rows[1] == ["1", "a", "3", "0.75"]
    assert rows[2] == ["2", "b", "1", "1.0"]


def test_frequency_export_last_row_cumulative_one(tmp_path):
    rng = random.Random(7)
    prof = profile(_random_corpus(rng))
    out = tmp_path / "freq.csv"
    frequency_export(prof, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[-1][3]) == 1.0


def test_invariants_hold_on_random_corpora():
    rng = random.Random(123)
    for _ in range(25):
        prof = profile(_random_corpus(rng))
        assert sum(prof.freq.values()) == prof.total_tokens
        assert prof.hapax_count <= prof.unique_tokens <= max(prof.total_tokens, 1)
        assert prof.unique_captions <= prof.total_captions
        assert prof.duplicate_captions + prof.unique_captions == prof.total_captions


def test_brute_force_freq_equivalence():
    rng = random.Random(99)
    for _ in range(20):
        corpus = _random_corpus(rng)
        prof = profile(corpus)
        naive = Counter()
        for record in corpus.records:
            for cap in record.captions:
                for tok in tokenize(cap.raw).tokens:
                    naive[tok] += 1
        assert prof.freq == dict(naive)
        assert prof.hapax_count == sum(1 for n in naive.values() if n == 1)
        # a caption duplicates an earlier one with the same tokens; one without tokens duplicates nothing
        joins = [[" ".join(tokenize(cap.raw).tokens) for cap in record.captions] for record in corpus.records]
        flat = [join for record in joins for join in record]
        assert prof.unique_captions == flat.count("") + len(set(flat) - {""})
        assert prof.within_image_duplicate_captions == sum(
            sum(1 for i, join in enumerate(record) if join and join in record[:i]) for record in joins)


def test_profile_invariant_under_record_reordering():
    rng = random.Random(5)
    corpus = _random_corpus(rng)
    reordered = type(corpus)(tuple(reversed(corpus.records)), corpus.provenance)
    assert profile(corpus) == profile(reordered)
