import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captionkit.bleu import (
    _stats,
    bleu_score,
    modified_precision,
    ngram_counts,
    score_predictions,
    sentence_bleu,
)
from captionkit.corpus import PredictionSet
from captionkit.exceptions import ConfigurationError, DegenerateInputError
from captionkit.tokens import tokenize
from conftest import corpus_from_documents
from oracles import oracle_bleu, oracle_stats, oracle_stats_max

ALPHABET = ["a", "b", "c", "d", "e"]


def _random_case(rng):
    n_sentences = rng.randint(1, 10)
    candidates, references = [], []
    for _ in range(n_sentences):
        candidates.append([rng.choice(ALPHABET) for _ in range(rng.randint(1, 12))])
        refs = [
            [rng.choice(ALPHABET) for _ in range(rng.randint(1, 12))]
            for _ in range(rng.randint(1, 5))
        ]
        references.append(refs)
    return candidates, references


def test_unigram_counts():
    assert ngram_counts(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}


def test_bigram_counts():
    assert ngram_counts(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}


def test_too_short_for_order():
    assert ngram_counts(["a"], 2) == {}


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        ngram_counts(["a"], 0)


def test_modified_precision_order_must_be_positive():
    with pytest.raises(ConfigurationError, match="^n-gram order must be >= 1, got 0$"):
        modified_precision([["a", "b"]], [[["a", "b"]]], 0)


def test_identity_precision():
    matched, total = modified_precision([["a", "b", "c"]], [[["a", "b", "c"]]], 1)
    assert matched == total == 3


def test_clipping_fixture():
    matched, total = modified_precision([["the", "the", "the"]], [[["the", "cat"]]], 1)
    assert (matched, total) == (1, 3)


def test_pooled_not_averaged():
    candidates = [["a", "b", "c"], ["a", "x"]]
    references = [[["a", "b", "c"]], [["a"]]]
    matched, total = modified_precision(candidates, references, 1)
    assert (matched, total) == (4, 5)  # 0.8 pooled, not the 0.75 mean of ratios


def test_identity_bleu_is_one():
    tokens = ["many", "planes", "are", "parked", "here"]
    result = bleu_score([tokens], [[tokens]])
    assert result.brevity_penalty == 1.0
    for k in range(1, 5):
        assert result.bleu[k] == 1.0


def test_brevity_penalty_fixture():
    result = bleu_score([["the", "cat", "sat"]], [[["the", "cat", "sat", "on", "the", "mat"]]])
    assert result.precisions[0] == 1.0
    assert result.candidate_len == 3
    assert result.effective_ref_len == 6
    assert result.brevity_penalty == pytest.approx(math.exp(-1))
    assert result.bleu[1] == pytest.approx(math.exp(-1))
    assert result.bleu[4] == 0.0  # no 4-grams in a 3-token candidate
    assert 4 in result.zero_precision_orders


def test_effective_ref_len_ties_to_shorter():
    result = bleu_score([["a", "b"]], [[["x"], ["x", "y", "z"]]])
    # lengths 1 and 3 are equally close to 2; the shorter wins
    assert result.effective_ref_len == 1


def test_reference_order_invariance():
    rng = random.Random(13)
    for _ in range(50):
        candidates, references = _random_case(rng)
        shuffled = [list(refs) for refs in references]
        for refs in shuffled:
            rng.shuffle(refs)
        assert bleu_score(candidates, references) == bleu_score(candidates, shuffled)


def test_scores_in_unit_interval():
    rng = random.Random(29)
    for _ in range(200):
        candidates, references = _random_case(rng)
        result = bleu_score(candidates, references)
        assert 0.0 < result.brevity_penalty <= 1.0
        for k in range(1, 5):
            assert 0.0 <= result.bleu[k] <= 1.0


def test_equal_precisions_give_bp_times_p():
    # one perfect 5-token sentence plus one fully-missed 5-token sentence:
    # matches are 5,4,3,2 over totals 10,8,6,4, so every p_n is exactly 1/2
    candidates = [["a", "b", "c", "d", "e"], ["v", "w", "x", "y", "z"]]
    references = [[["a", "b", "c", "d", "e"]], [["q", "q", "q", "q", "q"]]]
    result = bleu_score(candidates, references)
    assert result.precisions == (0.5, 0.5, 0.5, 0.5)
    assert result.brevity_penalty == 1.0
    for k in range(1, 5):
        assert result.bleu[k] == pytest.approx(0.5)


@pytest.mark.parametrize("max_order", range(1, 7))
def test_max_order_matches_oracle(max_order):
    rng = random.Random(600 + max_order)
    for _ in range(100):
        candidates, references = _random_case(rng)
        result = bleu_score(candidates, references, max_order=max_order)
        precisions, bp, c, r, by_order = oracle_bleu(candidates, references, max_order=max_order)
        assert result.precisions == tuple(precisions)
        assert result.brevity_penalty == bp
        assert (result.candidate_len, result.effective_ref_len) == (c, r)
        assert dict(result.bleu) == by_order
        assert result.zero_precision_orders == tuple(n for n, p in enumerate(precisions, 1) if p == 0.0)


# three words, so repeated n-grams, repeated references and references shorter
# than the order are all common
three_words = st.lists(st.sampled_from("xyz"), max_size=9)


@pytest.mark.parametrize("max_order", range(1, 7))
@given(cand=three_words.filter(bool), refs=st.lists(three_words, min_size=1, max_size=5))
def test_sentence_stats_match_per_order_oracle(max_order, cand, refs):
    assert _stats(cand, refs, max_order) == oracle_stats(cand, refs, max_order)


# a short stretch repeated two or three times, so the candidate holds grams
# more than once and the clip depends on the references' counts
repeated = st.tuples(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3), st.integers(2, 3)).map(
    lambda pair: pair[0] * pair[1]
)


@pytest.mark.parametrize("max_order", range(1, 7))
@given(cand=repeated | three_words.filter(bool), refs=st.lists(three_words, min_size=2, max_size=5))
def test_sentence_stats_match_earlier_one_pass_counting(max_order, cand, refs):
    assert _stats(cand, refs, max_order) == oracle_stats_max(cand, refs, max_order)


def _as_oracle(result):
    return (list(result.precisions), result.brevity_penalty, result.candidate_len,
            result.effective_ref_len, dict(result.bleu))


def test_score_predictions_rows_and_corpus_match_oracle():
    rng = random.Random(8080)

    def text():
        # "..." tokenizes to nothing, as a reference or as a prediction
        return "..." if rng.random() < 0.1 else " ".join(
            rng.choice(ALPHABET) for _ in range(rng.randint(1, 12)))

    for _ in range(200):
        documents = {
            f"i{n}": [text() for _ in range(rng.randint(1, 5))] for n in range(rng.randint(1, 8))
        }
        corpus = corpus_from_documents(documents, "refs")
        entries = {image_id: text() for image_id in documents if rng.random() < 0.8}
        entries.update({f"ghost{n}": text() for n in range(rng.randint(0, 2))})
        overall, per_image, missing = score_predictions(PredictionSet(entries), corpus)

        scored = [i for i in entries if i in documents and tokenize(entries[i]).tokens]
        assert [image_id for image_id, _ in per_image] == scored
        assert missing == [i for i in entries if i not in documents]
        candidates = [list(tokenize(entries[i]).tokens) for i in scored]
        references = [[list(tokenize(t).tokens) for t in documents[i]] for i in scored]
        for (_, result), cand, refs in zip(per_image, candidates, references):
            assert _as_oracle(result) == oracle_bleu([cand], [refs])
        if scored:
            assert _as_oracle(overall) == oracle_bleu(candidates, references)
        else:
            assert _as_oracle(overall) == ([0.0] * 4, 1.0, 0, 0, {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0})


# any str is a token to the public entries, "" and tokens holding whitespace too
any_tokens = st.lists(st.sampled_from(["", " ", "a b", "\n", "a", "b"]) | st.text(max_size=3), max_size=8)


@given(pairs=st.lists(st.tuples(any_tokens.filter(bool), st.lists(any_tokens, min_size=1, max_size=4)),
                      min_size=1, max_size=3),
       max_order=st.integers(1, 5))
def test_public_entries_match_oracles_on_any_string_tokens(pairs, max_order):
    candidates, references = [cand for cand, _ in pairs], [refs for _, refs in pairs]
    assert _as_oracle(bleu_score(candidates, references, max_order)) == oracle_bleu(candidates, references, max_order)
    for n in range(1, max_order + 1):
        vectors = [oracle_stats(cand, refs, n) for cand, refs in pairs]
        expected = (sum(v[2 * n - 2] for v in vectors), sum(v[2 * n - 1] for v in vectors))
        assert modified_precision(candidates, references, n) == expected


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(repeated | three_words.filter(bool), st.lists(three_words, min_size=1, max_size=4)),
                      min_size=1, max_size=4),
       max_order=st.integers(1, 50), order=st.integers(1, 50))
def test_orders_up_to_50_match_the_oracles(pairs, max_order, order):
    candidates, references = [cand for cand, _ in pairs], [refs for _, refs in pairs]
    result = bleu_score(candidates, references, max_order)
    expected = oracle_bleu(candidates, references, max_order)
    assert _as_oracle(result) == expected
    assert result.zero_precision_orders == tuple(n for n, p in enumerate(expected[0], start=1) if p == 0.0)
    n = min(order, max_order)
    vectors = [oracle_stats(cand, refs, n) for cand, refs in pairs]
    assert modified_precision(candidates, references, n) == (sum(v[2 * n - 2] for v in vectors),
                                                            sum(v[2 * n - 1] for v in vectors))


def test_bleu_score_memory_does_not_grow_with_the_candidate_count():
    # the sentence vectors are pooled as they are made, so ten times the candidates hold no more memory
    def peak(count):
        candidates, references = [["a", "b", "c"] for _ in range(count)], [[["a", "b", "c"]]] * count
        tracemalloc.start()
        try:
            bleu_score(candidates, references, max_order=1000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100) < 2 * peak(10)


def test_a_token_holding_a_space_is_not_two_tokens():
    # joined raw, "a b" would be found in the reference "a b" and give (1.0,)
    assert bleu_score([["a b"]], [[["a", "b"]]], max_order=1).precisions == (0.0,)


def test_oracle_equivalence_bit_exact():
    rng = random.Random(4242)
    for _ in range(300):
        candidates, references = _random_case(rng)
        result = bleu_score(candidates, references)
        precisions, bp, c, r, by_order = oracle_bleu(candidates, references)
        assert result.precisions == tuple(precisions)
        assert result.brevity_penalty == bp
        assert (result.candidate_len, result.effective_ref_len) == (c, r)
        assert dict(result.bleu) == by_order


def test_empty_candidate_rejected():
    with pytest.raises(DegenerateInputError):
        bleu_score([[]], [[["a"]]])


def test_no_candidates_rejected():
    with pytest.raises(DegenerateInputError):
        bleu_score([], [])


def test_candidate_without_references_rejected():
    with pytest.raises(ValueError):
        bleu_score([["a"]], [[]])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        bleu_score([["a"]], [])


def test_sentence_bleu_flags_vanished_order():
    result = sentence_bleu(["a", "b"], [["a", "c"]])
    assert result.bleu[2] == 0.0
    assert 2 in result.zero_precision_orders


def test_to_dict_keys():
    result = sentence_bleu(["a", "b", "c", "d"], [["a", "b", "c", "d"]])
    assert set(result.to_dict()) == {
        "bleu1", "bleu2", "bleu3", "bleu4",
        "p1", "p2", "p3", "p4", "bp", "c", "r",
    }


def test_score_predictions_against_corpus():
    corpus = corpus_from_documents(
        {"i1": ["a b c d", "a b c e"], "i2": ["x y z w"]}, "refs"
    )
    predictions = PredictionSet({"i1": "a b c d", "i2": "x y z w", "ghost": "q"})
    overall, per_image, missing = score_predictions(predictions, corpus)
    assert missing == ["ghost"]
    assert [image_id for image_id, _ in per_image] == ["i1", "i2"]
    assert overall.bleu[4] == 1.0
    assert all(result.bleu[4] == 1.0 for _, result in per_image)


def test_score_predictions_empty():
    corpus = corpus_from_documents({"i1": ["a b"]}, "refs")
    overall, per_image, missing = score_predictions(PredictionSet({}), corpus)
    assert per_image == [] and missing == []
    assert overall.precisions == (0.0, 0.0, 0.0, 0.0)
    assert overall.brevity_penalty == 1.0
    assert (overall.candidate_len, overall.effective_ref_len) == (0, 0)
    assert dict(overall.bleu) == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    assert overall.zero_precision_orders == (1, 2, 3, 4)
