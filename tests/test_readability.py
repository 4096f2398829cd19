import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from captionkit.exceptions import DegenerateInputError
from captionkit import readability
from captionkit.readability import (
    COMPLEX_SYLLABLES,
    ReadabilityReport,
    count_syllables,
    report,
    report_from_aggregates,
)
from captionkit.tokens import split_sentences, tokenize
from conftest import corpus_from_documents, plain_captions
from oracles import oracle_readability

# frozen outputs of the vowel-group heuristic (regression fixtures)
SYLLABLE_FIXTURES = {
    "tree": 1,
    "beautiful": 3,
    "a": 1,
    "sea": 1,
    "apple": 2,
    "circle": 2,
    "mile": 1,
    "blue": 1,
    "building": 2,
    "airport": 2,
    "terminal": 3,
    "industrial": 3,
    "many": 2,
    "planes": 2,
    "eye": 1,
    "e": 1,
}


@pytest.mark.parametrize("word,expected", sorted(SYLLABLE_FIXTURES.items()))
def test_syllable_fixtures(word, expected):
    assert count_syllables(word) == expected


def test_syllables_case_insensitive():
    assert count_syllables("Beautiful") == count_syllables("beautiful")


def test_non_alpha_token_floors_to_one():
    assert count_syllables("3") == 1
    assert count_syllables("xyz-2") == 1


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=15))
def test_syllables_at_least_one(word):
    assert count_syllables(word) >= 1


def test_single_caption_report():
    rep = report(corpus_from_documents({"i1": ["a sea"]}, "t"))
    assert rep.words == 2
    assert rep.sentences == 1
    assert rep.syllables_per_word == 1.0  # Y = 2
    assert rep.complex_pct == 0.0
    assert rep.fog == pytest.approx(0.8)
    assert rep.characters == 4
    assert rep.unique_words == 2


def test_from_aggregates_unit_point():
    scores = report_from_aggregates(1.0, 1.0, 0.0)
    assert scores.fog == pytest.approx(0.4)
    assert scores.flesch == pytest.approx(121.22)
    assert scores.fk == pytest.approx(-3.40)


@pytest.mark.parametrize(
    "wps,cpct,fog",
    [(9.62, 7.70, 6.93), (10.25, 8.07, 7.33), (10.96, 10.39, 8.54)],
)
def test_fog_consistency(wps, cpct, fog):
    assert report_from_aggregates(wps, 1.0, cpct).fog == pytest.approx(fog, abs=0.01)


def test_from_aggregates_rejects_nonpositive():
    with pytest.raises(ValueError):
        report_from_aggregates(0.0, 1.0, 5.0)
    with pytest.raises(ValueError):
        report_from_aggregates(9.0, -1.0, 5.0)
    with pytest.raises(ValueError):
        report_from_aggregates(9.0, 1.0, -5.0)


def test_report_matches_aggregates_of_itself(small_corpus):
    rep = report(small_corpus)
    scores = report_from_aggregates(rep.words_per_sentence, rep.syllables_per_word, rep.complex_pct)
    assert scores.fog == rep.fog  # exact: same expression inputs
    assert math.isclose(scores.flesch, rep.flesch)
    assert math.isclose(scores.fk, rep.fk)


def test_words_per_sentence_consistency(small_corpus):
    rep = report(small_corpus)
    assert rep.words_per_sentence * rep.sentences == pytest.approx(rep.words)


def test_fog_identity_by_construction(small_corpus):
    rep = report(small_corpus)
    assert rep.fog == 0.4 * (rep.words_per_sentence + rep.complex_pct)


def test_appending_monosyllable_lowers_syllable_ratio(small_corpus):
    base = report(small_corpus)
    padded = corpus_from_documents(
        {
            record.image_id: [cap.raw + " bay" for cap in record.captions]
            for record in small_corpus.records
        },
        "padded",
    )
    rep = report(padded)
    assert rep.syllables_per_word < base.syllables_per_word
    assert rep.syllables_per_word >= 1.0
    assert rep.complex_pct <= base.complex_pct


def test_degenerate_corpus_rejected():
    corpus = corpus_from_documents({"i1": ["..."]}, "t")  # non-empty raw, zero tokens
    with pytest.raises(DegenerateInputError):
        report(corpus)


def test_multi_sentence_caption_counted():
    rep = report(corpus_from_documents({"i1": ["a beach. a desert."]}, "t"))
    assert rep.sentences == 2
    assert rep.words == 4


def test_to_dict_row_names(small_corpus):
    d = report(small_corpus).to_dict()
    assert list(d) == [  # names and order
        "characters",
        "words",
        "unique_words",
        "complex_word_pct",
        "avg_syllables_per_word",
        "sentences",
        "avg_words_per_sentence",
        "fog_grade_level",
        "flesch_reading_ease",
        "flesch_kincaid_grade",
    ]


def _per_occurrence_report(corpus):
    # reference: syllables counted for every token occurrence, one at a time
    characters = words = sentences = syllables = complex_words = 0
    vocabulary = set()
    for cap in corpus.captions():
        sentence = tokenize(cap.raw)
        characters += sentence.char_count
        words += len(sentence.tokens)
        sentences += len(split_sentences(cap.raw))
        for tok in sentence.tokens:
            n = count_syllables(tok)
            syllables += n
            if n >= COMPLEX_SYLLABLES:
                complex_words += 1
        vocabulary.update(sentence.tokens)
    words_per_sentence = words / sentences
    syllables_per_word = syllables / words
    complex_pct = 100.0 * complex_words / words
    fog, flesch, fk = report_from_aggregates(words_per_sentence, syllables_per_word, complex_pct)
    return ReadabilityReport(characters, words, len(vocabulary), complex_pct, syllables_per_word,
                             sentences, words_per_sentence, fog, flesch, fk)


# one- and two-syllable words plus words of three or more syllables, in mixed case
WORDS = ["a", "sea", "Tree", "planes", "apple", "many", "beautiful", "Terminal",
         "industrial", "residential", "a", "the", "3", "c-shaped", "it's"]


def _random_corpus(rng):
    documents = {}
    for i in range(rng.randint(1, 12)):
        captions = []
        for _ in range(rng.randint(1, 5)):
            words = [rng.choice(WORDS) for _ in range(rng.randint(1, 12))]
            sentence_ends = [rng.choice(["", "", ".", "!"]) for _ in words]
            captions.append(" ".join(w + end for w, end in zip(words, sentence_ends)) + ".")
        documents[f"i{i}"] = captions
    return corpus_from_documents(documents, "random")


def test_report_matches_per_occurrence_reference():
    rng = random.Random(5)
    for _ in range(200):
        corpus = _random_corpus(rng)
        assert report(corpus) == _per_occurrence_report(corpus)


def test_syllables_counted_once_per_token_type(monkeypatch):
    calls = Counter()

    def counting(word):
        calls[word] += 1
        return count_syllables(word)

    monkeypatch.setattr(readability, "count_syllables", counting)
    corpus = _random_corpus(random.Random(9))
    rep = report(corpus)
    distinct = {tok for cap in corpus.captions() for tok in tokenize(cap.raw).tokens}
    assert set(calls) == distinct
    assert set(calls.values()) == {1}
    assert rep.unique_words == len(distinct)
    assert rep.words > len(distinct)


# ASCII pieces next to ones that take the regex kernel: a capital dotted I that
# lower-cases to two characters, a capital sigma, a no-break space and an ellipsis
PIECES = ["a", "Beach", "residential", "c-shaped", "it's", "3", ".", "!", " ", "_", "\x1c",
          "\u0130stanbul", "\u039f\u0394\u039f\u03a3", "\u00a0", "\u2026", "na\u00efve"]
caption_text = st.lists(st.sampled_from(PIECES), min_size=1, max_size=10).map("".join).filter(str.strip)


@given(st.lists(st.lists(caption_text, min_size=1, max_size=4), min_size=1, max_size=6))
def test_report_matches_per_caption_loop(documents):
    corpus = corpus_from_documents({f"i{i}": texts for i, texts in enumerate(documents)}, "mixed")
    try:
        expected = oracle_readability(corpus)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            report(corpus)
    else:
        assert report(corpus) == expected


@given(plain_captions | st.sampled_from(["...", "a.b", "a. b", "a!?", "  .", "a.\x85", "a.\u3000", "\u2028"]) | st.text())
def test_sentence_count_is_the_split_count(text):
    assert readability._sentences(text) == len(split_sentences(text))
