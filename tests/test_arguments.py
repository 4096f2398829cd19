"""Every count and every sequence a public function is given is judged where it enters.

A count is an ``int``, never a ``bool``, inside its documented range; a string
is never read as a sequence of tokens, terms, hops or references; a sequence
that is read twice is never a one-shot iterator. A value off these rules
raises a ``CaptionKitError`` before any work, where before it was read letter
by letter, rounded down, used up or ended in a bare Python error.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captionkit.augment import MAX_CONCURRENCY, MAX_RETRIES, Thesaurus, back_translate, synonym_expand
from captionkit.bleu import bleu_score, modified_precision, ngram_counts, sentence_bleu
from captionkit.confusion import attribute_table, default_scene_keywords, scene_matrix
from captionkit.corpus import LabelRecord, PredictionSet
from captionkit.discover import build_index, query
from captionkit.exceptions import CaptionKitError
from captionkit.translate import MockTranslator, TranslationChain
from captionkit.vocabstats import profile, top_k_coverage
from conftest import corpus_from_documents

CORPUS = corpus_from_documents({"a": ["white beach", "a beach near the sea"], "b": ["green trees"]}, "t")
THESAURUS = Thesaurus({"beach": ("shore",), "sea": ("ocean",)})
CHAIN = TranslationChain(("es",), MockTranslator())
INDEX = build_index({"a": "white beach", "b": "a beach near the sea"})
PREDICTIONS = PredictionSet({"a": "white waves on a beach", "b": "a white sea"})
LABELS = [LabelRecord("a", "beach"), LabelRecord("b", "sea")]
KEYWORDS = {"beach": frozenset({"beach"}), "sea": frozenset({"sea"})}


@pytest.mark.parametrize("call", [
    # these gave wrong output, with no error, before the shared rule
    lambda: sentence_bleu("a beach", ["a beach"]),
    lambda: sentence_bleu(["a", "beach"], "a beach"),
    lambda: ngram_counts("ab", 1),
    lambda: query(INDEX, "beach"),
    lambda: attribute_table(PREDICTIONS, iter(LABELS), ["white"]),
    lambda: synonym_expand(CORPUS, THESAURUS, seed=None),
    lambda: synonym_expand(CORPUS, THESAURUS, 1.5, seed=1),
    lambda: back_translate(CORPUS, CHAIN, concurrency=1.5),
    lambda: bleu_score([["a"]], [[["a"]]], max_order=0),
    lambda: TranslationChain("es", MockTranslator()),
    lambda: TranslationChain(iter(["es", "de"]), MockTranslator()),
    # these ended in a bare Python error
    lambda: back_translate(CORPUS, CHAIN, concurrency="2"),
    lambda: back_translate(CORPUS, CHAIN, max_retries=1.5),
    lambda: back_translate(CORPUS, CHAIN, max_retries=None),
    lambda: synonym_expand(CORPUS, THESAURUS, "2", seed=1),
    lambda: top_k_coverage(profile(CORPUS), 1.5),
    lambda: top_k_coverage(profile(CORPUS), None),
    lambda: ngram_counts(["a", "b"], 1.5),
    lambda: modified_precision([["a"]], [[["a"]]], 1.5),
    lambda: bleu_score([["a"]], [[["a"]]], max_order=1.5),
    lambda: TranslationChain(("es", 5), MockTranslator()),
    lambda: build_index([("a", "white beach")]),
    lambda: query(INDEX, [5]),
    lambda: build_index({"a": 5}),
    lambda: default_scene_keywords("beach"),
    lambda: default_scene_keywords(["beach"]),
    # this indexed an id that is not a string
    lambda: build_index({5: "white beach"}),
], ids=[
    "sentence-bleu-string-candidate", "sentence-bleu-string-references", "ngram-counts-string",
    "query-string", "attribute-table-iterator", "synonym-seed-none", "synonym-float-count",
    "backtranslate-float-concurrency", "bleu-max-order-zero", "chain-string", "chain-iterator",
    "backtranslate-text-concurrency", "backtranslate-float-retries", "backtranslate-none-retries",
    "synonym-text-count", "top-k-float", "top-k-none", "ngram-counts-float-order",
    "modified-precision-float-order", "bleu-float-max-order", "chain-int-hop", "build-index-pairs",
    "query-int-term", "build-index-int-text", "default-keywords-string", "default-keywords-strings",
    "build-index-int-id",
])
def test_a_misshapen_argument_raises_a_captionkit_error(call):
    with pytest.raises(CaptionKitError):
        call()


def test_attribute_table_counts_the_same_over_a_tuple_as_over_a_list():
    expected = {("white", "beach"): 1, ("white", "sea"): 1}
    assert attribute_table(PREDICTIONS, LABELS, ["white"]) == expected
    assert attribute_table(PREDICTIONS, tuple(LABELS), ["white"]) == expected


_COUNT = st.integers(-2, MAX_CONCURRENCY + 2) | st.floats() | st.booleans() | st.none() | st.text(max_size=2)
_WORD = st.sampled_from(["a", "beach", "sea"]) | st.just(5)
_LABEL = st.sampled_from(LABELS) | st.just("beach")


def _seq(items, min_size=0):
    """A list of ``items`` as a list, a tuple or an iterator, or a string."""
    lists = st.lists(items, min_size=min_size, max_size=3)
    return st.text(max_size=3) | lists | lists.map(tuple) | lists.map(iter)


_TOKENS = _seq(_WORD, 1)
_REFERENCES = _seq(_TOKENS, 1)


def _is_count(value, low=None, high=None):
    return type(value) is int and (low is None or value >= low) and (high is None or value <= high)


def _is_seq(value, item=lambda member: True):
    """Whether ``value`` is a list or tuple of members ``item`` accepts; an iterator is never looked into."""
    return isinstance(value, (list, tuple)) and all(map(item, value))


def _is_tokens(value):
    return _is_seq(value, lambda token: isinstance(token, str))


def _is_references(value):
    return _is_seq(value, _is_tokens)


def _judged(valid, call):
    """``call`` returns if ``valid`` and otherwise raises a ``CaptionKitError``, never a bare Python error."""
    if valid:
        call()
    else:
        with pytest.raises(CaptionKitError):
            call()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_count_or_sequence_argument_succeeds_only_when_valid(data):
    draw = data.draw
    tokens, n = draw(_seq(_WORD)), draw(_COUNT)
    _judged(_is_tokens(tokens) and _is_count(n, 1), lambda: ngram_counts(tokens, n))
    for score in (bleu_score, modified_precision):
        candidates, references, order = draw(_seq(_TOKENS, 1)), draw(_seq(_REFERENCES, 1)), draw(_COUNT)
        shapes = (_is_seq(candidates, _is_tokens) and _is_seq(references, _is_references)
                  and len(candidates) == len(references))
        _judged(shapes and _is_count(order, 1), lambda: score(candidates, references, order))
    candidate, references = draw(_TOKENS), draw(_REFERENCES)
    _judged(_is_tokens(candidate) and _is_references(references), lambda: sentence_bleu(candidate, references))

    k = draw(_COUNT)
    _judged(_is_count(k, 1), lambda: top_k_coverage(profile(CORPUS), k))
    replacements, seed = draw(_COUNT), draw(_COUNT)
    _judged(_is_count(replacements, 1) and _is_count(seed),
            lambda: synonym_expand(CORPUS, THESAURUS, replacements, seed=seed))
    concurrency, retries, backoff = draw(_COUNT), draw(_COUNT), draw(_COUNT)
    valid = (_is_count(concurrency, 1, MAX_CONCURRENCY) and _is_count(retries, 0, MAX_RETRIES)
             and type(backoff) in (int, float) and 0 <= backoff < math.inf)
    _judged(valid, lambda: back_translate(CORPUS, CHAIN, concurrency=concurrency, max_retries=retries, backoff=backoff))

    hops = draw(_seq(st.sampled_from(["es", "de"]) | st.just(5), 1))
    valid = _is_tokens(hops) and all(a != b for a, b in zip(hops, hops[1:]))  # no hop repeated in a row
    _judged(valid, lambda: TranslationChain(hops, MockTranslator()))
    terms = draw(_TOKENS)
    _judged(_is_tokens(terms), lambda: query(INDEX, terms))
    documents = draw(st.dictionaries(st.sampled_from(["a", "b"]), st.sampled_from(["white beach", "sea"]))
                     | _seq(st.just(("a", "white beach"))))
    _judged(isinstance(documents, dict), lambda: build_index(documents))
    labels = draw(_seq(_LABEL))
    _judged(_is_seq(labels, lambda label: isinstance(label, LabelRecord)),
            lambda: scene_matrix(PREDICTIONS, labels, KEYWORDS))
    labels = draw(_seq(_LABEL))
    _judged(_is_seq(labels, lambda label: isinstance(label, LabelRecord)),
            lambda: attribute_table(PREDICTIONS, labels, ["white"]))
