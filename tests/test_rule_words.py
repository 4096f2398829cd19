"""A rule word must be exactly one token as the tokenizer reads it.

Rule containers, scene triggers, attributes and index keys are matched
against tokens, so a word the tokenizer can never produce (several tokens,
edge punctuation, upper case, empty) would never fire or would write text
that re-tokenizes differently. Each is rejected where it enters.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from captionkit.augment import CorrectionRules, Thesaurus, correct
from captionkit.cli import run
from captionkit.confusion import scene_matrix
from captionkit.corpus import LabelRecord, PredictionSet
from captionkit.discover import INDEX_VERSION, load_index, query
from captionkit.exceptions import ConfigurationError, FormatError, ValidationError
from captionkit.tokens import _words
from captionkit.translate import MockTranslator
from conftest import corpus_from_documents, write_jsonl

PREDICTIONS = PredictionSet({"x": "green trees by a parking lot next to the beach"})
LABELS = [LabelRecord("x", "beach")]


def _is_token(word):
    return _words(word) == (word,)


def _builds(build):
    try:
        build()
    except (ValidationError, ConfigurationError):
        return False
    return True


@pytest.mark.parametrize("build", [
    lambda: Thesaurus({"next to": ("beside",)}),
    lambda: CorrectionRules(frozenset({"next to", "beach"})),
    lambda: CorrectionRules(frozenset({"beach.", "sea"})),
], ids=["thesaurus-two-words", "dictionary-two-words", "dictionary-edge-punctuation"])
def test_rule_container_rejects_non_token(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("build", [
    lambda: CorrectionRules("beach"),
    lambda: CorrectionRules(frozenset({"beach"}), manual_overrides={"sea": ("ocean",)}),
    lambda: CorrectionRules(frozenset({"beach"}), ((("beach",), "x"),)),
    lambda: CorrectionRules(frozenset({"beach"}), ((("a", "beach", "near"), "x"),)),
    lambda: CorrectionRules(frozenset({"beach"}), (("ab", "x"),)),
    lambda: CorrectionRules(frozenset({"beach"}), ((["c", "shape"], "c-shaped"),)),
    lambda: Thesaurus({"beach": "shore"}),
], ids=["dictionary-string", "override-value-tuple", "merge-one-word", "merge-three-words", "merge-string",
        "merge-list", "thesaurus-synonyms-string"])
def test_rule_container_refuses_a_shape_it_cannot_apply(build):
    # a string would be read letter by letter; a bigram of another width cannot key correct's rewrite table
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("keywords, attributes", [
    ({"beach": "beach"}, ()),
    ({"beach": frozenset({"beach"})}, "white"),
], ids=["triggers-string", "attributes-string"])
def test_scene_matrix_refuses_a_string_of_words(keywords, attributes):
    # read letter by letter, "a" of "beach" would fire on "a plane on a runway"
    predictions = PredictionSet({"x": "a plane on a runway"})
    with pytest.raises(ConfigurationError, match="expected a collection of words, got the string"):
        scene_matrix(predictions, LABELS, keywords, attributes=attributes)


@pytest.mark.parametrize("keywords, attributes", [
    ({"beach": frozenset({"beach"}), "parking": frozenset({"parking lot"})}, ()),
    ({"beach": frozenset({"beach"})}, ("trees.",)),
], ids=["trigger-two-words", "attribute-edge-punctuation"])
def test_trigger_or_attribute_rejects_non_token(keywords, attributes):
    with pytest.raises(ConfigurationError):
        scene_matrix(PREDICTIONS, LABELS, keywords, attributes=attributes)


def test_score_confusion_rejects_multi_word_label_scene(tmp_path, capsys):
    # without --scenes each label scene triggers on its own name
    preds = write_jsonl(tmp_path / "p.jsonl", [{"image_id": "n1", "caption": "cars in a parking lot"}])
    labels = write_jsonl(tmp_path / "l.jsonl", [{"image_id": "n1", "scene": "parking lot"}])
    assert run(["score-confusion", "--predictions", str(preds), "--labels", str(labels)]) == 2
    assert "'parking lot'" in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(st.text())
@example("next to")
@example("beach.")
@example("Beach")
@example("")
def test_rule_word_builds_iff_it_is_one_token(word):
    assert _builds(lambda: CorrectionRules(frozenset({word}))) == _is_token(word)
    assert _builds(lambda: Thesaurus({word: (word + "x",)})) == _is_token(word)
    assert _builds(lambda: scene_matrix(PREDICTIONS, LABELS, {"beach": frozenset({word})})) == _is_token(word)


_WORD = st.text(alphabet="ab. -", min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(
    captions=st.lists(st.text(alphabet="ab .-", max_size=14), min_size=1, max_size=4),
    dictionary=st.frozensets(_WORD, min_size=1, max_size=4),
    overrides=st.dictionaries(_WORD, _WORD, max_size=2),
    merges=st.lists(st.tuples(st.tuples(_WORD, _WORD), _WORD), max_size=2),
)
@example(captions=["a nextto b"], dictionary=frozenset({"next to"}), overrides={}, merges=[])
@example(captions=["abab"], dictionary=frozenset({"abab."}), overrides={}, merges=[])
def test_corrected_caption_retokenizes_to_its_tokens(captions, dictionary, overrides, merges):
    try:
        rules = CorrectionRules(dictionary, tuple(merges), overrides)
    except ValidationError:
        return
    corpus = corpus_from_documents({"i": [c if c.strip() else "x" for c in captions]}, "t")
    for before, after in zip(corpus.captions(), correct(corpus, rules).captions()):
        if _words(before.raw):
            assert _words(after.raw) == tuple(after.raw.split())


@pytest.mark.parametrize("rules", [
    {"beside": ("near",)},
    {("beside",): "near"},
    {("next to",): ("with",)},
], ids=["str-pattern", "str-replacement", "pattern-word-with-space"])
def test_mock_translator_rejects_rule_that_cannot_fire(rules):
    with pytest.raises(ValidationError):
        MockTranslator(rules)


def test_mock_translator_matches_whitespace_split_words():
    # not tokens: a pattern word with edge punctuation matches that exact word
    translator = MockTranslator({("beach.",): ("shore.",)})
    assert translator.translate("waves on a beach.", "en", "es") == "waves on a shore."


@pytest.mark.parametrize("key", ["Beach", "sea.", "next to", ""])
def test_load_index_rejects_key_no_query_reaches(tmp_path, key):
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION, "doc_count": 1, "postings": {"ok": ["a"], key: ["a"]}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match=repr(key)):
        load_index(path)


def test_load_index_keys_are_reachable(tmp_path):
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION, "doc_count": 2, "postings": {"beach": ["a", "b"], "c-shaped": ["b"]}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    index = load_index(path)
    assert query(index, ["Beach", "C-shaped."]) == ["b"]
