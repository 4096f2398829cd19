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

from captionkit.augment import CorrectionRules, Thesaurus, correct, synonym_expand
from captionkit.cli import run
from captionkit.confusion import scene_matrix
from captionkit.corpus import LabelRecord, PredictionSet
from captionkit.discover import INDEX_VERSION, load_index, query
from captionkit.exceptions import CaptionKitError, ConfigurationError, FormatError, ValidationError
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
    lambda: CorrectionRules(frozenset({"a"}), "ab"),
    lambda: CorrectionRules(frozenset({"a"}), (5,)),
    lambda: CorrectionRules(frozenset({"a"}), ((("a", "b"), "c", "d"),)),
    lambda: CorrectionRules(frozenset({"a"}), (), "ab"),
    lambda: CorrectionRules(frozenset({"a"}), (), [("b", "a")]),
    lambda: CorrectionRules(5),
    lambda: Thesaurus("beach"),
    lambda: Thesaurus([("beach", ("shore",))]),
    lambda: Thesaurus({"beach": (5,)}),
    lambda: MockTranslator("ab"),
    lambda: MockTranslator({(5,): ("x",)}),
    lambda: MockTranslator({("a",): 5}),
], ids=["dictionary-string", "override-value-tuple", "merge-one-word", "merge-three-words", "merge-string",
        "merge-list", "thesaurus-synonyms-string", "merge-patterns-string", "merge-rule-int", "merge-rule-triple",
        "overrides-string", "overrides-list", "dictionary-int", "thesaurus-string", "thesaurus-pairs",
        "synonym-int", "mock-rules-string", "mock-pattern-word-int", "mock-replacement-int"])
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
    ([("beach", ("beach",))], ()),
    ({"beach": 5}, ()),
    ({"beach": frozenset({"beach"})}, 5),
    ({"beach": frozenset({"beach"})}, iter(["white"])),
], ids=["keywords-pairs", "triggers-int", "attributes-int", "attributes-iterator"])
def test_scene_matrix_refuses_a_container_it_cannot_read(keywords, attributes):
    # an iterator would be used up by the word check, leaving the counting pass no attribute to count
    with pytest.raises(ConfigurationError, match="expected a (mapping|collection of words), got"):
        scene_matrix(PredictionSet({"x": "white waves on a beach"}), LABELS, keywords, attributes=attributes)


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




_TOKEN = st.sampled_from(["beach", "sea", "a"])
_LEAF = _TOKEN | st.none() | st.integers(0, 1) | st.sampled_from(["sea shore", "", "Beach."])
_KEY = _LEAF | st.tuples(_LEAF) | st.tuples(_LEAF, _LEAF) | st.frozensets(_LEAF, max_size=2)  # hashable


def _nested(items, keys):
    """``items`` alone or in a tuple, list, frozenset (of ``keys``) or dict (keyed by ``keys``)."""
    return (items | st.tuples(items) | st.tuples(items, items) | st.lists(items, max_size=3)
            | st.frozensets(keys, max_size=3) | st.dictionaries(keys, items, max_size=3))


_SHAPE = _nested(_nested(_LEAF, _LEAF), _KEY)  # two deep
_TOKENS = _nested(_TOKEN, _TOKEN)  # a container of tokens, of any kind


def _or_any_shape(near):
    """Half the draws ``near``, a value close to what a container needs, so that some build and are applied."""
    return st.booleans().flatmap(lambda close: near if close else _SHAPE)


def _survives(build_and_apply):
    """Build rule containers and, if they build, apply them: either step may raise only a CaptionKitError."""
    try:
        build_and_apply()
    except CaptionKitError:
        pass


@settings(max_examples=300, deadline=None)
@given(dictionary=_or_any_shape(st.frozensets(_TOKEN, min_size=1) | _TOKENS),
       merges=_or_any_shape(st.lists(st.tuples(st.tuples(_TOKEN, _TOKEN), _LEAF), max_size=2)
                            | _nested(st.tuples(st.tuples(_TOKEN, _TOKEN), _TOKEN), st.tuples(_TOKEN, _TOKEN))),
       overrides=_or_any_shape(st.dictionaries(_TOKEN, _LEAF, max_size=2)),
       entries=_or_any_shape(st.dictionaries(_TOKEN, st.tuples(_TOKEN) | _TOKENS, min_size=1, max_size=2)),
       mock_rules=_or_any_shape(st.dictionaries(_TOKEN | st.tuples(_TOKEN) | st.frozensets(_TOKEN), _TOKENS)),
       keywords=_or_any_shape(st.dictionaries(_TOKEN, _TOKENS, max_size=2)),
       attributes=_or_any_shape(_TOKENS))
@example(dictionary=frozenset({"beach"}), merges=[(("sea", "shore"), "seashore")], overrides={"a": "sea"},
         entries={"beach": ("sea shore",)}, mock_rules={("a", "beach"): ("sea",)},
         keywords={"beach": frozenset({"beach"}), "sea": ("sea",)}, attributes=("sea", "a"))
def test_a_rule_container_of_any_shape_fails_only_with_a_captionkit_error(
        dictionary, merges, overrides, entries, mock_rules, keywords, attributes):
    corpus = corpus_from_documents({"x": ["A beach near the sea.", "..."], "y": ["sea shore", "a beach"]}, "t")
    predictions = PredictionSet({"x": "a beach near the sea", "y": "Sea shore."})
    labels = [LabelRecord("x", "beach"), LabelRecord("y", "beach")]
    _survives(lambda: correct(corpus, CorrectionRules(dictionary, merges, overrides), prune_duplicates=True))
    _survives(lambda: synonym_expand(corpus, Thesaurus(entries), 2, seed=0))
    _survives(lambda: [MockTranslator(mock_rules).translate(text, "en", "es") for text in corpus.texts()])
    _survives(lambda: scene_matrix(predictions, labels, keywords, attributes=attributes))
