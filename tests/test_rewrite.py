"""One phrase-table rewriter, ``tokens._rewrite``, serves correction and the offline translator.

``MockTranslator.translate`` once had its own matching loop, which tried every
pattern at every position, longest first. A copy of it is kept here as the
reference the shared rewriter must agree with.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from captionkit.augment import CorrectionRules, correct
from captionkit.tokens import _rewrite
from captionkit.translate import MockTranslator
from conftest import corpus_from_documents


def _pattern_loop_translate(rules, text):
    """The matching loop ``MockTranslator.translate`` had before it shared ``_rewrite``."""
    rules = {tuple(pat): tuple(rep) for pat, rep in rules.items()}
    patterns = sorted(rules, key=lambda pat: (-len(pat), pat))
    words = text.split()
    out = []
    i = 0
    while i < len(words):
        for pattern in patterns:
            window = tuple(w.lower() for w in words[i : i + len(pattern)])
            if window == pattern:
                out.extend(rules[pattern])
                i += len(pattern)
                break
        else:
            out.append(words[i])
            i += 1
    return " ".join(out)


_WORD = st.sampled_from(["a", "b", "ab", "next", "to"])
_TEXT_WORD = st.sampled_from(["a", "A", "b", "B", "ab", "aB", "next", "Next", "TO", "to", "c."])
_TABLE = st.dictionaries(
    st.lists(_WORD, min_size=1, max_size=3).map(tuple),
    st.lists(st.sampled_from(["x", "Y", "with", "near"]), max_size=2).map(tuple),  # empty drops the run
    max_size=6,
)
_TEXT = st.lists(st.tuples(_TEXT_WORD, st.sampled_from([" ", "  ", "\t"])), max_size=10).map(
    lambda parts: "".join(word + space for word, space in parts)
)


@settings(max_examples=500, deadline=None)
@given(_TABLE, _TEXT)
@example({("next", "to"): ("with",), ("next",): ("x",), ("to",): ()}, "Next TO a next")
@example({("a", "b", "a"): (), ("b", "a"): ("x",)}, "A b A")
def test_mock_translator_equals_the_pattern_loop(rules, text):
    assert MockTranslator(rules).translate(text, "en", "es") == _pattern_loop_translate(rules, text)


def test_rewrite_matches_a_run_that_ends_the_sequence():
    table = {("next", "to"): ("with",), ("to",): ("x",)}
    assert _rewrite(("a", "next", "to"), ("A", "Next", "To"), table, (2, 1)) == ["A", "with"]
    # at the end a width-4 slice is the whole remainder, so it can only equal a narrower key
    table = {("b", "c"): ("x",), ("a", "b", "c", "d"): ()}
    assert _rewrite(("z", "b", "c"), ("z", "b", "c"), table, (4, 2)) == ["z", "x"]


def test_rewrite_keeps_words_no_key_matches():
    assert _rewrite(("a", "b"), ("A", "B"), {}, ()) == ["A", "B"]
    assert _rewrite((), (), {("a",): ("x",)}, (1,)) == []


def test_correct_writes_a_merged_token_already_overridden():
    corpus = corpus_from_documents({"i1": ["a c shape building", "a c-shaped shape"]}, "t")
    rules = CorrectionRules(
        frozenset({"a", "building", "shape", "curved"}),
        ((("c", "shape"), "c-shaped"),),
        {"c-shaped": "curved"},
    )
    assert correct(corpus, rules).records[0].texts == ("a curved building", "a curved shape")
